// Figure 5 a/c/e: Memento update speed as a function of the sampling
// probability tau, for 64/512/4096 counters, on the three trace surrogates.
// WCSS is the tau = 1 row of each series.
//
// Expected shape (paper): throughput is governed by tau and nearly
// indifferent to the counter budget; Memento reaches up to ~14x WCSS.
//
// Each configuration runs twice: `fig5/hh_speed` feeds packets one scalar
// update() at a time, `fig5/hh_speed_batch` feeds NIC-burst-sized spans
// (kBurst packets) through update_batch(). Both process the identical
// stream and end in identical sketch state; the delta is pure hot-path
// mechanics (pre-drawn sampling, chunked hashing + prefetch, hoisted
// window bookkeeping). `fig5/hh_speed_sharded` adds the multicore axis:
// the same bursts through the threaded pipeline (push mode, one worker per
// core) at N = 1..8 cores, wall-clock timed (scaling requires >= N
// physical cores to show).
// `fig5/hh_speed_rebalanced` adds the skew axis: Zipf 0.6-1.2 elephant
// mixes scored static-hashing vs the coverage_rebalancer's weighted table
// (load ratio, window-coverage spread, recall vs an exact oracle). bench/
// summarize.py reduces the JSON output of this binary into BENCH_fig5.json,
// the per-PR throughput trajectory artifact, including the scaling curve
// and the `rebalance` section.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/memento.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "sketch/exact_window.hpp"
#include "trace/trace_generator.hpp"

namespace {

using namespace memento;

constexpr std::size_t kTracePackets = 2'000'000;
constexpr std::uint64_t kWindow = 1'000'000;

/// Pre-materialized flow-id traces (generated once per process).
const std::vector<std::uint64_t>& trace_ids(trace_kind kind) {
  static std::vector<std::uint64_t> cache[3];
  auto& slot = cache[static_cast<int>(kind)];
  if (slot.empty()) {
    trace_generator gen(kind, 42);
    slot.reserve(kTracePackets);
    for (std::size_t i = 0; i < kTracePackets; ++i) slot.push_back(flow_id(gen.next()));
  }
  return slot;
}

/// Packets per update_batch() call in the batch variant: a realistic NIC
/// receive burst, and large enough to fill the kernel's internal chunk.
constexpr std::size_t kBurst = 256;

/// Probe-behavior counters: how the Space-Saving counter index and the
/// overflow table actually probed during the run, so probe behavior is
/// observable in the artifact rather than inferred from Mpps.
void attach_probe_stats(benchmark::State& state, const memento_sketch<std::uint64_t>& sketch) {
  const flat_hash_stats idx = sketch.counter_index_stats();
  state.counters["index_load"] = idx.load_factor;
  state.counters["index_max_probe"] = static_cast<double>(idx.max_probe);
  state.counters["index_mean_probe"] = idx.mean_probe;
  const flat_hash_stats ovf = sketch.overflow_table_stats();
  state.counters["overflow_load"] = ovf.load_factor;
  state.counters["overflow_max_probe"] = static_cast<double>(ovf.max_probe);
  state.counters["overflow_peak_per_block"] = static_cast<double>(sketch.block_overflow_peak());
}

void hh_speed(benchmark::State& state) {
  const auto kind = static_cast<trace_kind>(state.range(0));
  const auto counters = static_cast<std::size_t>(state.range(1));
  const double tau = 1.0 / static_cast<double>(state.range(2));

  const auto& ids = trace_ids(kind);
  memento_sketch<std::uint64_t> sketch(kWindow, counters, tau, /*seed=*/1);

  for (auto _ : state) {
    for (const auto id : ids) sketch.update(id);
    benchmark::DoNotOptimize(sketch.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(ids.size()) / 1e6,
      benchmark::Counter::kIsRate);
  attach_probe_stats(state, sketch);
  state.SetLabel(std::string(trace_name(kind)) + "/k=" + std::to_string(counters) +
                 "/tau=1/" + std::to_string(state.range(2)));
}

void hh_speed_batch(benchmark::State& state) {
  const auto kind = static_cast<trace_kind>(state.range(0));
  const auto counters = static_cast<std::size_t>(state.range(1));
  const double tau = 1.0 / static_cast<double>(state.range(2));

  const auto& ids = trace_ids(kind);
  memento_sketch<std::uint64_t> sketch(kWindow, counters, tau, /*seed=*/1);

  for (auto _ : state) {
    for (std::size_t i = 0; i < ids.size(); i += kBurst) {
      sketch.update_batch(ids.data() + i, std::min(kBurst, ids.size() - i));
    }
    benchmark::DoNotOptimize(sketch.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(ids.size()) / 1e6,
      benchmark::Counter::kIsRate);
  attach_probe_stats(state, sketch);
  state.SetLabel(std::string(trace_name(kind)) + "/k=" + std::to_string(counters) +
                 "/tau=1/" + std::to_string(state.range(2)) + "/burst=" + std::to_string(kBurst));
}

// Sharded variant: the same stream pushed through pipeline<> in push mode
// with N worker threads (args: kind, counters, inv_tau, shards), as the
// packets the flow ids name (packet_of; detection off). Window
// and counter budgets are GLOBAL (divided across shards), so the N = 1 row
// is the single-instance batch path plus steer/ring overhead and the N > 1
// rows measure multicore scaling. Each iteration ingests the full trace in
// NIC bursts and drains, so ring flush time is inside the measurement. bench/summarize.py turns these rows into the scaling curve
// recorded in BENCH_fig5.json (speedup vs N=1 and vs the batch baseline).
void hh_speed_sharded(benchmark::State& state) {
  const auto kind = static_cast<trace_kind>(state.range(0));
  const auto counters = static_cast<std::size_t>(state.range(1));
  const double tau = 1.0 / static_cast<double>(state.range(2));
  const auto shards = static_cast<std::size_t>(state.range(3));

  const auto& ids = trace_ids(kind);
  std::vector<packet> pkts;
  for (const auto id : ids) pkts.push_back(packet_of(id));
  pipeline_config cfg;
  cfg.sharding.window_size = kWindow;
  cfg.sharding.counters = counters;
  cfg.sharding.tau = tau;
  cfg.sharding.seed = 1;
  cfg.sharding.shards = shards;
  pipeline<> pipe(cfg);
  pipe.start();

  // Mpps is computed against WALL time accumulated by hand: the kIsRate
  // counter divides by the main thread's CPU time, which misstates a
  // pipeline whose work happens on N worker threads.
  double elapsed = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < pkts.size(); i += kBurst) {
      pipe.process(pkts.data() + i, std::min(kBurst, pkts.size() - i));
    }
    pipe.drain();
    elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    benchmark::DoNotOptimize(pipe.frontend().stream_length());
  }
  pipe.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
  state.counters["Mpps"] =
      static_cast<double>(state.iterations()) * static_cast<double>(ids.size()) / 1e6 / elapsed;
  state.SetLabel(std::string(trace_name(kind)) + "/k=" + std::to_string(counters) +
                 "/tau=1/" + std::to_string(state.range(2)) + "/burst=" + std::to_string(kBurst) +
                 "/shards=" + std::to_string(shards));
}

// Skew-aware rebalancing row (args: alpha_x10): a Zipf(alpha) background
// with three injected elephant flows (25% of traffic combined) that static
// hashing piles onto ONE of 4 shards. Each iteration builds the skewed
// deployment, forks a static-hashing control arm, rebalances the other arm
// (coverage_rebalancer through the snapshot reshard path - the measured
// rebalance_ms), then streams a second phase into both arms and scores
// them: realized max/min shard load ratio, window_coverage() spread, and
// heavy-hitter recall against an exact window oracle. Mpps is the
// rebalanced arm's phase-2 update throughput (the weighted table's routing
// cost rides in it). summarize.py folds these rows - with the static
// counters alongside - into BENCH_fig5.json's `rebalance` section: the
// recall/coverage-recovered-versus-static record.
void hh_speed_rebalanced(benchmark::State& state) {
  const double alpha = static_cast<double>(state.range(0)) / 10.0;
  constexpr std::uint64_t kRebalWindow = 250'000;
  constexpr std::size_t kShards = 4;
  constexpr double kTheta = 0.01;

  shard_config cfg;
  cfg.window_size = kRebalWindow;
  cfg.counters = 512;
  cfg.tau = 1.0;
  cfg.seed = 1;
  cfg.shards = kShards;

  // Three elephants, all hashed onto shard 0, each in its own bucket (a
  // separately movable unit). 25% of the stream combined: the overloaded
  // shard carries ~0.25 + 0.75/4 ~ 44% of the update load.
  const shard_partitioner<std::uint64_t> probe(kShards);
  std::vector<std::uint64_t> elephants;
  std::vector<std::size_t> taken;
  for (std::uint64_t x = 1u << 20; elephants.size() < 3; ++x) {
    if (probe(x) != 0) continue;
    const std::size_t b = probe.bucket_of(x);
    if (std::find(taken.begin(), taken.end(), b) != taken.end()) continue;
    elephants.push_back(x);
    taken.push_back(b);
  }
  const auto make_mix = [&](std::size_t n, std::uint64_t seed) {
    trace_generator gen(trace_config{1u << 14, alpha, seed, 0});
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(i % 4 == 0 ? elephants[(i / 4) % elephants.size()]
                               : flow_id(gen.next()));
    }
    return ids;
  };
  const auto phase_a = make_mix(600'000, 7);
  const auto phase_b = make_mix(400'000, 8);
  exact_window<std::uint64_t> oracle(kRebalWindow);
  for (const auto id : phase_b) oracle.add(id);
  std::vector<std::uint64_t> truth;
  oracle.for_each([&](const std::uint64_t& key, std::uint64_t count) {
    if (static_cast<double>(count) >= kTheta * static_cast<double>(kRebalWindow)) {
      truth.push_back(key);
    }
  });

  // Scoring shared with tests/rebalance_test.cpp: shard_load_ratio and
  // coverage_spread come from shard/rebalance.hpp, so the CI-asserted
  // artifact and the acceptance test measure the same thing (including the
  // starved-shard = +infinity convention, guarded below before JSON).
  const auto recall = [&](const sharded_memento<std::uint64_t>& f) {
    const auto found = f.heavy_hitters(kTheta);
    std::size_t hit = 0;
    for (const auto& key : truth) {
      if (std::any_of(found.begin(), found.end(),
                      [&](const auto& hh) { return hh.key == key; })) {
        ++hit;
      }
    }
    return truth.empty() ? 1.0
                         : static_cast<double>(hit) / static_cast<double>(truth.size());
  };
  const auto stream_base = [](const sharded_memento<std::uint64_t>& f) {
    std::vector<std::uint64_t> base;
    for (std::size_t s = 0; s < f.num_shards(); ++s) {
      base.push_back(f.shard(s).stream_length());
    }
    return base;
  };

  const coverage_rebalancer policy;
  double elapsed_static = 0.0, elapsed_rebalanced = 0.0, rebalance_seconds = 0.0;
  double r_static = 0.0, r_rebalanced = 0.0, s_static = 0.0, s_rebalanced = 0.0;
  double rec_static = 0.0, rec_rebalanced = 0.0;
  using clock = std::chrono::steady_clock;
  for (auto _ : state) {
    sharded_memento<std::uint64_t> front(cfg);
    for (std::size_t i = 0; i < phase_a.size(); i += kBurst) {
      front.update_batch(phase_a.data() + i, std::min(kBurst, phase_a.size() - i));
    }
    sharded_memento<std::uint64_t> static_front = front;

    const auto t0 = clock::now();
    const bool moved = front.rebalance(policy);
    rebalance_seconds += std::chrono::duration<double>(clock::now() - t0).count();
    if (!moved) {
      state.SkipWithError("rebalance did not trigger on the elephant mix");
      break;
    }

    const auto base_static = stream_base(static_front);
    const auto base_rebalanced = stream_base(front);
    const auto t1 = clock::now();
    for (std::size_t i = 0; i < phase_b.size(); i += kBurst) {
      static_front.update_batch(phase_b.data() + i, std::min(kBurst, phase_b.size() - i));
    }
    const auto t2 = clock::now();
    for (std::size_t i = 0; i < phase_b.size(); i += kBurst) {
      front.update_batch(phase_b.data() + i, std::min(kBurst, phase_b.size() - i));
    }
    const auto t3 = clock::now();
    elapsed_static += std::chrono::duration<double>(t2 - t1).count();
    elapsed_rebalanced += std::chrono::duration<double>(t3 - t2).count();

    r_static = shard_load_ratio(static_front, base_static);
    r_rebalanced = shard_load_ratio(front, base_rebalanced);
    s_static = coverage_spread(static_front);
    s_rebalanced = coverage_spread(front);
    rec_static = recall(static_front);
    rec_rebalanced = recall(front);
    // A starved shard scores +infinity, which must fail the run loudly -
    // not reach the JSON artifact (where it would break the parser) or be
    // mistaken for balance.
    if (!std::isfinite(r_static) || !std::isfinite(r_rebalanced)) {
      state.SkipWithError("a shard received no phase-2 packets");
      break;
    }
    benchmark::DoNotOptimize(front.candidate_count());
  }

  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(iters) *
                          static_cast<std::int64_t>(phase_b.size()));
  state.counters["Mpps"] = iters * static_cast<double>(phase_b.size()) / 1e6 /
                           (elapsed_rebalanced > 0.0 ? elapsed_rebalanced : 1.0);
  state.counters["static_mpps"] = iters * static_cast<double>(phase_b.size()) / 1e6 /
                                  (elapsed_static > 0.0 ? elapsed_static : 1.0);
  state.counters["rebalance_ms"] = 1e3 * rebalance_seconds / iters;
  state.counters["static_load_ratio"] = r_static;
  state.counters["rebalanced_load_ratio"] = r_rebalanced;
  state.counters["static_coverage_spread"] = s_static;
  state.counters["rebalanced_coverage_spread"] = s_rebalanced;
  state.counters["static_recall"] = rec_static;
  state.counters["rebalanced_recall"] = rec_rebalanced;
  state.SetLabel("elephant-zipf/alpha=" + std::to_string(state.range(0)) +
                 "e-1/k=512/shards=4/theta=0.01");
}

void register_all() {
  for (int kind = 0; kind < 3; ++kind) {
    for (std::int64_t counters : {64, 512, 4096}) {
      for (std::int64_t inv_tau : {1, 4, 16, 64, 256, 1024}) {
        benchmark::RegisterBenchmark("fig5/hh_speed", hh_speed)
            ->Args({kind, counters, inv_tau})
            ->MinTime(0.1)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark("fig5/hh_speed_batch", hh_speed_batch)
            ->Args({kind, counters, inv_tau})
            ->MinTime(0.1)
            ->Unit(benchmark::kMillisecond);
      }
    }
    // Core-scaling sweep at the paper's middle counter budget; thread
    // startup sits outside the measured loop, queue drain inside it.
    for (std::int64_t inv_tau : {1, 16, 256}) {
      for (std::int64_t shards : {1, 2, 4, 8}) {
        benchmark::RegisterBenchmark("fig5/hh_speed_sharded", hh_speed_sharded)
            ->Args({kind, 512, inv_tau, shards})
            ->MinTime(0.1)
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime();  // wall clock, not per-thread CPU, for scaling
      }
    }
  }
  // Skew-aware rebalancing: Zipf 0.6-1.2 elephant mixes, static hashing vs
  // the rebalanced weighted table (recall/coverage/load-balance recovered).
  for (std::int64_t alpha_x10 : {6, 9, 12}) {
    benchmark::RegisterBenchmark("fig5/hh_speed_rebalanced", hh_speed_rebalanced)
        ->Args({alpha_x10})
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  // Provenance context for summarize.py. `memento_build_type` reflects THIS
  // binary's codegen (bench targets pin -O3 -DNDEBUG regardless of the
  // CMake build type), unlike gbench's `library_build_type`, which reports
  // how the distro built libbenchmark.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("memento_build_type", "release");
#else
  benchmark::AddCustomContext("memento_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
