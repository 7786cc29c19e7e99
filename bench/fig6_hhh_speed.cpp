// Figure 6: H-Memento update speed vs. the Baseline (MST over WCSS) on the
// backbone surrogate, in one dimension (H=5) and two (H=25), for counter
// budgets 64H / 512H / 4096H.
//
// Expected shape (paper): tau dominates; H-Memento reaches up to ~52x (1D)
// and ~273x (2D) over the Baseline, because the Baseline pays H Full updates
// per packet while H-Memento pays at most one.
//
// `fig6/h_memento_*_batch` replays the same stream through
// h_memento::update_batch in NIC-burst spans; state is identical to the
// scalar series, the delta is the batched ingest mechanics.
//
// `fig6/h_memento_(1d|2d)_output/<k>` times the operator's poll instead:
// one output(theta) on a sketch of k counters filled with 2.5 windows of
// the datacenter trace (W = 2^18, tau = 1/4, theta = 0.15), reported as
// `output_ms`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/baseline_window_mst.hpp"
#include "core/h_memento.hpp"
#include "shard/sharded_h_memento.hpp"
#include "trace/trace_generator.hpp"
#include "util/simd.hpp"

namespace {

using namespace memento;

constexpr std::size_t kTracePackets = 1'000'000;
constexpr std::uint64_t kWindow = 1'000'000;

const std::vector<packet>& bench_trace() {
  static const std::vector<packet> trace = make_trace(trace_kind::backbone, kTracePackets, 42);
  return trace;
}

template <typename H>
void hhh_memento_speed(benchmark::State& state) {
  const auto counters_per_h = static_cast<std::size_t>(state.range(0));
  const double tau = 1.0 / static_cast<double>(state.range(1));
  h_memento<H> alg(kWindow, counters_per_h * H::hierarchy_size, tau, 1e-3, /*seed=*/1);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (const auto& p : trace) alg.update(p);
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

template <typename H>
void hhh_memento_speed_batch(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  const auto counters_per_h = static_cast<std::size_t>(state.range(0));
  const double tau = 1.0 / static_cast<double>(state.range(1));
  h_memento<H> alg(kWindow, counters_per_h * H::hierarchy_size, tau, 1e-3, /*seed=*/1);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (std::size_t i = 0; i < trace.size(); i += kBurst) {
      alg.update_batch(trace.data() + i, std::min(kBurst, trace.size() - i));
    }
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

/// Prefix-sharded frontend, single-threaded: the routing + per-shard batch
/// cost relative to one big instance (the shards split the same global
/// counter/window budget, so memory is held constant across the sweep).
template <typename H>
void hhh_memento_speed_sharded(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  const auto counters_per_h = static_cast<std::size_t>(state.range(0));
  const double tau = 1.0 / static_cast<double>(state.range(1));
  const auto shards = static_cast<std::size_t>(state.range(2));
  const h_memento_config cfg{kWindow, counters_per_h * H::hierarchy_size, tau, 1e-3, /*seed=*/1};
  sharded_h_memento<H> alg(hhh_shard_config{cfg, shards});
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (std::size_t i = 0; i < trace.size(); i += kBurst) {
      alg.update_batch(trace.data() + i, std::min(kBurst, trace.size() - i));
    }
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

/// Time per HHH output(theta), in the poll geometry of a 2-D operator loop.
template <typename H>
void hhh_memento_output(benchmark::State& state) {
  constexpr double kTheta = 0.15;
  // 2.5 windows: the poll lands mid-frame, where Space-Saving holds a
  // frame's worth of candidates next to the overflow table (at a frame
  // boundary the in-frame counters have just been flushed).
  static const std::vector<packet> trace =
      make_trace(trace_kind::datacenter, std::size_t{5} << 17, 1);
  const auto counters = static_cast<std::size_t>(state.range(0));
  h_memento<H> alg(std::uint64_t{1} << 18, counters, 0.25, 1e-3, /*seed=*/1);
  alg.update_batch(trace.data(), trace.size());
  std::size_t admitted = 0;
  for (auto _ : state) {
    const auto result = alg.output(kTheta);
    admitted = result.size();
    benchmark::DoNotOptimize(result.data());
  }
  // seconds / (iterations / 1e3) = milliseconds per output.
  state.counters["output_ms"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e3,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["candidates"] = static_cast<double>(alg.inner().monitored_keys().size());
  state.counters["admitted"] = static_cast<double>(admitted);
}

template <typename H>
void hhh_baseline_speed(benchmark::State& state) {
  const auto counters_per_h = static_cast<std::size_t>(state.range(0));
  baseline_window_mst<H> alg(kWindow, counters_per_h * H::hierarchy_size);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (const auto& p : trace) alg.update(p);
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

void register_all() {
  benchmark::RegisterBenchmark("fig6/h_memento_1d_output", hhh_memento_output<source_hierarchy>)
      ->Arg(4096)
      ->MinTime(0.1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fig6/h_memento_2d_output", hhh_memento_output<two_dim_hierarchy>)
      ->Arg(4096)
      ->MinTime(0.1)
      ->Unit(benchmark::kMillisecond);
  for (std::int64_t counters : {64, 512, 4096}) {
    for (std::int64_t inv_tau : {1, 8, 64, 512}) {
      benchmark::RegisterBenchmark("fig6/h_memento_1d", hhh_memento_speed<source_hierarchy>)
          ->Args({counters, inv_tau})
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("fig6/h_memento_2d", hhh_memento_speed<two_dim_hierarchy>)
          ->Args({counters, inv_tau})
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("fig6/h_memento_1d_batch",
                                   hhh_memento_speed_batch<source_hierarchy>)
          ->Args({counters, inv_tau})
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark("fig6/h_memento_2d_batch",
                                   hhh_memento_speed_batch<two_dim_hierarchy>)
          ->Args({counters, inv_tau})
          ->MinTime(0.1)
          ->Unit(benchmark::kMillisecond);
    }
    for (std::int64_t inv_tau : {1, 64}) {
      for (std::int64_t shards : {2, 4, 8}) {
        benchmark::RegisterBenchmark("fig6/h_memento_1d_sharded",
                                     hhh_memento_speed_sharded<source_hierarchy>)
            ->Args({counters, inv_tau, shards})
            ->MinTime(0.1)
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark("fig6/h_memento_2d_sharded",
                                     hhh_memento_speed_sharded<two_dim_hierarchy>)
            ->Args({counters, inv_tau, shards})
            ->MinTime(0.1)
            ->Unit(benchmark::kMillisecond);
      }
    }
    benchmark::RegisterBenchmark("fig6/baseline_1d", hhh_baseline_speed<source_hierarchy>)
        ->Args({counters})
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig6/baseline_2d", hhh_baseline_speed<two_dim_hierarchy>)
        ->Args({counters})
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  // Provenance context for summarize.py --hhh (same convention as fig5):
  // this binary's actual codegen and the kernel tier the run dispatched to.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("memento_build_type", "release");
#else
  benchmark::AddCustomContext("memento_build_type", "debug");
#endif
  benchmark::AddCustomContext("memento_simd_dispatch",
                              memento::simd::tier_name(memento::simd::active()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
