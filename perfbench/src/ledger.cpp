// The traced run: per-layer costs from spans the benchmark records around
// its own calls into each layer, reconciled against the end-to-end path.
//
// Every layer is driven on every workload's packets, so each per-layer
// metric exists on each workload; the workload decides only which of them
// lie on its end-to-end path (BENCHMARK.json lists them per workload).
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "hierarchy/prefix1d.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/space_saving.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

using memento::packet;

namespace {

/// Keeps the optimizer from dropping work whose result is otherwise unused.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Median over `reps` runs of `fn`, in nanoseconds.
template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    fn();
    t.push_back(seconds_since(t0) * 1e9);
  }
  return median(t);
}

/// The workload's own path, untraced and traced in alternation; returns the
/// first traced pass and reports trace.overhead_share (fastest traced
/// against fastest untraced ingest) and host.calib_rate.
template <typename Pass, typename RunPass>
Pass path_with_overhead(const run_args& args, checks& chk, report& out, RunPass&& run_pass) {
  std::vector<pass_times> plain, traced_passes;
  std::vector<std::uint8_t> plain_image;
  Pass traced_first;
  double rate = 0.0;
  repeat_for(args.seconds * 0.5, 3, 200, [&](std::size_t n) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == (n % 2 == 1);  // alternate which goes first
      Pass p = run_pass(traced);
      (traced ? traced_passes : plain).push_back(p);
      rate = std::max(rate, p.calib_rate);
      if (!traced && plain_image.empty()) plain_image = p.image;
      if (traced && traced_first.image.empty()) traced_first = std::move(p);
    }
  });
  chk.expect(traced_first.image == plain_image,
             "traced run leaves the state byte-identical to the untraced run");
  out.layer("trace.overhead_share",
            1.0 - fastest_ingest_s(plain) / fastest_ingest_s(traced_passes), "share");
  out.layer("host.calib_rate", rate, "1/s");
  return traced_first;
}

}  // namespace

void run_ledger(const run_args& args, const flat_spec& flat, const hhh_spec& hhh, bool hhh_path,
                const trace_input& in, calibrator& cal, checks& chk, report& out) {
  const std::span<const packet> trace(in.packets);
  const std::size_t n_pkts = trace.size();
  const double n = static_cast<double>(n_pkts);
  const auto& sharding = flat.config.sharding;

  // --- the path, and the inline pipeline the ledger reconciles against ----
  flat_spec inline_spec = flat;
  inline_spec.push = false;
  std::unordered_map<std::uint64_t, double> shares;  // detect-stage input, shard 0
  const auto keep_shares = [&](const flat_frontend& front) {
    const auto& shard = front.shard(0);
    const double window = static_cast<double>(shard.window_size());
    shard.for_each_candidate([&](const std::uint64_t& key, double est) {
      shares[memento::prefix1d::make_key(static_cast<std::uint32_t>(key >> 32), 3)] +=
          est / window;
    });
  };
  hhh_pass hpass;
  if (hhh_path) {
    hpass = path_with_overhead<hhh_pass>(args, chk, out, [&](bool traced) {
      return run_hhh_pass(hhh, trace, cal, chk, traced);
    });
  } else {
    path_with_overhead<flat_pass>(args, chk, out, [&](bool traced) {
      return run_flat_pass(flat, trace, cal, chk, traced);
    });
    hpass = run_hhh_pass(hhh, trace, cal, chk, true);
  }
  const flat_pass inline_pass = run_flat_pass(inline_spec, trace, cal, chk, true, keep_shares);
  const double process_ns = sum(inline_pass.burst_ns) / n;
  out.layer("pipeline.process_ns_per_pkt", process_ns, "ns");
  out.layer("pipeline.detect_sweeps", static_cast<double>(inline_pass.detect_sweeps), "count");
  out.layer("pipeline.mitigated", static_cast<double>(inline_pass.total.mitigated), "count");
  out.layer("lb.active_rules", static_cast<double>(inline_pass.total.active_rules), "count");

  // --- shard: partition (route stage) and the threaded push front door ----
  std::vector<std::uint64_t> keys(n_pkts);
  for (std::size_t i = 0; i < n_pkts; ++i) keys[i] = key_of(flat, trace[i]);
  memento::shard_partitioner<std::uint64_t> part(sharding.shards);
  std::vector<std::vector<std::uint64_t>> scratch(sharding.shards);
  std::vector<std::size_t> load(sharding.shards, 0);
  const double partition_ns = median_ns(5, [&] {
    std::fill(load.begin(), load.end(), 0);
    for (std::size_t at = 0; at < n_pkts; at += flat.burst) {
      const std::size_t m = std::min(flat.burst, n_pkts - at);
      memento::partition_into(scratch, part, keys.data() + at, m);
      for (std::size_t s = 0; s < scratch.size(); ++s) load[s] += scratch[s].size();
    }
  }) / n;
  out.layer("shard.partition_ns_per_pkt", partition_ns, "ns");
  const double mean_load = n / static_cast<double>(sharding.shards);
  out.layer("shard.load_ratio",
            static_cast<double>(*std::max_element(load.begin(), load.end())) / mean_load, "ratio");

  flat_spec push_spec = flat;
  push_spec.push = true;
  push_spec.config.sharding.shards = 2;
  const bool can_push = std::thread::hardware_concurrency() >= 3;
  out.note("push_rung", std::string(can_push ? "measured" : "skipped: fewer than 3 CPUs"));
  flat_pass push;
  if (can_push) push = run_flat_pass(push_spec, trace, cal, chk, true);
  out.layer("shard.offer_ns_per_pkt", sum(push.burst_ns) / n, "ns");
  out.layer("shard.producer_busy_share",
            push.ingest_s > 0 ? sum(push.burst_ns) * 1e-9 / push.ingest_s : 0.0, "share");
  out.layer("shard.ring_hwm", static_cast<double>(push.total.occupancy_hwm), "count");
  out.layer("shard.drops", static_cast<double>(push.total.drops), "count");
  out.layer("pipeline.drain_ms", push.drain_ms, "ms");
  out.layer("pipeline.worker_burst_p50_us", static_cast<double>(push.total.latency.p50()) / 1e3,
            "us");
  out.layer("pipeline.worker_burst_p99_us", static_cast<double>(push.total.latency.p99()) / 1e3,
            "us");

  // --- util: the sampler's decision fill ----------------------------------
  std::unique_ptr<bool[]> decided(new bool[n_pkts]);
  std::vector<double> fills;
  for (int r = 0; r < 5; ++r) {
    memento::random_table_sampler sampler(sharding.tau, 1u << 16, sharding.seed);
    const auto t0 = clock_type::now();
    for (std::size_t at = 0; at < n_pkts; at += 256) {
      sampler.fill(decided.get() + at, std::min<std::size_t>(256, n_pkts - at));
    }
    fills.push_back(seconds_since(t0) * 1e9 / n);
  }
  const std::uint64_t sampled =
      static_cast<std::uint64_t>(std::count(decided.get(), decided.get() + n_pkts, true));
  out.layer("util.sampler_fill_ns_per_pkt", median(fills), "ns");
  out.layer("core.sampled_share", static_cast<double>(sampled) / n, "share");

  // --- core: a standalone sharded frontend fed the pre-steered slices -----
  std::vector<std::vector<std::uint64_t>> slices(sharding.shards);
  for (const std::uint64_t k : keys) slices[part(k)].push_back(k);
  memento::flat_hash_stats counter{}, overflow{};
  const double update_ns = median_ns(3, [&] {
    memento::sharded_memento<std::uint64_t> front(sharding);
    for (std::size_t s = 0; s < slices.size(); ++s) {
      auto& shard = front.shard_mut(s);
      for (std::size_t at = 0; at < slices[s].size(); at += 256) {
        shard.update_batch(slices[s].data() + at, std::min<std::size_t>(256, slices[s].size() - at));
      }
    }
    counter = {};
    overflow = {};
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const auto c = front.shard(s).counter_index_stats();
      const auto o = front.shard(s).overflow_table_stats();
      counter.mean_probe += c.mean_probe / static_cast<double>(slices.size());
      overflow.mean_probe += o.mean_probe / static_cast<double>(slices.size());
      overflow.load_factor += o.load_factor / static_cast<double>(slices.size());
    }
  }) / n;
  out.layer("core.update_batch_ns_per_pkt", update_ns, "ns");
  out.layer("util.counter_probe_mean", counter.mean_probe, "slots");
  out.layer("util.overflow_load", overflow.load_factor, "share");
  out.layer("util.overflow_probe_mean", overflow.mean_probe, "slots");

  // --- sketch: Space-Saving add_batch over the keys a shard would count ---
  std::vector<std::uint64_t> counted;
  for (std::size_t i = 0; i < n_pkts; ++i) {
    if (decided[i]) counted.push_back(keys[i]);
  }
  const std::size_t per_shard = (sharding.counters + sharding.shards - 1) / sharding.shards;
  const double ss_ns = median_ns(3, [&] {
    memento::space_saving<std::uint64_t> ss(per_shard);
    for (std::size_t at = 0; at < counted.size(); at += 256) {
      ss.add_batch(counted.data() + at, std::min<std::size_t>(256, counted.size() - at));
    }
  }) / static_cast<double>(std::max<std::size_t>(1, counted.size()));
  out.layer("sketch.ss_add_ns_per_key", ss_ns, "ns");

  // --- lb: one mitigation evaluation over a detect sweep's shares ---------
  const double evaluate_ns = median_ns(101, [&] {
    memento::lb::mitigation_policy policy(flat.config.mitigation);
    const auto decisions = policy.evaluate(shares);
    keep(decisions);
  });
  out.layer("lb.evaluate_us", evaluate_ns / 1e3, "us");
  flood_accounting acct;
  if (!in.attack.empty() && flat.config.enforce) acct = account_flood(inline_spec, in, chk);
  out.layer("lb.collateral_share", acct.collateral_share(), "share");
  out.layer("lb.undetected_pct", acct.undetected_pct(), "%");

  // --- hierarchy ----------------------------------------------------------
  out.layer("hierarchy.update_ns_per_pkt", sum(hpass.burst_ns) / n, "ns");
  {
    constexpr std::size_t kChunk = 256;
    std::uint32_t idx[kChunk];
    for (std::size_t j = 0; j < kChunk; ++j) idx[j] = static_cast<std::uint32_t>(j);
    std::vector<std::uint8_t> levels(n_pkts);
    memento::xoshiro256 rng(args.seed);
    rng.fill_bounded_u8(levels.data(), n_pkts, memento::two_dim_hierarchy::hierarchy_size);
    std::vector<memento::prefix2d> prefixes(kChunk);
    const double mat_ns = median_ns(3, [&] {
      for (std::size_t at = 0; at + kChunk <= n_pkts; at += kChunk) {
        memento::two_dim_hierarchy::materialize_keys(trace.data() + at, idx, levels.data() + at,
                                                     prefixes.data(), kChunk);
        keep(prefixes.front());
      }
    }) / static_cast<double>(n_pkts / kChunk * kChunk);
    out.layer("hierarchy.materialize_ns_per_key", mat_ns, "ns");
  }
  out.layer("hierarchy.output_ms", hpass.query_ms(), "ms");
  out.layer("hierarchy.candidates", static_cast<double>(hpass.candidates), "count");
  out.layer("hierarchy.hhh_count",
            hpass.hhh_counts.empty() ? 0.0 : static_cast<double>(hpass.hhh_counts.back()), "count");

  // --- snapshot: the path's final state ------------------------------------
  const pass_times& snap = hhh_path ? static_cast<const pass_times&>(hpass) : inline_pass;
  const double bytes = static_cast<double>(hhh_path ? hpass.image.size() : inline_pass.image.size());
  out.layer("snapshot.save_ms", snap.checkpoint_ms(), "ms");
  out.layer("snapshot.restore_ms", snap.restore_ms(), "ms");
  out.layer("snapshot.bytes", bytes, "bytes");
  out.layer("snapshot.restore_mbps", bytes / (snap.restore_ms() * 1e-3) / 1e6, "MB/s");

  // --- the ledger: standalone layers against the inline pipeline ----------
  const double detect_ns = static_cast<double>(inline_pass.detect_sweeps) * evaluate_ns / n;
  out.layer("ledger.residual_share", 1.0 - (partition_ns + update_ns + detect_ns) / process_ns,
            "share");
  out.layer("bench.tracegen_s", in.tracegen_s, "s");
}

}  // namespace perfbench
