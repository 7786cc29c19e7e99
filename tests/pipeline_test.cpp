// Run-to-completion pipeline suite (src/pipeline/pipeline.hpp).
//
// The load-bearing property is again differential: the pipeline in
// deterministic mode must leave the frontend BIT-IDENTICAL (save() bytes)
// to a plain sharded_memento fed the same packets' flow keys - the stage
// refactor moved code, not semantics - and the threaded push mode must
// land in the same place after drain(). Detection in observe mode is
// read-only on the sketch, so turning it on must not perturb either
// identity; enforce mode is where mitigation becomes visible, and its
// effect (blocked subnets stop reaching the sketch) is pinned directly.
//
// Backpressure invariants ride along: every offered packet is accounted
// exactly once (enqueued xor dropped), block never drops, the occupancy
// high-water mark is monotone and capacity-bounded. The stress test at the
// bottom runs ingest + drain + rebalance concurrently and exists chiefly
// for the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_memento.hpp"
#include "trace/packet_ring.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace memento {
namespace {

std::vector<std::uint8_t> frontend_bytes(const sharded_memento<std::uint64_t>& f) {
  wire::writer w;
  f.save(w);
  return w.data();
}

std::vector<std::uint64_t> keys_of(const std::vector<packet>& pkts) {
  std::vector<std::uint64_t> keys;
  keys.reserve(pkts.size());
  for (const auto& p : pkts) keys.push_back(flow_id(p));
  return keys;
}

pipeline_config small_config(std::size_t cores, std::uint64_t detect_stride = 0) {
  pipeline_config cfg;
  cfg.sharding.window_size = 1u << 14;
  cfg.sharding.counters = 256;
  cfg.sharding.seed = 7;
  cfg.sharding.shards = cores;
  cfg.detect_stride = detect_stride;
  return cfg;
}

/// A trace where one /8 source subnet carries `flood_per_mille`/1000 of the
/// packets across a handful of flows - heavy enough that every shard's
/// candidate set sees the subnet far above the block threshold.
std::vector<packet> flood_trace(std::size_t n, std::uint32_t subnet_byte,
                                unsigned flood_per_mille) {
  std::vector<packet> pkts;
  pkts.reserve(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;  // xorshift: deterministic, seed-free variety
    packet p;
    if (x % 1000 < flood_per_mille) {
      p.src = (subnet_byte << 24) | static_cast<std::uint32_t>(x % 16);  // 16 flood flows
      p.dst = 0x0A000001u;
    } else {
      p.src = static_cast<std::uint32_t>(x >> 32) | 0x40000000u;  // spread background
      p.dst = static_cast<std::uint32_t>(x);
      if ((p.src >> 24) == subnet_byte) p.src ^= 0x01000000u;  // keep it out of the flood /8
    }
    pkts.push_back(p);
  }
  return pkts;
}

// --- deterministic mode: the refactor moved code, not semantics -------------

TEST(PipelineDeterministic, BitIdenticalToShardedFrontend) {
  for (const std::size_t cores : {std::size_t{1}, std::size_t{4}}) {
    // Detection ON (observe mode) on one of the two geometries: sweeps are
    // read-only on the sketch, so the identity must survive them.
    const auto cfg = small_config(cores, cores == 4 ? 1000 : 0);
    pipeline<> pipe(cfg);

    const auto trace = make_trace(trace_kind::backbone, 60'000, 11);
    // Deliver in coprime-sized bursts so burst boundaries land everywhere.
    for (std::size_t at = 0; at < trace.size(); at += 997) {
      const std::size_t n = std::min<std::size_t>(997, trace.size() - at);
      pipe.process(trace.data() + at, n);
    }

    sharded_memento<std::uint64_t> reference(cfg.sharding);
    const auto keys = keys_of(trace);
    reference.update_batch(keys.data(), keys.size());

    EXPECT_EQ(frontend_bytes(pipe.frontend()), frontend_bytes(reference))
        << "cores=" << cores;
    const auto total = pipe.report();
    EXPECT_EQ(total.ingested, trace.size());
    EXPECT_EQ(total.mitigated, 0u);  // observe mode never drops
    EXPECT_EQ(total.drops, 0u);      // no rings involved in deterministic mode
    if (cores == 4) {
      EXPECT_GT(pipe.report(0).detect_sweeps, 0u);
    }
  }
}

TEST(PipelineDeterministic, PerCoreAccountingSumsToOffered) {
  pipeline<> pipe(small_config(3));
  const auto trace = make_trace(trace_kind::datacenter, 30'000, 5);
  pipe.process(trace.data(), trace.size());
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < pipe.cores(); ++c) {
    const auto r = pipe.report(c);
    EXPECT_EQ(r.ingested, pipe.frontend().shard(c).stream_length());
    sum += r.ingested;
  }
  EXPECT_EQ(sum, trace.size());
}

// --- threaded push mode ------------------------------------------------------

TEST(PipelinePush, DrainedStateMatchesDeterministic) {
  const auto cfg = small_config(4, 1000);  // observe-mode detection on
  pipeline<> threaded(cfg);
  threaded.start();
  const auto trace = make_trace(trace_kind::backbone, 60'000, 11);
  for (std::size_t at = 0; at < trace.size(); at += 1009) {
    const std::size_t n = std::min<std::size_t>(1009, trace.size() - at);
    threaded.process(trace.data() + at, n);
  }
  threaded.drain();

  sharded_memento<std::uint64_t> reference(cfg.sharding);
  const auto keys = keys_of(trace);
  reference.update_batch(keys.data(), keys.size());
  EXPECT_EQ(frontend_bytes(threaded.frontend()), frontend_bytes(reference));

  // Block policy: lossless, and the consumer-side counters agree with the
  // producer-side ring accounting once drained.
  std::uint64_t ingested = 0;
  for (std::size_t c = 0; c < threaded.cores(); ++c) {
    const auto r = threaded.report(c);
    EXPECT_EQ(r.rx.drops, 0u);
    EXPECT_EQ(r.ingested, r.rx.enqueued);
    EXPECT_LE(r.rx.occupancy_hwm, cfg.ring_capacity);
    ingested += r.ingested;
  }
  EXPECT_EQ(ingested, trace.size());
  threaded.stop();
}

TEST(PipelinePush, StopDrainsAndRestartResumes) {
  pipeline<> pipe(small_config(2));
  const auto trace = make_trace(trace_kind::edge, 20'000, 3);
  pipe.start();
  pipe.process(trace.data(), trace.size());
  pipe.stop();  // stop() doubles as a drain: enqueued bursts always finish
  EXPECT_EQ(pipe.report().ingested, trace.size());
  pipe.start();
  pipe.process(trace.data(), trace.size());
  pipe.drain();
  EXPECT_EQ(pipe.report().ingested, 2 * trace.size());
  pipe.stop();
}

// --- backpressure accounting -------------------------------------------------

TEST(PipelineBackpressure, DropPolicyCountsEveryPacketExactlyOnce) {
  auto cfg = small_config(2);
  cfg.ring_capacity = 64;
  cfg.policy = backpressure_policy::drop;
  pipeline<> pipe(cfg);

  // No workers: each ring accepts at most its capacity, the rest MUST be
  // counted as drops - the exactly-once identity with a deterministic
  // shortfall.
  const auto trace = make_trace(trace_kind::backbone, 10'000, 19);
  std::vector<std::vector<packet>> steered =
      rss_steer(std::span<const packet>(trace), pipe.cores(),
                [&](const packet& p) { return pipe.core_of(p); });
  pipe.start();
  std::uint64_t offered = 0;
  for (std::size_t c = 0; c < pipe.cores(); ++c) {
    offered += steered[c].size();
    pipe.offer(c, std::span<const packet>(steered[c]));
  }
  pipe.drain();
  std::uint64_t enqueued = 0, drops = 0, ingested = 0;
  for (std::size_t c = 0; c < pipe.cores(); ++c) {
    const auto r = pipe.report(c);
    enqueued += r.rx.enqueued;
    drops += r.rx.drops;
    ingested += r.ingested;
  }
  EXPECT_EQ(enqueued + drops, offered);  // exactly once, no double counting
  EXPECT_EQ(ingested, enqueued);         // what was accepted was processed
  EXPECT_EQ(pipe.report().drops, drops);
  pipe.stop();
}

TEST(PipelineBackpressure, BlockPolicyNeverDropsEvenWithTinyRings) {
  auto cfg = small_config(2);
  cfg.ring_capacity = 64;  // far smaller than the bursts: forces waiting
  pipeline<> pipe(cfg);
  pipe.start();
  const auto trace = make_trace(trace_kind::backbone, 50'000, 23);
  for (std::size_t at = 0; at < trace.size(); at += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, trace.size() - at);
    pipe.process(trace.data() + at, n);
  }
  pipe.drain();
  const auto total = pipe.report();
  EXPECT_EQ(total.drops, 0u);
  EXPECT_EQ(total.ingested, trace.size());
  EXPECT_LE(total.occupancy_hwm, 64u);
  EXPECT_GT(total.occupancy_hwm, 0u);
  pipe.stop();
}

TEST(PipelineBackpressure, OccupancyHighWaterMarkIsMonotone) {
  ring_stats stats;
  stats.note_occupancy(5);
  EXPECT_EQ(stats.occupancy_hwm, 5u);
  stats.note_occupancy(3);  // lower samples never regress the mark
  EXPECT_EQ(stats.occupancy_hwm, 5u);
  stats.note_occupancy(9);
  EXPECT_EQ(stats.occupancy_hwm, 9u);
}

// --- detect -> mitigate ------------------------------------------------------

TEST(PipelineDetect, EnforceBlocksAFloodingSubnetOnEveryCore) {
  auto cfg = small_config(2, /*detect_stride=*/2048);
  cfg.enforce = true;
  pipeline<> pipe(cfg);

  constexpr std::uint32_t kSubnet = 10;
  const auto trace = flood_trace(80'000, kSubnet, /*flood_per_mille=*/700);
  for (std::size_t at = 0; at < trace.size(); at += 1024) {
    const std::size_t n = std::min<std::size_t>(1024, trace.size() - at);
    pipe.process(trace.data() + at, n);
  }

  const auto total = pipe.report();
  EXPECT_GT(total.mitigated, 0u);
  EXPECT_GT(total.active_rules, 0u);
  for (std::size_t c = 0; c < pipe.cores(); ++c) {
    EXPECT_TRUE(pipe.blocks(c, kSubnet)) << "core " << c;
    EXPECT_GT(pipe.report(c).detect_sweeps, 0u);
  }
  // Enforcement is visible in the sketch: mitigated packets never reached
  // the update stage.
  EXPECT_EQ(pipe.frontend().stream_length() + total.mitigated, trace.size());
}

TEST(PipelineDetect, ObserveModeOnlyAccountsAndKeepsAllTraffic) {
  auto cfg = small_config(2, /*detect_stride=*/2048);
  cfg.enforce = false;
  pipeline<> pipe(cfg);
  const auto trace = flood_trace(40'000, 10, 700);
  pipe.process(trace.data(), trace.size());
  const auto total = pipe.report();
  EXPECT_EQ(total.mitigated, 0u);
  EXPECT_GT(total.active_rules, 0u);  // the policy still graded the flood
  EXPECT_EQ(pipe.frontend().stream_length(), trace.size());
}

/// Source-/8 keyed traits (the flood-detection measurement domain): every
/// packet of a /8 counts under one key, so a /8 lives on one core.
struct subnet_traits {
  using key_type = std::uint64_t;
  [[nodiscard]] static key_type key_of(const packet& p) noexcept {
    return std::uint64_t{p.src & 0xFF000000u} << 32;
  }
  [[nodiscard]] static std::uint32_t src_of(key_type key) noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }
};

/// Half the packets come from eight flooding /8s (each ~6% of traffic over
/// 16 flows, above the block threshold), half from background spread,
/// interleaved at random - the mix the parse-stage filter has to sort
/// without a pattern.
std::vector<packet> half_blocked_trace(std::size_t n) {
  std::vector<packet> pkts;
  pkts.reserve(n);
  xoshiro256 rng(0x5eed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = rng();
    packet p;
    if ((x & 1) != 0) {
      const auto subnet = static_cast<std::uint32_t>(20 + ((x >> 1) & 7));
      p.src = (subnet << 24) | static_cast<std::uint32_t>((x >> 4) & 15);
      p.dst = 0x0A000001u;
    } else {
      p.src = static_cast<std::uint32_t>(x >> 32) | 0x80000000u;  // /8s 128..255
      p.dst = static_cast<std::uint32_t>(x >> 8);
    }
    pkts.push_back(p);
  }
  return pkts;
}

/// Enforce mode drops exactly the packets whose core blocks their /8 when
/// the burst arrives (read through blocks() before each burst, the way an
/// external accountant would), and the survivors reach the sketch in order:
/// the frontend ends byte-identical to a plain sharded_memento fed only the
/// unblocked keys.
template <typename Traits>
void check_enforce_filter_accounting() {
  auto cfg = small_config(3, /*detect_stride=*/1024);
  cfg.enforce = true;
  cfg.mitigation = {0.04, 0.02, 0.01, 256};
  pipeline<Traits> pipe(cfg);
  sharded_memento<std::uint64_t> reference(cfg.sharding);

  const auto trace = half_blocked_trace(120'000);
  std::vector<std::uint64_t> predicted(pipe.cores(), 0);
  std::vector<std::uint64_t> kept;
  for (std::size_t at = 0; at < trace.size(); at += 512) {
    const std::size_t n = std::min<std::size_t>(512, trace.size() - at);
    kept.clear();
    for (std::size_t i = at; i < at + n; ++i) {
      const std::size_t core = pipe.core_of(trace[i]);
      if (pipe.blocks(core, trace[i].src >> 24)) {
        ++predicted[core];
      } else {
        kept.push_back(Traits::key_of(trace[i]));
      }
    }
    reference.update_batch(kept.data(), kept.size());
    pipe.process(trace.data() + at, n);
  }

  std::uint64_t mitigated = 0;
  for (std::size_t c = 0; c < pipe.cores(); ++c) {
    EXPECT_EQ(pipe.report(c).mitigated, predicted[c]) << "core " << c;
    mitigated += predicted[c];
  }
  // The flood /8s end up blocked, so a large share of the trace is dropped.
  EXPECT_GT(mitigated, trace.size() / 4);
  EXPECT_EQ(pipe.report().mitigated, mitigated);
  EXPECT_EQ(pipe.frontend().stream_length() + mitigated, trace.size());
  EXPECT_EQ(frontend_bytes(pipe.frontend()), frontend_bytes(reference));
}

TEST(PipelineDetect, EnforceFilterDropsExactlyTheBlockedPacketsFlowKeys) {
  check_enforce_filter_accounting<flow_key_traits>();
}

TEST(PipelineDetect, EnforceFilterDropsExactlyTheBlockedPacketsSubnetKeys) {
  check_enforce_filter_accounting<subnet_traits>();
}

// --- pull mode (the soak loop) -----------------------------------------------

TEST(PipelinePull, RunsToDeadlineAndTimesBursts) {
  pipeline<> pipe(small_config(2));
  const auto trace = make_trace(trace_kind::backbone, 20'000, 31);
  auto steered = rss_steer(std::span<const packet>(trace), pipe.cores(),
                           [&](const packet& p) { return pipe.core_of(p); });
  std::vector<packet_ring> sources;
  for (auto& s : steered) sources.emplace_back(std::move(s));

  const double elapsed = pipe.run_pull(std::span<packet_ring>(sources), 0.15, 128);
  EXPECT_GE(elapsed, 0.15);
  const auto total = pipe.report();
  EXPECT_GT(total.ingested, 0u);
  EXPECT_EQ(total.latency.count(), total.bursts);  // every burst was timed
  EXPECT_GT(total.latency.p99(), 0u);
  std::uint64_t offered = 0;
  for (const auto& s : sources) offered += s.offered();
  EXPECT_EQ(total.ingested, offered);  // pull mode consumes what it takes
  EXPECT_EQ(pipe.frontend().stream_length(), total.ingested);
}

TEST(PipelinePull, RejectsMismatchedSourcesAndRunningWorkers) {
  pipeline<> pipe(small_config(2));
  std::vector<packet_ring> one;
  one.emplace_back(std::vector<packet>{});
  EXPECT_THROW((void)pipe.run_pull(std::span<packet_ring>(one), 0.01),
               std::invalid_argument);
  pipe.start();
  std::vector<packet_ring> two;
  two.emplace_back(std::vector<packet>{});
  two.emplace_back(std::vector<packet>{});
  EXPECT_THROW((void)pipe.run_pull(std::span<packet_ring>(two), 0.01), std::logic_error);
  pipe.stop();
}

// --- concurrency stress (the TSan target) ------------------------------------

TEST(PipelineStress, ConcurrentIngestDrainAndRebalance) {
  auto cfg = small_config(4, /*detect_stride=*/4096);
  cfg.ring_capacity = 1u << 10;
  pipeline<> pipe(cfg);
  pipe.start();

  // Skewed traffic so the rebalancer has something to move; interleave
  // deliveries with drain barriers and live rebalances from the producer
  // thread - the full front-door lifecycle under one TSan run.
  trace_generator gen(trace_config::preset(trace_kind::backbone, 97));
  const coverage_rebalancer policy{};
  std::vector<packet> burst(2048);
  std::uint64_t offered = 0;
  for (int round = 0; round < 60; ++round) {
    for (auto& p : burst) p = gen.next();
    pipe.process(burst.data(), burst.size());
    offered += burst.size();
    if (round % 7 == 3) pipe.drain();
    if (round % 20 == 9) pipe.rebalance(policy);
  }
  pipe.drain();
  const auto total = pipe.report();
  EXPECT_EQ(total.ingested, offered);
  EXPECT_EQ(total.drops, 0u);
  EXPECT_EQ(pipe.frontend().stream_length(), offered);
  pipe.stop();
}

}  // namespace
}  // namespace memento
