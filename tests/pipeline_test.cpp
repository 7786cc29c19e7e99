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
// high-water mark is monotone and capacity-bounded. The lifecycle hooks
// (rescale / adopt / kill_shard) rebuild the cores behind the drain
// barrier while the workers run, and must keep the frontend identical to a
// sharded_memento resharded at the same points and the accounting exact.
// The stress and rescale tests run ingest + drain + rebalance / rescale
// concurrently and exist chiefly for the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_memento.hpp"
#include "snapshot/reshard.hpp"
#include "trace/packet_ring.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"
#include "snapshot/snapshot.hpp"

namespace memento {
namespace {

std::vector<std::uint8_t> frontend_bytes(const sharded_memento<std::uint64_t>& f) {
  return snapshot::save(f);
}

std::vector<std::uint64_t> keys_of(const std::vector<packet>& pkts) {
  std::vector<std::uint64_t> keys;
  keys.reserve(pkts.size());
  for (const auto& p : pkts) keys.push_back(flow_id(p));
  return keys;
}

void expect_same_heavy_hitters(const std::vector<sharded_memento<std::uint64_t>::heavy_hitter>& a,
                               const std::vector<sharded_memento<std::uint64_t>::heavy_hitter>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << "rank " << i;
    EXPECT_DOUBLE_EQ(a[i].estimate, b[i].estimate) << "rank " << i;
  }
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
  // tau = 1 (every packet a Full update) and tau = 1/8 (the sampled kernel
  // and its per-shard sampler sequence) - both must land bit-identical.
  for (const double tau : {1.0, 1.0 / 8}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    auto cfg = small_config(4, 1000);  // observe-mode detection on
    cfg.sharding.tau = tau;
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
    const auto hh = threaded.heavy_hitters(0.01);
    EXPECT_FALSE(hh.empty());
    expect_same_heavy_hitters(hh, reference.heavy_hitters(0.01));

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
}

TEST(PipelinePush, InterleavedIngestAndQueryRounds) {
  // drain()-then-query must be safe mid-stream, repeatedly (the monitoring
  // pattern: query every epoch while the workers keep ingesting after).
  auto cfg = small_config(2);
  cfg.sharding.window_size = 8000;
  cfg.sharding.counters = 32;
  cfg.ring_capacity = 1u << 10;
  trace_generator gen(trace_config{1u << 12, 1.2, 55, 0});
  std::vector<packet> pkts(60'000);
  for (auto& p : pkts) p = gen.next();
  const auto ids = keys_of(pkts);

  sharded_memento<std::uint64_t> reference(cfg.sharding);
  pipeline<> pipe(cfg);
  pipe.start();
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t begin = static_cast<std::size_t>(round) * 10000;
    for (std::size_t i = begin; i < begin + 10000; i += 333) {
      const std::size_t n = std::min<std::size_t>(333, begin + 10000 - i);
      reference.update_batch(ids.data() + i, n);
      pipe.process(pkts.data() + i, n);
    }
    pipe.drain();
    ASSERT_EQ(frontend_bytes(pipe.frontend()), frontend_bytes(reference));
    ASSERT_NO_FATAL_FAILURE(expect_same_heavy_hitters(pipe.frontend().top(5), reference.top(5)));
  }
  pipe.stop();
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

  // One offer per core of ~5000 packets into a 64-slot ring: the drop
  // policy makes a single try_push, which accepts at most the ring's
  // capacity whatever the workers do, so the shortfall is certain and
  // every packet must be counted exactly once (enqueued xor dropped).
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
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(ingested, enqueued);         // what was accepted was processed
  EXPECT_EQ(pipe.report().drops, drops);
  // The sketch saw precisely the accepted packets - drops never half-applied.
  EXPECT_EQ(pipe.frontend().stream_length(), enqueued);
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
  EXPECT_EQ(pipe.frontend().stream_length(), trace.size());
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

// --- threaded sharded ingest: the push front door -----------------------------
//
// A started pipeline (one worker + one SPSC ring per shard, packets pushed
// in, drain() before queries) at the geometries that stress its rings: odd
// shard counts, the sampled kernel, bursts much larger than the rings.

std::vector<packet> skewed_packets(std::size_t n, double alpha, std::uint64_t seed,
                                   std::size_t universe) {
  trace_generator gen(trace_config{universe, alpha, seed, 0});
  std::vector<packet> pkts(n);
  for (auto& p : pkts) p = gen.next();
  return pkts;
}

pipeline_config push_config(std::size_t shards, std::size_t ring_capacity,
                            backpressure_policy policy) {
  pipeline_config cfg;
  cfg.sharding.window_size = 8000;
  cfg.sharding.counters = 32;
  cfg.sharding.shards = shards;
  cfg.ring_capacity = ring_capacity;
  cfg.policy = policy;
  return cfg;
}

TEST(PipelinePushFrontDoor, DrainedShardsMatchDeterministicFrontend) {
  auto cfg = push_config(3, 1u << 12, backpressure_policy::block);
  cfg.sharding.window_size = 30000;
  cfg.sharding.counters = 64;
  cfg.sharding.tau = 1.0 / 8;
  cfg.sharding.seed = 17;
  const auto pkts = skewed_packets(200000, 1.2, 33, 1u << 14);
  const auto ids = keys_of(pkts);

  sharded_memento<std::uint64_t> reference(cfg.sharding);
  pipeline<> pipe(cfg);
  pipe.start();
  for (std::size_t i = 0; i < ids.size(); i += 700) {
    const std::size_t n = std::min<std::size_t>(700, ids.size() - i);
    reference.update_batch(ids.data() + i, n);
    pipe.process(pkts.data() + i, n);
  }
  pipe.drain();

  ASSERT_EQ(pipe.frontend().stream_length(), reference.stream_length());
  for (std::size_t s = 0; s < cfg.sharding.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(snapshot::save(pipe.frontend().shard(s)), snapshot::save(reference.shard(s)));
  }
  const auto hh = pipe.heavy_hitters(0.01);
  EXPECT_FALSE(hh.empty());
  expect_same_heavy_hitters(hh, reference.heavy_hitters(0.01));
  pipe.stop();
}

TEST(PipelinePushFrontDoor, BlockPolicyIsLosslessAndAccountsOccupancy) {
  const auto cfg = push_config(2, /*ring_capacity=*/256, backpressure_policy::block);
  const auto pkts = skewed_packets(40000, 1.0, 71, 1u << 12);

  pipeline<> pipe(cfg);
  pipe.start();
  for (std::size_t i = 0; i < pkts.size(); i += 2048) {
    const std::size_t n = std::min<std::size_t>(2048, pkts.size() - i);
    pipe.process(pkts.data() + i, n);  // bursts far exceed the rings: must wait
  }
  pipe.drain();
  EXPECT_EQ(pipe.report().drops, 0u);
  std::uint64_t enqueued = 0;
  for (std::size_t s = 0; s < pipe.cores(); ++s) {
    const auto& st = pipe.ingest_stats(s);
    EXPECT_EQ(st.drops, 0u);
    EXPECT_LE(st.occupancy_hwm, 256u);
    EXPECT_GT(st.occupancy_hwm, 0u);
    enqueued += st.enqueued;
  }
  EXPECT_EQ(enqueued, pkts.size());
  EXPECT_EQ(pipe.frontend().stream_length(), pkts.size());
  pipe.stop();
}

TEST(PipelinePushFrontDoor, DropPolicyCountsEveryKeyExactlyOnce) {
  const auto cfg = push_config(2, /*ring_capacity=*/64, backpressure_policy::drop);
  const auto pkts = skewed_packets(200000, 1.0, 73, 1u << 12);

  pipeline<> pipe(cfg);
  pipe.start();
  // One huge burst per shard guarantees overflow regardless of scheduling:
  // a 64-slot ring cannot absorb ~100k packets in one offer.
  pipe.process(pkts.data(), pkts.size());
  pipe.drain();
  std::uint64_t enqueued = 0, drops = 0;
  for (std::size_t s = 0; s < pipe.cores(); ++s) {
    enqueued += pipe.ingest_stats(s).enqueued;
    drops += pipe.ingest_stats(s).drops;
  }
  EXPECT_EQ(enqueued + drops, pkts.size());  // exactly once: enqueued xor dropped
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(pipe.report().drops, drops);
  // The sketch saw precisely the accepted prefix - drops never half-applied.
  EXPECT_EQ(pipe.frontend().stream_length(), enqueued);
  pipe.stop();
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

// --- lifecycle hooks: rescale / adopt / kill_shard ---------------------------

TEST(PipelineLifecycle, RescaleWhileIngestingMatchesReshardedFrontend) {
  // A started 2-core pipeline walks 2 -> 4 -> 2 cores between ingest
  // rounds; the reference frontend is resharded through the same helper at
  // the same points. After every drain the two must be byte-identical,
  // nothing may be lost, and the route stage must follow the new geometry.
  auto cfg = small_config(2, /*detect_stride=*/1000);  // observe-mode detection on
  cfg.sharding.tau = 1.0 / 4;
  cfg.ring_capacity = 1u << 10;
  pipeline<> pipe(cfg);
  pipe.start();
  sharded_memento<std::uint64_t> reference(cfg.sharding);

  const auto trace = make_trace(trace_kind::backbone, 80'000, 29);
  std::uint64_t offered = 0;
  std::size_t at = 0;
  const std::size_t walk[] = {2, 4, 4, 2, 2};
  for (std::size_t round = 0; round < std::size(walk); ++round) {
    SCOPED_TRACE("round " + std::to_string(round) + ", cores " + std::to_string(walk[round]));
    if (walk[round] != pipe.cores()) {
      ASSERT_TRUE(pipe.rescale(walk[round]));
      auto next = reshard_to(reference, walk[round]);
      ASSERT_TRUE(next.has_value());
      reference = std::move(*next);
      ASSERT_TRUE(pipe.started()) << "rescale must restart the workers it stopped";
    }
    for (const std::size_t end = at + 16'000; at < end; at += 1000) {
      pipe.process(trace.data() + at, 1000);
      const auto keys = keys_of({trace.begin() + static_cast<std::ptrdiff_t>(at),
                                 trace.begin() + static_cast<std::ptrdiff_t>(at + 1000)});
      reference.update_batch(keys.data(), keys.size());
      offered += 1000;
    }
    pipe.drain();

    ASSERT_EQ(pipe.cores(), walk[round]);
    EXPECT_EQ(pipe.config().sharding.shards, walk[round]);
    EXPECT_EQ(frontend_bytes(pipe.frontend()), frontend_bytes(reference));
    const auto total = pipe.report();
    EXPECT_EQ(total.ingested, offered);
    EXPECT_EQ(total.drops, 0u);
    EXPECT_EQ(pipe.frontend().stream_length(), offered);
    for (std::size_t i = 0; i < 256; ++i) {
      const packet& p = trace[i];
      ASSERT_EQ(pipe.core_of(p), reference.shard_of(flow_id(p)));
      ASSERT_LT(pipe.core_of(p), walk[round]);
    }
  }
  EXPECT_FALSE(pipe.rescale(pipe.cores())) << "same count is a no-op";
  EXPECT_FALSE(pipe.rescale(0));
  EXPECT_EQ(pipe.cores(), 2u);
  pipe.stop();
}

TEST(PipelineLifecycle, RescaleKeepsEnforceAccountingExact) {
  // Inline (never started) enforce pipeline: a flooding /8 gets blocked and
  // dropped in the parse stage; a 2 -> 4 rescale mid-stream retires the
  // cores' mitigated counts into report(), so every offered packet is
  // still either in the sketch or mitigated - exactly once.
  auto cfg = small_config(2, /*detect_stride=*/2048);
  cfg.enforce = true;
  pipeline<> pipe(cfg);
  const auto trace = flood_trace(120'000, 0x7A, /*flood_per_mille=*/700);
  const std::size_t half = trace.size() / 2;
  for (std::size_t at = 0; at < half; at += 1000) pipe.process(trace.data() + at, 1000);
  const auto before = pipe.report();
  ASSERT_GT(before.mitigated, 0u) << "premise: the flood was blocked before the rescale";
  ASSERT_TRUE(pipe.rescale(4));
  EXPECT_FALSE(pipe.started());
  EXPECT_EQ(pipe.report().mitigated, before.mitigated);
  EXPECT_EQ(pipe.report().active_rules, 0u) << "new cores start with fresh mitigation state";
  EXPECT_FALSE(pipe.blocks(0, 0x7A));
  for (std::size_t at = half; at < trace.size(); at += 1000) {
    pipe.process(trace.data() + at, std::min<std::size_t>(1000, trace.size() - at));
  }
  const auto total = pipe.report();
  EXPECT_EQ(total.ingested, trace.size());
  EXPECT_GT(total.mitigated, before.mitigated) << "the new cores re-detected the flood";
  EXPECT_EQ(pipe.frontend().stream_length() + total.mitigated, trace.size());
}

TEST(PipelineLifecycle, AdoptAndKillShardRebuildBehindTheDrain) {
  auto cfg = small_config(2);
  pipeline<> pipe(cfg);
  pipe.start();
  const auto trace = make_trace(trace_kind::edge, 30'000, 41);
  pipe.process(trace.data(), trace.size());

  // kill_shard: core 1's shard comes back blank, core 0's is untouched.
  pipe.drain();
  const std::uint64_t shard0 = pipe.frontend().shard(0).stream_length();
  pipe.kill_shard(1);
  EXPECT_EQ(pipe.frontend().shard(1).stream_length(), 0u);
  EXPECT_EQ(pipe.frontend().shard(0).stream_length(), shard0);

  // adopt: a 3-shard replacement becomes the geometry, workers restart.
  auto replacement_cfg = cfg.sharding;
  replacement_cfg.shards = 3;
  sharded_memento<std::uint64_t> replacement(replacement_cfg);
  const auto keys = keys_of(trace);
  replacement.update_batch(keys.data(), keys.size());
  sharded_memento<std::uint64_t> reference = replacement;
  pipe.adopt(std::move(replacement));
  ASSERT_TRUE(pipe.started());
  ASSERT_EQ(pipe.cores(), 3u);
  EXPECT_EQ(pipe.config().sharding.shards, 3u);
  EXPECT_EQ(pipe.report(2).ingested, 0u) << "rebuilt cores start fresh";
  pipe.process(trace.data(), trace.size());
  reference.update_batch(keys.data(), keys.size());
  pipe.drain();
  EXPECT_EQ(frontend_bytes(pipe.frontend()), frontend_bytes(reference));
  EXPECT_EQ(pipe.report().ingested, 2 * trace.size());
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
