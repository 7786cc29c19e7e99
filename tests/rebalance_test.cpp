// Skew-aware rebalancing suite: the weighted (TABLE-mode) partitioner, the
// coverage_rebalancer placement policy, the weighted reshard transport, and
// the reshard edge cases the policy leans on.
//
// Load-bearing invariants:
//   * TABLE mode with the UNIFORM table routes - and therefore shards -
//     bit-identically to HASH mode (the nested-floor identity in
//     partitioner.hpp), so the weighted router changes nothing until a
//     policy actually skews the assignment;
//   * on an elephant-heavy Zipf mix, rebalance() measurably tightens the
//     max/min shard update-load ratio and the window_coverage() spread
//     versus static hashing, with heavy_hitters recall no worse (the ISSUE 5
//     acceptance bar);
//   * rebalance() is a deterministic function of observable state (two
//     replicas plan the same table), a no-op on balanced traffic, and the
//     migrated state stays within PR 4's one-threshold-unit movement bound;
//   * weighted frontends snapshot/restore with their routing intact;
//   * reshard survives the policy's edge cases: M=1 collapse, N -> M -> N
//     round trips (query-stable), and rebalancing under concurrent
//     pipeline ingest (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "control/checkpoint.hpp"
#include "control/clock.hpp"
#include "control/controller.hpp"
#include "control/hosts.hpp"
#include "core/memento.hpp"
#include "hierarchy/prefix2d.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/partitioner.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/exact_window.hpp"
#include "snapshot/reshard.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace_generator.hpp"
#include "util/compress.hpp"

namespace memento {
namespace {

using sketch = memento_sketch<std::uint64_t>;
using sharded = sharded_memento<std::uint64_t>;
using partitioner = shard_partitioner<std::uint64_t>;

std::vector<std::uint64_t> skewed_ids(std::size_t n, double alpha, std::uint64_t seed,
                                      std::size_t universe = 1u << 12) {
  trace_generator gen(trace_config{universe, alpha, seed, 0});
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(flow_id(gen.next()));
  return ids;
}

/// First `n` keys >= `start` that the partitioner routes to `shard`, each in
/// a DISTINCT bucket - deterministic elephants for skew experiments (all of
/// them pile onto one shard under static hashing, and each is a separately
/// movable unit for the rebalancer).
std::vector<std::uint64_t> elephants_on_shard(const partitioner& part, std::size_t shard,
                                              std::size_t n, std::uint64_t start = 1u << 20) {
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> buckets;
  for (std::uint64_t x = start; keys.size() < n; ++x) {
    if (part(x) != shard) continue;
    const std::size_t b = part.bucket_of(x);
    if (std::find(buckets.begin(), buckets.end(), b) != buckets.end()) continue;
    keys.push_back(x);
    buckets.push_back(b);
  }
  return keys;
}

/// Zipf background with `elephants` injected round-robin on every
/// `every`-th packet: each elephant carries ~1/(every * |elephants|)^-1...
/// precisely n/(every) packets split across the elephants.
std::vector<std::uint64_t> elephant_mix(std::size_t n, double alpha, std::uint64_t seed,
                                        const std::vector<std::uint64_t>& elephants,
                                        std::size_t every) {
  trace_generator gen(trace_config{1u << 14, alpha, seed, 0});
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!elephants.empty() && i % every == 0) {
      ids.push_back(elephants[(i / every) % elephants.size()]);
    } else {
      ids.push_back(flow_id(gen.next()));
    }
  }
  return ids;
}

/// Full observable-state equality between two memento instances (the shard
/// and snapshot suites' yardstick).
void expect_identical(const sketch& a, const sketch& b) {
  ASSERT_EQ(a.stream_length(), b.stream_length());
  ASSERT_EQ(a.forced_drains(), b.forced_drains());
  ASSERT_EQ(a.overflow_entries(), b.overflow_entries());
  ASSERT_EQ(a.window_phase(), b.window_phase());
  const auto keys_a = a.monitored_keys();
  ASSERT_EQ(keys_a, b.monitored_keys());
  for (const auto& k : keys_a) {
    ASSERT_DOUBLE_EQ(a.query(k), b.query(k)) << "key " << k;
  }
}

// Load/coverage scoring comes from shard/rebalance.hpp (shard_load_ratio,
// coverage_spread): one implementation shared with the fig5 bench, so the
// CI-asserted artifact and this suite measure the same thing.

std::vector<std::uint64_t> shard_streams(const sharded& front) {
  std::vector<std::uint64_t> n;
  for (std::size_t s = 0; s < front.num_shards(); ++s) n.push_back(front.shard(s).stream_length());
  return n;
}

double recall_at(const sharded& front, double theta, const std::vector<std::uint64_t>& truth) {
  const auto found = front.heavy_hitters(theta);
  std::size_t hit = 0;
  for (const auto& key : truth) {
    if (std::any_of(found.begin(), found.end(), [&](const auto& hh) { return hh.key == key; })) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

// --- table-mode partitioner -------------------------------------------------

TEST(ShardTable, UniformTableRoutesBitIdenticallyToHashMode) {
  // floor(fastrange64(h, c*N) / c) == fastrange64(h, N): the TABLE/HASH
  // agreement every uniform-table differential below rests on.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                        std::size_t{8}}) {
    for (std::size_t per : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      partitioner hash_mode(n);
      partitioner table_mode(n, shard_table::uniform(n, per));
      ASSERT_TRUE(table_mode.weighted());
      ASSERT_EQ(table_mode.buckets(), n * per);
      for (std::uint64_t x = 0; x < 50000; ++x) {
        ASSERT_EQ(hash_mode(x), table_mode(x)) << "key " << x << " n " << n << " per " << per;
        // bucket -> shard composition agrees with direct routing.
        ASSERT_EQ(table_mode(x), table_mode.shard_of_bucket(table_mode.bucket_of(x)));
        ASSERT_EQ(hash_mode(x), hash_mode.shard_of_bucket(hash_mode.bucket_of(x)));
      }
    }
  }
  EXPECT_TRUE(shard_table::uniform(4).is_uniform(4));
  EXPECT_FALSE(shard_table::uniform(4).is_uniform(2));
}

TEST(ShardTable, RejectsMalformedTables) {
  shard_table bad;
  EXPECT_FALSE(bad.valid_for(2));  // empty
  bad.to_shard = {0, 1, 0};        // 3 buckets, 2 shards: not a multiple
  EXPECT_FALSE(bad.valid_for(2));
  bad.to_shard = {0, 2};           // entry out of range
  EXPECT_FALSE(bad.valid_for(2));
  bad.to_shard = {0, 1};
  EXPECT_TRUE(bad.valid_for(2));
  EXPECT_THROW(partitioner(2, shard_table{{0, 2}}), std::invalid_argument);
  EXPECT_THROW((sharded{shard_config{1000, 8, 1.0, 1, 2}, shard_table{{0, 1, 0}}}),
               std::invalid_argument);
}

TEST(ShardTable, UniformTableFrontendIsBitIdenticalToHashFrontend) {
  // The acceptance bar's differential half: a weighted frontend with the
  // uniform table must shard, sample and answer exactly like the PR 3
  // hash-mode frontend on the same stream.
  shard_config cfg;
  cfg.window_size = 20000;
  cfg.counters = 64;
  cfg.tau = 1.0 / 4;
  cfg.seed = 11;
  cfg.shards = 4;
  const auto ids = skewed_ids(120000, 1.0, 31);

  sharded hash_front(cfg);
  sharded table_front(cfg, shard_table::uniform(cfg.shards));
  for (std::size_t i = 0; i < ids.size(); i += 509) {
    const std::size_t n = std::min<std::size_t>(509, ids.size() - i);
    hash_front.update_batch(ids.data() + i, n);
    table_front.update_batch(ids.data() + i, n);
  }
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_NO_FATAL_FAILURE(expect_identical(hash_front.shard(s), table_front.shard(s)));
  }
  const auto ha = hash_front.heavy_hitters(0.01);
  const auto hb = table_front.heavy_hitters(0.01);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    ASSERT_EQ(ha[i].key, hb[i].key);
    ASSERT_DOUBLE_EQ(ha[i].estimate, hb[i].estimate);
  }
}

// --- the acceptance pin: rebalance vs static hashing ------------------------

TEST(Rebalance, TightensLoadAndCoverageOnElephantMixWithRecallNoWorse) {
  // Zipf-1.0 background plus three elephants (~8.3% of traffic each) that
  // static hashing piles onto one shard: that shard carries ~25% elephant
  // mass + its ~19% background share, nearly twice the ideal 25%.
  constexpr std::uint64_t kWindow = 100000;
  constexpr double kTheta = 0.01;
  shard_config cfg;
  cfg.window_size = kWindow;
  cfg.counters = 512;
  cfg.tau = 1.0;
  cfg.seed = 13;
  cfg.shards = 4;

  sharded front(cfg);
  const auto elephants = elephants_on_shard(front.partitioner(), /*shard=*/2, 3);
  const auto phase_a = elephant_mix(300000, 1.0, 7, elephants, /*every=*/4);
  front.update_batch(phase_a.data(), phase_a.size());

  // Static imbalance is real before we claim to fix it.
  const double static_ratio_a = shard_load_ratio(front);
  ASSERT_GT(static_ratio_a, 1.5) << "mix failed to produce an imbalance worth rebalancing";

  sharded static_front = front;  // keeps hashing; the control arm
  const coverage_rebalancer policy;
  ASSERT_TRUE(front.rebalance(policy));
  ASSERT_TRUE(front.partitioner().weighted());
  ASSERT_FALSE(front.partitioner().table().is_uniform(cfg.shards));
  // Deliberate split: the policy must not leave all elephants together.
  std::vector<std::size_t> owners;
  for (const auto e : elephants) owners.push_back(front.shard_of(e));
  std::sort(owners.begin(), owners.end());
  EXPECT_GT(std::unique(owners.begin(), owners.end()) - owners.begin(), 1)
      << "rebalance left every elephant on one shard";

  // Movement bound (PR 4's contract, re-pinned through the weighted path):
  // every pre-rebalance heavy hitter's estimate moved <= one threshold unit.
  const double unit = static_cast<double>(static_front.shard(0).overflow_threshold()) /
                      static_front.shard(0).tau();
  for (const auto& hh : static_front.heavy_hitters(kTheta)) {
    EXPECT_LE(std::abs(front.query(hh.key) - hh.estimate), unit + 1e-9) << "key " << hh.key;
  }

  // Phase B: same mix keeps flowing into both arms; measure the realized
  // balance of the NEW traffic and the window coverage each arm ends with.
  const auto before_static = shard_streams(static_front);
  const auto before_rebalanced = shard_streams(front);
  const auto phase_b = elephant_mix(200000, 1.0, 8, elephants, /*every=*/4);
  exact_window<std::uint64_t> oracle(kWindow);
  for (const auto id : phase_b) oracle.add(id);
  static_front.update_batch(phase_b.data(), phase_b.size());
  front.update_batch(phase_b.data(), phase_b.size());

  const double static_ratio = shard_load_ratio(static_front, before_static);
  const double rebalanced_ratio = shard_load_ratio(front, before_rebalanced);
  const double static_spread = coverage_spread(static_front);
  const double rebalanced_spread = coverage_spread(front);
  // Measurably tighter, with deterministic margins (fixed seeds).
  EXPECT_GT(static_ratio, 1.6);
  EXPECT_LT(rebalanced_ratio, static_ratio - 0.4);
  EXPECT_LT(rebalanced_ratio, 1.35);
  EXPECT_LT(rebalanced_spread, static_spread - 0.2);
  EXPECT_LT(rebalanced_spread, 1.5);

  // Recall against the exact last-W window: no worse than static hashing,
  // and solid in absolute terms.
  const double bar = kTheta * static_cast<double>(kWindow);
  std::vector<std::uint64_t> truth;
  oracle.for_each([&](const std::uint64_t& key, std::uint64_t count) {
    if (static_cast<double>(count) >= bar) truth.push_back(key);
  });
  ASSERT_FALSE(truth.empty());
  const double recall_static = recall_at(static_front, kTheta, truth);
  const double recall_rebalanced = recall_at(front, kTheta, truth);
  EXPECT_GE(recall_rebalanced, recall_static);
  EXPECT_GE(recall_rebalanced, 0.8);
}

TEST(Rebalance, ControllerRecoversAdversarialSkewWithoutManualCall) {
  // Adversarial skew: EIGHT elephants, each ~10% of traffic, all hashed
  // onto shard 0 - that shard carries ~85% of the stream (80% elephant
  // mass + its quarter of the 20% Zipf background). Nobody calls
  // rebalance(); the frontend is handed to the autonomic controller on a
  // fake clock, which must notice, fire on its own, and recover the
  // per-segment balance to the ISSUE's bars: load ratio <= 1.1, coverage
  // spread <= 1.05, recall no worse than the static arm.
  constexpr std::uint64_t kWindow = 100000;
  constexpr double kTheta = 0.01;
  constexpr std::size_t kChunk = 30000;
  shard_config cfg;
  cfg.window_size = kWindow;
  // Generous counter budget: the planner's per-bucket model is built from
  // the live candidate sets, and the 1.05 bar needs those sets to actually
  // cover the background - starved counters leave the idle shards' buckets
  // churn-inflated and the first plan lands near 1.2 instead.
  cfg.counters = 2048;
  cfg.tau = 1.0;
  cfg.seed = 13;
  cfg.shards = 4;

  sharded front(cfg);
  sharded static_front = front;  // keeps hashing forever; the control arm
  const auto elephants = elephants_on_shard(front.partitioner(), /*shard=*/0, 8);
  // 4 of every 5 packets round-robin the elephants (each ~10% of the
  // stream); the remainder is near-flat Zipf-0.5 background over a small
  // universe - the planner measures elephants from the candidate sets and
  // spreads the mouse residue evenly, so the background must actually BE
  // even (and candidate-coverable) for its plan to realize the 1.05 bar.
  // Same seed both phases: the bucket loads the planner balanced on are
  // the loads phase B offers.
  const auto mix = [&](std::size_t n, std::uint64_t seed) {
    trace_generator gen(trace_config{1u << 10, 0.5, seed, 0});
    std::vector<std::uint64_t> ids;
    ids.reserve(n);
    std::size_t e = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 4) {
        ids.push_back(flow_id(gen.next()));
      } else {
        ids.push_back(elephants[e++ % elephants.size()]);
      }
    }
    return ids;
  };

  // The premise must be real: static hashing puts > 80% of phase A on
  // shard 0.
  const auto phase_a = mix(120000, 7);
  static_front.update_batch(phase_a.data(), phase_a.size());
  const double shard0_share =
      static_cast<double>(static_front.shard(0).stream_length()) /
      static_cast<double>(static_front.stream_length());
  ASSERT_GT(shard0_share, 0.8) << "mix failed to concentrate on one shard";

  // Hand the other arm to the controller: chunked ingest with a monitor
  // tick after every chunk, exactly how a cooperative embedding runs.
  checkpoint_store store;
  front_host<sharded> host(front, store);
  controller_config ccfg;
  ccfg.sample_interval_ns = 100'000'000;
  ccfg.min_segment_packets = 4096;
  ccfg.load_ratio_high = 1.5;
  ccfg.load_ratio_clear = 1.1;
  ccfg.sustain_ticks = 2;
  ccfg.rebalance_cooldown_ns = 0;
  fake_clock clk;
  controller ctl(ccfg, clk);
  clk.advance_ms(100);
  ctl.tick(host);  // baseline
  const auto drive = [&](const std::vector<std::uint64_t>& ids) {
    for (std::size_t i = 0; i < ids.size(); i += kChunk) {
      front.update_batch(ids.data() + i, std::min(kChunk, ids.size() - i));
      clk.advance_ms(100);
      ctl.tick(host);
    }
  };
  drive(phase_a);

  // The controller fired by itself - this test never calls rebalance().
  EXPECT_GE(ctl.log().count(control_event::alarm_raised), 1u);
  ASSERT_GE(ctl.log().count(control_event::rebalance_applied), 1u);
  ASSERT_TRUE(front.partitioner().weighted());

  // Phase B: the same mix keeps flowing into both arms.
  const auto before_static = shard_streams(static_front);
  const auto before_rebalanced = shard_streams(front);
  const auto phase_b = mix(300000, 7);
  exact_window<std::uint64_t> oracle(kWindow);
  for (const auto id : phase_b) oracle.add(id);
  static_front.update_batch(phase_b.data(), phase_b.size());
  drive(phase_b);

  // Recovery bars on the NEW traffic: whole-phase ratio and the
  // controller's own final judged segment (equal windows make its segment
  // coverage spread the same max/min rate measure).
  EXPECT_GT(shard_load_ratio(static_front, before_static), 5.0);
  EXPECT_LE(shard_load_ratio(front, before_rebalanced), 1.1);
  EXPECT_LE(ctl.last_load_ratio(), 1.1);
  EXPECT_LE(ctl.last_coverage_spread(), 1.05);
  EXPECT_FALSE(ctl.alarm());

  // Recall against the exact last-W window: no worse than static hashing.
  const double bar = kTheta * static_cast<double>(kWindow);
  std::vector<std::uint64_t> truth;
  oracle.for_each([&](const std::uint64_t& key, std::uint64_t count) {
    if (static_cast<double>(count) >= bar) truth.push_back(key);
  });
  ASSERT_FALSE(truth.empty());
  const double recall_static = recall_at(static_front, kTheta, truth);
  const double recall_rebalanced = recall_at(front, kTheta, truth);
  EXPECT_GE(recall_rebalanced, recall_static);
  EXPECT_GE(recall_rebalanced, 0.8);
}

TEST(Rebalance, NoOpOnBalancedTrafficAndDeterministicPlans) {
  shard_config cfg;
  cfg.window_size = 40000;
  cfg.counters = 128;
  cfg.tau = 1.0;
  cfg.seed = 3;
  cfg.shards = 4;
  sharded front(cfg);
  const auto ids = skewed_ids(200000, 0.4, 17, 1u << 16);  // flat mix: no elephants
  front.update_batch(ids.data(), ids.size());

  sharded untouched = front;
  const coverage_rebalancer policy;
  EXPECT_FALSE(policy.plan(front).has_value());
  EXPECT_FALSE(front.rebalance(policy));
  EXPECT_FALSE(front.partitioner().weighted());
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    ASSERT_NO_FATAL_FAILURE(expect_identical(front.shard(s), untouched.shard(s)));
  }

  // Determinism: two replicas of the same skewed state plan the same table.
  const auto elephants = elephants_on_shard(front.partitioner(), 0, 2);
  const auto skew = elephant_mix(150000, 1.0, 23, elephants, 4);
  front.update_batch(skew.data(), skew.size());
  sharded replica = front;
  const auto plan_a = policy.plan(front);
  const auto plan_b = policy.plan(replica);
  ASSERT_TRUE(plan_a.has_value());
  ASSERT_TRUE(plan_b.has_value());
  EXPECT_TRUE(*plan_a == *plan_b);
  // An N=1 frontend can never rebalance.
  sharded solo(shard_config{10000, 32, 1.0, 1, 1});
  const auto solo_ids = skewed_ids(50000, 1.2, 29);
  solo.update_batch(solo_ids.data(), solo_ids.size());
  EXPECT_FALSE(solo.rebalance(policy));
}

// --- weighted snapshots -----------------------------------------------------

TEST(Rebalance, WeightedFrontendSnapshotRoundTripsWithRoutingIntact) {
  shard_config cfg;
  cfg.window_size = 60000;
  cfg.counters = 256;
  cfg.tau = 0.5;
  cfg.seed = 19;
  cfg.shards = 4;
  sharded front(cfg);
  const auto elephants = elephants_on_shard(front.partitioner(), 1, 3);
  const auto ids = elephant_mix(250000, 1.0, 41, elephants, 4);
  front.update_batch(ids.data(), ids.size());
  ASSERT_TRUE(front.rebalance(coverage_rebalancer{}));
  ASSERT_TRUE(front.partitioner().weighted());

  const auto buf = snapshot::save(front);
  auto back = snapshot::restore<sharded>(buf);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(back->partitioner().weighted());
  ASSERT_TRUE(back->partitioner().table() == front.partitioner().table());
  for (std::uint64_t k = 0; k < 3000; ++k) ASSERT_EQ(front.shard_of(k), back->shard_of(k));
  for (const auto e : elephants) ASSERT_EQ(front.shard_of(e), back->shard_of(e));

  // Continue both: the restored weighted frontend must keep routing and
  // sampling bit-identically.
  const auto more = elephant_mix(120000, 1.0, 43, elephants, 4);
  front.update_batch(more.data(), more.size());
  back->update_batch(more.data(), more.size());
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_NO_FATAL_FAILURE(expect_identical(front.shard(s), back->shard(s)));
  }
  // config_snapshot survives the trip (rebalance after restore reuses it).
  EXPECT_EQ(back->config_snapshot().seed, cfg.seed);
  EXPECT_EQ(back->config_snapshot().shards, cfg.shards);
}

TEST(Rebalance, WireRejectsMalformedBucketTables) {
  shard_config cfg{4000, 32, 1.0, 3, 2};
  sharded front(cfg);
  const auto ids = skewed_ids(12000, 1.0, 57);
  front.update_batch(ids.data(), ids.size());

  // Valid envelope builder with a hand-chosen table section.
  auto build = [&](std::uint64_t buckets, const std::vector<std::uint64_t>& entries) {
    std::vector<std::uint8_t> out;
    wire::sink w(out);
    w.u32(snapshot::kMagic);
    w.begin_section(sharded::kWireTag, sharded::kWireVersion);
    w.u8(wire::kCodecPacked);
    w.varint(2);
    w.u64(cfg.seed);
    w.varint(buckets);
    std::size_t i = 0;
    wire::put_u64_array(w, entries.size(), [&] { return entries[i++]; });
    front.shard(0).save(w);
    front.shard(1).save(w);
    w.end_section();
    EXPECT_TRUE(w.finish());
    return out;
  };

  // Control: the envelope itself is sound (uniform 2-shard table decodes).
  EXPECT_TRUE(snapshot::restore<sharded>(build(4, {0, 0, 1, 1})).has_value());
  // Bucket count not a multiple of the shard count.
  EXPECT_FALSE(snapshot::restore<sharded>(build(3, {0, 0, 1})).has_value());
  // Table entry out of range.
  EXPECT_FALSE(snapshot::restore<sharded>(build(4, {0, 0, 1, 2})).has_value());
  // Lying bucket count far beyond the payload (must die before allocating).
  EXPECT_FALSE(snapshot::restore<sharded>(build(1u << 30, {})).has_value());
}

// --- reshard edge cases the policy leans on ---------------------------------

TEST(Reshard, CollapseToSingleShardKeepsEstimatesAndKeepsRunning) {
  // M=1: scale-in all the way. Every key lands on shard 0, estimates move
  // <= one unit, and the collapsed instance keeps ingesting.
  shard_config cfg{80000, 256, 1.0, 9, 4};
  sharded front(cfg);
  const auto ids = skewed_ids(240000, 1.0, 63, 1u << 14);
  front.update_batch(ids.data(), ids.size());

  shard_config solo = cfg;
  solo.shards = 1;
  auto collapsed = snapshot_builder::reshard(front, solo);
  ASSERT_TRUE(collapsed.has_value());
  ASSERT_EQ(collapsed->num_shards(), 1u);
  ASSERT_DOUBLE_EQ(collapsed->estimate_width(), front.estimate_width());

  const double unit =
      static_cast<double>(front.shard(0).overflow_threshold()) / front.shard(0).tau();
  std::size_t compared = 0;
  for (const auto& hh : front.heavy_hitters(0.01)) {
    EXPECT_LE(std::abs(collapsed->query(hh.key) - hh.estimate), unit + 1e-9);
    ++compared;
  }
  ASSERT_GT(compared, 0u);

  const auto more = skewed_ids(100000, 1.0, 67, 1u << 14);
  collapsed->update_batch(more.data(), more.size());
  EXPECT_EQ(collapsed->stream_length(),
            ids.size() + more.size());  // sum_stream / 1 carried exactly, then grew
  EXPECT_LT(collapsed->shard(0).window_phase(), collapsed->shard(0).window_size());
}

TEST(Reshard, RoundTripNtoMtoNIsQueryStable) {
  // N -> M -> N with M > N and few distinct flows (no capacity drops): keys
  // return to their original owners and every piece of carried state -
  // overflow counts, in-frame counts - re-buckets to exactly the original
  // per-key answers.
  shard_config cfg{64000, 512, 1.0, 5, 2};
  sharded front(cfg);
  const auto ids = skewed_ids(240000, 1.1, 71, 256);  // 256 distinct flows
  front.update_batch(ids.data(), ids.size());

  shard_config wide = cfg;
  wide.shards = 8;
  auto out = snapshot_builder::reshard(front, wide);
  ASSERT_TRUE(out.has_value());
  auto back = snapshot_builder::reshard(*out, cfg);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->num_shards(), front.num_shards());
  EXPECT_EQ(back->stream_length(), front.stream_length());

  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const auto& a = front.shard(s);
    const auto& b = back->shard(s);
    ASSERT_EQ(a.overflow_entries(), b.overflow_entries());
    auto keys_a = a.monitored_keys();
    auto keys_b = b.monitored_keys();
    std::sort(keys_a.begin(), keys_a.end());
    std::sort(keys_b.begin(), keys_b.end());
    ASSERT_EQ(keys_a, keys_b);
    for (const auto& k : keys_a) {
      ASSERT_DOUBLE_EQ(a.query(k), b.query(k)) << "key " << k;
    }
  }
  // And repeated round trips stay put (the state is a fixpoint now).
  auto out2 = snapshot_builder::reshard(*back, wide);
  ASSERT_TRUE(out2.has_value());
  auto back2 = snapshot_builder::reshard(*out2, cfg);
  ASSERT_TRUE(back2.has_value());
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const auto& a = back->shard(s);
    const auto& b = back2->shard(s);
    auto keys = a.monitored_keys();
    for (const auto& k : keys) ASSERT_DOUBLE_EQ(a.query(k), b.query(k));
  }
}

// --- 2-D hierarchical frontend: the PR 9 acceptance pin ----------------------

TEST(RebalanceHHH, TwoDimElephantPrefixMixRebalancesWithRecallNoWorse) {
  // Six elephant (src, dst) pairs whose /8 route pairs all hash to one shard:
  // under static hashing that shard carries ~53% of the traffic (ideal: 25%),
  // its window covers under half the nominal W, and the elephants' routed
  // estimates sink below the detection bar. The coverage_rebalancer must
  // split the elephant buckets (load ratio <= 1.1 on post-rebalance traffic)
  // and recover the elephants that static hashing drops.
  using front_t = sharded_h_memento<two_dim_hierarchy>;
  constexpr std::uint64_t kWindow = 400000;  // 100000 per shard
  constexpr double kTheta = 0.085;
  const h_memento_config cfg{kWindow, 2048, 1.0, /*delta=*/0.05, 21};
  front_t front(hhh_shard_config{cfg, 4});

  // Deterministic elephants: distinct route pairs, distinct buckets, all on
  // shard 0 - each a separately movable unit, exactly like the flat suite's
  // elephants_on_shard.
  std::vector<packet> elephants;
  {
    xoshiro256 rng(5);
    std::vector<std::size_t> buckets;
    while (elephants.size() < 6) {
      const std::uint32_t src = static_cast<std::uint32_t>(rng());
      const packet p{src, static_cast<std::uint32_t>(rng())};
      if (front.shard_of(p) != 0) continue;
      const std::size_t b = front.bucket_of(two_dim_hierarchy::full_key(p));
      if (std::find(buckets.begin(), buckets.end(), b) != buckets.end()) continue;
      elephants.push_back(p);
      buckets.push_back(b);
    }
  }

  // 10-packet rounds: one appearance per elephant (10% of traffic each,
  // exactly 40000 per window - above the 8.5% bar by construction) plus 4
  // uniform mice (fresh random pairs: hash-uniform across buckets, so the
  // planner's evenly-spread mouse residue is the exactly right model).
  xoshiro256 bg(99);
  auto mouse = [&] {
    const std::uint32_t src = static_cast<std::uint32_t>(bg());
    return packet{src, static_cast<std::uint32_t>(bg())};
  };
  for (std::size_t r = 0; r < 80000; ++r) {  // two full windows of skew
    for (const auto& e : elephants) front.update(e);
    for (int j = 0; j < 4; ++j) front.update(mouse());
  }
  ASSERT_GT(shard_load_ratio(front), 1.5) << "mix failed to overload shard 0";

  front_t static_front = front;  // the control arm keeps hashing
  const coverage_rebalancer policy;
  ASSERT_TRUE(front.rebalance(policy));
  ASSERT_TRUE(front.partitioner().weighted());
  std::vector<std::size_t> owners;
  for (const auto& e : elephants) owners.push_back(front.shard_of(e));
  std::sort(owners.begin(), owners.end());
  EXPECT_GT(std::unique(owners.begin(), owners.end()) - owners.begin(), 1)
      << "rebalance left every elephant on one shard";

  // Phase B: the same mix keeps flowing into both arms (identical packets -
  // recorded once so both arms see the very same mice).
  std::vector<packet> phase_b;
  phase_b.reserve(80000 * 10);
  for (std::size_t r = 0; r < 80000; ++r) {
    for (const auto& e : elephants) phase_b.push_back(e);
    for (int j = 0; j < 4; ++j) phase_b.push_back(mouse());
  }
  std::vector<std::uint64_t> before_static, before_rebalanced;
  for (std::size_t s = 0; s < 4; ++s) {
    before_static.push_back(static_front.shard(s).stream_length());
    before_rebalanced.push_back(front.shard(s).stream_length());
  }
  static_front.update_batch(phase_b.data(), phase_b.size());
  front.update_batch(phase_b.data(), phase_b.size());

  // The ISSUE acceptance bar: realized post-rebalance load ratio <= 1.1
  // while the static arm stays badly imbalanced.
  EXPECT_GT(shard_load_ratio(static_front, before_static), 1.8);
  EXPECT_LE(shard_load_ratio(front, before_rebalanced), 1.1);
  EXPECT_LT(coverage_spread(front), coverage_spread(static_front));

  // Recall over the elephants (true hitters by construction: 10% > theta):
  // no worse than the static arm, and complete in absolute terms.
  auto elephants_found = [&](const front_t& f) {
    const auto out = f.output(kTheta);
    std::size_t hit = 0;
    for (const auto& e : elephants) {
      const auto key = two_dim_hierarchy::full_key(e);
      if (std::any_of(out.begin(), out.end(), [&](const auto& h) { return h.key == key; })) ++hit;
    }
    return hit;
  };
  const std::size_t recall_static = elephants_found(static_front);
  const std::size_t recall_rebalanced = elephants_found(front);
  EXPECT_GE(recall_rebalanced, recall_static);
  EXPECT_EQ(recall_rebalanced, elephants.size());
  EXPECT_LT(recall_static, elephants.size())
      << "static arm no longer drops elephants; the scenario lost its teeth";
}

// --- pipeline: rebalance under concurrent ingest ----------------------------

TEST(Rebalance, PipelineRebalanceUnderConcurrentIngestMatchesDeterministicFrontend) {
  // Ingest rounds with a mid-stream rebalance while the pipeline's workers
  // are live: after each drain the pipeline must be bit-identical to the
  // deterministic frontend driven through the same bursts and the same
  // policy at the same point. Run under TSan in CI (tsan job), where the
  // drain barrier + table publish must be clean with no extra locks. The
  // stream is flow ids, fed as the packets they name (packet_of).
  pipeline_config pcfg;
  pcfg.sharding.window_size = 30000;
  pcfg.sharding.counters = 96;
  pcfg.sharding.tau = 1.0 / 4;
  pcfg.sharding.seed = 17;
  pcfg.sharding.shards = 3;
  pcfg.ring_capacity = 1u << 12;
  const shard_config& cfg = pcfg.sharding;

  sharded reference(cfg);
  pipeline<> pipe(pcfg);
  pipe.start();
  const auto elephants = elephants_on_shard(reference.partitioner(), 0, 3);
  const coverage_rebalancer policy;

  std::size_t migrations = 0;
  for (int round = 0; round < 6; ++round) {
    const auto ids =
        elephant_mix(40000, 1.0, 100 + static_cast<std::uint64_t>(round), elephants, 4);
    std::vector<packet> pkts;
    for (const auto id : ids) pkts.push_back(packet_of(id));
    for (std::size_t i = 0; i < ids.size(); i += 700) {
      const std::size_t n = std::min<std::size_t>(700, ids.size() - i);
      reference.update_batch(ids.data() + i, n);
      pipe.process(pkts.data() + i, n);
    }
    if (round == 2 || round == 4) {
      const bool moved_pipe = pipe.rebalance(policy);
      const bool moved_ref = reference.rebalance(policy);
      ASSERT_EQ(moved_pipe, moved_ref) << "round " << round;
      if (moved_pipe) ++migrations;
    }
    pipe.drain();
    ASSERT_EQ(snapshot::save(pipe.frontend()), snapshot::save(reference)) << "round " << round;
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      SCOPED_TRACE("round " + std::to_string(round) + " shard " + std::to_string(s));
      ASSERT_NO_FATAL_FAILURE(expect_identical(pipe.frontend().shard(s), reference.shard(s)));
    }
  }
  // The elephants make the first rebalance real; later rounds may or may
  // not re-trigger, but at least one migration must have happened for this
  // test to mean anything.
  ASSERT_GE(migrations, 1u);
  ASSERT_TRUE(pipe.frontend().partitioner().weighted());

  const auto hh_pipe = pipe.heavy_hitters(0.02);
  const auto hh_ref = reference.heavy_hitters(0.02);
  ASSERT_EQ(hh_pipe.size(), hh_ref.size());
  for (std::size_t i = 0; i < hh_pipe.size(); ++i) {
    ASSERT_EQ(hh_pipe[i].key, hh_ref[i].key);
    ASSERT_DOUBLE_EQ(hh_pipe[i].estimate, hh_ref[i].estimate);
  }
  pipe.stop();
}

}  // namespace
}  // namespace memento
