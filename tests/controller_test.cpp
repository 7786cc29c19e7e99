// Autonomic control-plane suite: the controller brain's decision semantics
// against a scripted host + fake clock (exact event sequences pinned), the
// host bindings against real frontends, and the kill/restore fault-injection
// and elastic-scaling soaks against the threaded pipeline (run under TSan in
// CI via -L controller).
//
// Load-bearing pins:
//   * square-wave load oscillating inside the hysteresis band produces ZERO
//     alarm transitions and zero rebalances (the flap-free guarantee);
//   * one sustained excursion triggers exactly one rebalance, re-armed only
//     after the alarm clears; the cooldown defers (rebalance_suppressed)
//     and retries, and a self-resolving excursion drops the deferred
//     trigger;
//   * watermark scaling doubles/halves the shard count with clamps, and an
//     N -> M -> N round trip driven by the controller keeps queries stable
//     and the global stream length EXACT (the reshard remainder fix);
//   * checkpoint cadence is honored on the injected clock;
//   * a shard killed mid-stream is restored from the latest background
//     checkpoint with exact packet accounting and elephant recall intact;
//   * watermarks walk a live pipeline 2 -> 4 -> 2 cores with the global
//     stream length exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "control/checkpoint.hpp"
#include "control/clock.hpp"
#include "control/controller.hpp"
#include "control/events.hpp"
#include "control/hosts.hpp"
#include "control/service.hpp"
#include "hierarchy/prefix1d.hpp"
#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"

namespace memento {
namespace {

using sharded = sharded_memento<std::uint64_t>;
using partitioner = shard_partitioner<std::uint64_t>;
using ev = control_event;

std::vector<std::uint64_t> skewed_ids(std::size_t n, double alpha, std::uint64_t seed,
                                      std::size_t universe = 1u << 12) {
  trace_generator gen(trace_config{universe, alpha, seed, 0});
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(flow_id(gen.next()));
  return ids;
}

/// First `n` keys >= `start` routed to `shard`, each in a distinct bucket -
/// the same deterministic elephants the rebalance suite uses.
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

/// Key-level scenarios drive the packet pipeline through packet_of.
std::vector<packet> packets_of(const std::vector<std::uint64_t>& ids) {
  std::vector<packet> pkts;
  pkts.reserve(ids.size());
  for (const auto id : ids) pkts.push_back(packet_of(id));
  return pkts;
}

// --- scripted host: the brain's test double ---------------------------------

/// Programmable deployment: the test writes the cumulative counters the
/// brain will sample and records every action the brain takes.
struct script_host {
  std::vector<std::uint64_t> offered;
  std::vector<std::uint64_t> window;
  bool rebalance_result = true;
  bool rescale_result = true;
  std::size_t checkpoint_bytes = 4096;
  int rebalances = 0;
  int checkpoints = 0;
  std::vector<std::size_t> rescale_targets;

  explicit script_host(std::size_t shards, std::uint64_t w = 100000)
      : offered(shards, 0), window(shards, w) {}

  [[nodiscard]] control_sample sample() const { return {offered, window}; }
  bool rebalance() {
    ++rebalances;
    return rebalance_result;
  }
  bool rescale(std::size_t target) {
    rescale_targets.push_back(target);
    if (!rescale_result) return false;
    const std::uint64_t w = window.empty() ? 100000 : window[0];
    offered.assign(target, 0);  // cores rebuilt: counters restart, like the pipeline's
    window.assign(target, w);
    return true;
  }
  std::size_t checkpoint() {
    ++checkpoints;
    return checkpoint_bytes;
  }

  /// One segment of load at max/min ratio `ratio`: shard 0 carries the
  /// excess, everyone else `base` packets.
  void feed(double ratio, std::uint64_t base = 10000) {
    offered[0] += static_cast<std::uint64_t>(ratio * static_cast<double>(base));
    for (std::size_t i = 1; i < offered.size(); ++i) offered[i] += base;
  }
};

controller_config quiet_config() {
  controller_config cfg;
  cfg.sample_interval_ns = 100'000'000;  // 100 ms
  cfg.min_segment_packets = 4096;
  cfg.load_ratio_high = 1.5;
  cfg.load_ratio_clear = 1.1;
  cfg.sustain_ticks = 2;
  cfg.rebalance_cooldown_ns = 0;
  return cfg;
}

void step(fake_clock& clk, controller& ctl, script_host& host, double ratio,
          std::uint64_t base = 10000) {
  clk.advance_ms(100);
  host.feed(ratio, base);
  ctl.tick(host);
}

// --- hysteresis -------------------------------------------------------------

TEST(Controller, SquareWaveInsideBandNeverFlaps) {
  // Load oscillating between 1.12 and 1.45 - above the clear edge, below
  // the high edge - for 40 ticks: not one decision. THE flap-free pin.
  fake_clock clk;
  controller ctl(quiet_config(), clk);
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);  // baseline tick (never judges)
  for (int i = 0; i < 40; ++i) step(clk, ctl, host, i % 2 == 0 ? 1.45 : 1.12);
  EXPECT_FALSE(ctl.alarm());
  EXPECT_EQ(host.rebalances, 0);
  EXPECT_TRUE(ctl.log().decisions().empty())
      << "decision " << control_event_name(ctl.log().decisions().front());
  // Every judged tick still produced an observable sample record.
  EXPECT_EQ(ctl.log().count(ev::sample), 40u);
}

TEST(Controller, SustainedExcursionTriggersExactlyOnce) {
  // Raise needs `sustain_ticks` consecutive breaches; once the migration
  // lands and the ratio falls to the clear line, the alarm drops and must
  // not re-trigger - a successful migration gets exactly one shot per
  // excursion, a second excursion exactly one more. (A migration that does
  // NOT clear the alarm retries instead - pinned separately below.)
  fake_clock clk;
  controller ctl(quiet_config(), clk);
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);

  step(clk, ctl, host, 1.0);
  step(clk, ctl, host, 2.0);  // breach 1: not sustained yet
  EXPECT_FALSE(ctl.alarm());
  step(clk, ctl, host, 2.0);  // breach 2: raise + rebalance, same tick
  EXPECT_TRUE(ctl.alarm());
  step(clk, ctl, host, 1.05);  // the migration balanced the load: cleared
  EXPECT_FALSE(ctl.alarm());
  // Calm traffic afterward: no further action from the resolved excursion.
  for (int i = 0; i < 4; ++i) step(clk, ctl, host, 1.0);
  EXPECT_EQ(host.rebalances, 1) << "a sustained excursion must fire exactly once";
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // second excursion: fires once more
  step(clk, ctl, host, 1.0);

  const std::vector<ev> expected = {ev::alarm_raised,  ev::rebalance_applied, ev::alarm_cleared,
                                    ev::alarm_raised,  ev::rebalance_applied, ev::alarm_cleared};
  EXPECT_EQ(ctl.log().decisions(), expected);
  EXPECT_EQ(host.rebalances, 2);
}

TEST(Controller, OneBreachBelowSustainNeverRaises) {
  fake_clock clk;
  controller ctl(quiet_config(), clk);
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);
  // Single-tick spikes separated by calm: breach counter resets each time.
  for (int i = 0; i < 10; ++i) {
    step(clk, ctl, host, 3.0);
    step(clk, ctl, host, 1.0);
  }
  EXPECT_TRUE(ctl.log().decisions().empty());
  EXPECT_EQ(host.rebalances, 0);
}

TEST(Controller, CooldownDefersThenRetriesAndDropsSelfResolvedTriggers) {
  controller_config cfg = quiet_config();
  cfg.rebalance_cooldown_ns = 1'000'000'000;  // 1 s, ticks every 100 ms
  fake_clock clk;
  controller ctl(cfg, clk);
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);

  // Excursion 1 fires immediately (no cooldown pending yet).
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + applied; cooldown until +1s
  step(clk, ctl, host, 1.0);  // cleared
  // Excursion 2 raises inside the cooldown: deferred, logged once, then
  // executed on the first tick past expiry because the skew persists.
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + suppressed
  // Cooldown armed at t=300ms runs until t=1300ms; the persistent skew rides
  // it out and the deferred trigger fires exactly on the expiry tick.
  for (int i = 0; i < 7; ++i) step(clk, ctl, host, 2.0);
  EXPECT_EQ(host.rebalances, 2) << "deferred trigger must fire after the cooldown";
  step(clk, ctl, host, 1.0);  // cleared; cooldown now until +1s again
  // Excursion 3 raises inside the new cooldown but resolves itself before
  // expiry: the deferred trigger must be DROPPED, not fired into a
  // balanced deployment.
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + suppressed
  step(clk, ctl, host, 1.0);  // cleared: pending dropped
  for (int i = 0; i < 15; ++i) step(clk, ctl, host, 1.0);  // well past the cooldown

  const std::vector<ev> expected = {
      ev::alarm_raised, ev::rebalance_applied,    ev::alarm_cleared,
      ev::alarm_raised, ev::rebalance_suppressed, ev::rebalance_applied, ev::alarm_cleared,
      ev::alarm_raised, ev::rebalance_suppressed, ev::alarm_cleared};
  EXPECT_EQ(ctl.log().decisions(), expected);
  EXPECT_EQ(host.rebalances, 2);
}

TEST(Controller, UnresolvedExcursionRearmsAfterEachSustainPeriod) {
  // A migration that does NOT clear the alarm must not wedge the brain in
  // the raised state: while the ratio stays above the clear line - at the
  // raise line OR inside the band - the trigger re-arms after every further
  // sustain period (one alarm, several applications). The adversarial-skew
  // recovery in rebalance_test and the appliance soak lean on exactly this
  // retry to converge when the first plan was built from a distorted
  // signal and the second lands inside the band but above clear.
  fake_clock clk;
  controller ctl(quiet_config(), clk);  // sustain 2, no cooldown
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + applied #1
  // Still at the raise line: re-arm after another sustain period.
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // applied #2
  // The second plan got inside the band but not under the clear line: the
  // latched alarm keeps retrying at the same cadence.
  step(clk, ctl, host, 1.3);
  step(clk, ctl, host, 1.3);  // applied #3
  step(clk, ctl, host, 1.0);  // cleared
  for (int i = 0; i < 10; ++i) step(clk, ctl, host, 1.0);

  const std::vector<ev> expected = {ev::alarm_raised, ev::rebalance_applied,
                                    ev::rebalance_applied, ev::rebalance_applied,
                                    ev::alarm_cleared};
  EXPECT_EQ(ctl.log().decisions(), expected);
  EXPECT_EQ(host.rebalances, 3);
  EXPECT_EQ(ctl.log().count(ev::alarm_raised), 1u);
}

TEST(Controller, PolicyNoopIsLoggedAndStartsNoCooldown) {
  controller_config cfg = quiet_config();
  cfg.rebalance_cooldown_ns = 60'000'000'000;  // would block everything if started
  fake_clock clk;
  controller ctl(cfg, clk);
  script_host host(4);
  host.rebalance_result = false;  // the policy finds no better table
  clk.advance_ms(100);
  ctl.tick(host);
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + noop
  step(clk, ctl, host, 1.0);  // cleared
  host.rebalance_result = true;
  step(clk, ctl, host, 2.0);
  step(clk, ctl, host, 2.0);  // raise + applied: the noop started no cooldown

  const std::vector<ev> expected = {ev::alarm_raised, ev::rebalance_noop, ev::alarm_cleared,
                                    ev::alarm_raised, ev::rebalance_applied};
  EXPECT_EQ(ctl.log().decisions(), expected);
}

TEST(Controller, SmallSegmentsAreAccumulatedNotJudged) {
  fake_clock clk;
  controller ctl(quiet_config(), clk);  // min_segment_packets = 4096
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);
  // Wildly skewed dribbles (1060 packets each) below the segment floor:
  // not judged tick by tick - a handful of packets witnesses only noise.
  for (int i = 0; i < 3; ++i) step(clk, ctl, host, 50.0, /*base=*/20);
  EXPECT_EQ(ctl.log().count(ev::sample), 0u);
  EXPECT_TRUE(ctl.log().decisions().empty());
  // But they ACCUMULATE against the old baseline: once the running segment
  // crosses the floor it is judged whole, the skew is seen, and sustained
  // accumulation eventually raises the alarm like any other excursion.
  for (int i = 0; i < 8; ++i) step(clk, ctl, host, 50.0, /*base=*/20);
  EXPECT_GE(ctl.log().count(ev::sample), 2u);
  EXPECT_TRUE(ctl.alarm());
  EXPECT_EQ(ctl.log().count(ev::alarm_raised), 1u);
}

// --- watermark scaling ------------------------------------------------------

TEST(Controller, WatermarkScalingDoublesAndHalvesWithClamps) {
  controller_config cfg;
  cfg.sample_interval_ns = 100'000'000;
  cfg.min_segment_packets = 1;
  cfg.load_ratio_high = 1e18;  // isolate scaling from the alarm machinery
  cfg.scale_up_pps = 100'000;  // per shard
  cfg.scale_down_pps = 1'000;
  cfg.scale_sustain_ticks = 2;
  cfg.min_shards = 1;
  cfg.max_shards = 8;
  cfg.scale_cooldown_ns = 0;
  fake_clock clk;
  controller ctl(cfg, clk);
  script_host host(2);
  clk.advance_ms(100);
  ctl.tick(host);

  // 50k packets / 100 ms / 2 shards = 250k pps per shard: over the high
  // watermark. Each rescale resets the lanes, costing one re-baseline tick.
  auto heavy = [&] { step(clk, ctl, host, 1.0, 50000 / host.offered.size()); };
  auto light = [&] { step(clk, ctl, host, 1.0, 40 / host.offered.size() + 1); };
  for (int i = 0; i < 3; ++i) heavy();  // sustain x2 -> 2 -> 4
  EXPECT_EQ(host.offered.size(), 4u);
  for (int i = 0; i < 3; ++i) heavy();  // -> 8
  EXPECT_EQ(host.offered.size(), 8u);
  for (int i = 0; i < 6; ++i) heavy();  // at max_shards: clamped, no calls
  EXPECT_EQ(host.offered.size(), 8u);
  ASSERT_EQ(host.rescale_targets, (std::vector<std::size_t>{4, 8}));

  for (int i = 0; i < 3; ++i) light();  // sustain x2 -> 8 -> 4
  EXPECT_EQ(host.offered.size(), 4u);
  for (int i = 0; i < 3; ++i) light();  // -> 2
  for (int i = 0; i < 3; ++i) light();  // -> 1
  EXPECT_EQ(host.offered.size(), 1u);
  for (int i = 0; i < 6; ++i) light();  // at min_shards: clamped
  EXPECT_EQ(host.offered.size(), 1u);
  ASSERT_EQ(host.rescale_targets, (std::vector<std::size_t>{4, 8, 4, 2, 1}));
  EXPECT_EQ(ctl.log().count(ev::scale_up), 2u);
  EXPECT_EQ(ctl.log().count(ev::scale_down), 3u);
  // scale_* records carry the target shard count in `detail`.
  std::vector<std::uint64_t> details;
  for (const auto& r : ctl.log().records()) {
    if (r.kind == ev::scale_up || r.kind == ev::scale_down) details.push_back(r.detail);
  }
  EXPECT_EQ(details, (std::vector<std::uint64_t>{4, 8, 4, 2, 1}));
}

TEST(Controller, RejectedRescaleIsLoggedAndRetriesAfterCooldown) {
  controller_config cfg;
  cfg.sample_interval_ns = 100'000'000;
  cfg.min_segment_packets = 1;
  cfg.load_ratio_high = 1e18;
  cfg.scale_up_pps = 100'000;
  cfg.scale_sustain_ticks = 2;
  cfg.max_shards = 8;
  cfg.scale_cooldown_ns = 0;
  fake_clock clk;
  controller ctl(cfg, clk);
  script_host host(2);
  host.rescale_result = false;  // e.g. the reshard transport refused the geometry
  clk.advance_ms(100);
  ctl.tick(host);
  for (int i = 0; i < 6; ++i) step(clk, ctl, host, 1.0, 25000);
  EXPECT_GE(ctl.log().count(ev::scale_rejected), 1u);
  EXPECT_EQ(ctl.log().count(ev::scale_up), 0u);
  EXPECT_EQ(host.offered.size(), 2u) << "a rejected rescale must change nothing";
}

// --- checkpoint cadence -----------------------------------------------------

TEST(Controller, CheckpointCadenceHonoredOnInjectedClock) {
  controller_config cfg = quiet_config();
  cfg.checkpoint_interval_ns = 500'000'000;  // 500 ms, ticks every 100 ms
  fake_clock clk;
  controller ctl(cfg, clk);
  script_host host(4);
  // 26 ticks at t = 100..2600 ms; the first tick arms the cadence at 600,
  // then checkpoints land at 600, 1100, 1600, 2100, 2600: exactly five.
  for (int i = 0; i < 26; ++i) step(clk, ctl, host, 1.0);
  EXPECT_EQ(host.checkpoints, 5);
  EXPECT_EQ(ctl.log().count(ev::checkpoint_taken), 5u);
  for (const auto& r : ctl.log().records()) {
    if (r.kind == ev::checkpoint_taken) {
      EXPECT_EQ(r.detail, host.checkpoint_bytes);
    }
  }
  // A failing sink is a logged failure, never silent.
  host.checkpoint_bytes = 0;
  for (int i = 0; i < 5; ++i) step(clk, ctl, host, 1.0);
  EXPECT_EQ(ctl.log().count(ev::checkpoint_failed), 1u);
}

TEST(Controller, CounterRegressionRebaselinesInsteadOfWrapping) {
  // A restore/adopt at the same shard count resets the producer counters;
  // judging the wrapped difference would fabricate a mega-segment and a
  // false alarm. The brain must silently re-baseline instead.
  fake_clock clk;
  controller ctl(quiet_config(), clk);
  script_host host(4);
  clk.advance_ms(100);
  ctl.tick(host);
  step(clk, ctl, host, 1.0);
  host.offered.assign(4, 0);  // lanes rebuilt under us
  clk.advance_ms(100);
  ctl.tick(host);  // must re-baseline, not judge
  step(clk, ctl, host, 1.0);
  EXPECT_TRUE(ctl.log().decisions().empty());
  EXPECT_FALSE(ctl.alarm());
}

// --- real hosts: scale round trip, checkpoint/restore -----------------------

TEST(Controller, ScaleRoundTripNtoMtoNIsQueryStableWithExactStreamLength) {
  // The controller itself drives 2 -> 4 -> 8 -> 4 -> 2 on a REAL frontend
  // via front_host + watermarks. Global stream length must survive all four
  // reshards exactly (the remainder-distribution fix), and a persistent
  // elephant's estimate must stay within the transport's movement bound.
  shard_config scfg;
  scfg.window_size = 2u << 20;  // large window: nothing expires mid-test
  scfg.counters = 512;
  scfg.tau = 1.0;
  scfg.seed = 7;
  scfg.shards = 2;
  sharded front(scfg);
  checkpoint_store store;
  front_host<sharded> host(front, store);

  controller_config cfg;
  cfg.sample_interval_ns = 100'000'000;
  cfg.min_segment_packets = 1;
  cfg.load_ratio_high = 1e18;  // scaling only
  cfg.scale_up_pps = 100'000;
  cfg.scale_down_pps = 2'000;  // 500 pkts/100 ms stays under this at N >= 4
  cfg.scale_sustain_ticks = 2;
  cfg.min_shards = 2;
  cfg.max_shards = 8;
  cfg.scale_cooldown_ns = 0;
  fake_clock clk;
  controller ctl(cfg, clk);

  const std::uint64_t kElephant = 0xE1E1E1E1ull;
  std::uint64_t pushed = 0, elephant_count = 0;
  auto ingest = [&](std::size_t n, std::uint64_t seed) {
    auto ids = skewed_ids(n, 0.8, seed, 1u << 12);
    for (std::size_t i = 0; i < ids.size(); i += 10) {
      ids[i] = kElephant;  // ~10% elephant, every arm of the round trip
      ++elephant_count;
    }
    front.update_batch(ids.data(), ids.size());
    pushed += ids.size();
  };

  clk.advance_ms(100);
  ctl.tick(host);  // baseline
  std::uint64_t seed = 1000;
  // Heavy phase: 100k packets per 100 ms tick -> 500k pps/shard at N=2.
  while (front.num_shards() < 8) {
    ingest(100000, seed++);
    clk.advance_ms(100);
    ctl.tick(host);
    ASSERT_LT(seed, 1100u) << "scale-up never reached 8 shards";
  }
  // Light phase: 500 packets per tick -> 625 pps/shard at N=8.
  while (front.num_shards() > 2) {
    ingest(500, seed++);
    clk.advance_ms(100);
    ctl.tick(host);
    ASSERT_LT(seed, 1200u) << "scale-down never returned to 2 shards";
  }
  EXPECT_EQ(ctl.log().count(ev::scale_up), 2u);
  EXPECT_EQ(ctl.log().count(ev::scale_down), 2u);

  // Exact accounting through four reshard transports.
  EXPECT_EQ(front.stream_length(), pushed);
  // Query stability: the elephant moved shards up to four times; each hop
  // moves an estimate by <= one threshold unit, on top of the sketch's own
  // one-sided 2-unit width.
  const double unit =
      static_cast<double>(front.shard(0).overflow_threshold()) / front.shard(0).tau();
  ASSERT_LE(pushed, scfg.window_size) << "test premise broken: window rolled";
  const double est = front.query(kElephant);
  EXPECT_NEAR(est, static_cast<double>(elephant_count), 6.0 * unit + 1e-9);
  const auto hh = front.heavy_hitters(0.015);
  EXPECT_TRUE(std::any_of(hh.begin(), hh.end(),
                          [&](const auto& h) { return h.key == kElephant; }))
      << "elephant lost across the scale round trip";
}

TEST(Controller, FrontHostCheckpointRestoreRoundTrips) {
  shard_config scfg{40000, 128, 1.0, 3, 2};
  sharded front(scfg);
  checkpoint_store store;
  front_host<sharded> host(front, store);

  const auto ids = skewed_ids(120000, 1.0, 11);
  front.update_batch(ids.data(), ids.size());
  const sharded at_checkpoint = front;
  ASSERT_GT(host.checkpoint(), 0u);
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_LE(store.peak_buffered(), 2 * wire::sink::kDefaultChunk)
      << "checkpoint capture must stream, not materialize";

  const auto more = skewed_ids(60000, 1.0, 13);
  front.update_batch(more.data(), more.size());
  ASSERT_NE(front.stream_length(), at_checkpoint.stream_length());

  const std::uint64_t restored = host.restore();
  EXPECT_EQ(restored, at_checkpoint.stream_length());
  EXPECT_EQ(front.stream_length(), at_checkpoint.stream_length());
  for (const auto& hh : at_checkpoint.heavy_hitters(0.01)) {
    EXPECT_DOUBLE_EQ(front.query(hh.key), hh.estimate) << "key " << hh.key;
  }
}

TEST(Controller, InlinePipelineHostSamplesIngestAndRebalances) {
  // A pipeline that was never start()ed runs its stages inline and never
  // touches the RX rings, so pipeline_host must sample each core's ingested
  // count there - or the controller would read 0 offered packets forever.
  pipeline_config cfg;
  cfg.sharding.window_size = 40000;
  cfg.sharding.counters = 256;
  cfg.sharding.tau = 1.0;
  cfg.sharding.seed = 33;
  cfg.sharding.shards = 2;
  pipeline<> pipe(cfg);
  checkpoint_store store;
  pipeline_host<> host(pipe, store);
  fake_clock clk;
  controller ctl(quiet_config(), clk);

  const auto elephants = elephants_on_shard(pipe.frontend().partitioner(), /*shard=*/0, 6);
  clk.advance_ms(100);
  ctl.tick(host);  // baseline
  std::uint64_t fed = 0, seed = 700;
  for (int round = 0; ctl.log().count(ev::rebalance_applied) == 0; ++round) {
    ASSERT_LT(round, 20) << "the skew never triggered a rebalance";
    const auto pkts = packets_of(elephant_mix(4096, 1.0, seed++, elephants, /*every=*/3));
    pipe.process(pkts.data(), pkts.size());
    fed += pkts.size();
    const control_sample s = host.sample();
    ASSERT_EQ(s.offered.size(), pipe.cores());
    std::uint64_t sampled = 0;
    for (std::size_t c = 0; c < pipe.cores(); ++c) {
      EXPECT_EQ(s.offered[c], pipe.report(c).ingested) << "core " << c;
      sampled += s.offered[c];
    }
    EXPECT_EQ(sampled, fed);
    clk.advance_ms(100);
    ctl.tick(host);
  }
  EXPECT_FALSE(pipe.started());
  EXPECT_EQ(pipe.frontend().stream_length(), fed);
}

TEST(Controller, HierarchicalFrontHostRebalancesButCannotRescale) {
  // The HHH frontend gets the same lifecycle except elastic scaling
  // (reshard.hpp: HHH N -> M is future work): rescale reports unsupported
  // and the brain logs scale_rejected instead of wedging.
  using front_t = sharded_h_memento<source_hierarchy>;
  const h_memento_config cfg{40000, 512, 1.0, 0.05, 21};
  front_t front(hhh_shard_config{cfg, 2});
  checkpoint_store store;
  front_host<front_t> host(front, store);

  xoshiro256 rng(17);
  std::vector<packet> pkts;
  for (int i = 0; i < 30000; ++i) {
    pkts.push_back(packet{static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng())});
  }
  front.update_batch(pkts.data(), pkts.size());

  EXPECT_FALSE(host.rescale(4));
  EXPECT_EQ(front.num_shards(), 2u);
  ASSERT_GT(host.checkpoint(), 0u);
  const auto more = pkts;
  front.update_batch(more.data(), more.size());
  const std::uint64_t restored = host.restore();
  EXPECT_EQ(restored, static_cast<std::uint64_t>(pkts.size()));
  EXPECT_EQ(front.stream_length(), pkts.size());
}

// --- the fault-injection soak (runs under TSan in CI) ------------------------

TEST(ControllerSoak, KillAndRestoreMidStreamKeepsAccountingExactAndRecallIntact) {
  // Live threaded pipeline + monitor thread on a fake clock: the controller
  // checkpoints in the background and auto-rebalances the elephant skew;
  // the harness kills a shard mid-stream, restores from the latest
  // checkpoint, keeps streaming, and pins
  //     final stream_length == restored stream + packets ingested after
  // exactly, plus elephant recall over the post-restore window.
  pipeline_config cfg;
  cfg.sharding.window_size = 40000;
  cfg.sharding.counters = 256;
  cfg.sharding.tau = 1.0;
  cfg.sharding.seed = 33;
  cfg.sharding.shards = 4;
  cfg.ring_capacity = 1u << 12;
  pipeline<> pipe(cfg);
  pipe.start();
  checkpoint_store store;
  pipeline_host<> host(pipe, store);

  controller_config ccfg;
  ccfg.sample_interval_ns = 100'000'000;
  ccfg.min_segment_packets = 2048;
  ccfg.load_ratio_high = 1.5;
  ccfg.load_ratio_clear = 1.1;
  ccfg.sustain_ticks = 2;
  ccfg.rebalance_cooldown_ns = 300'000'000;
  ccfg.checkpoint_interval_ns = 300'000'000;
  fake_clock clk;
  controller_service<pipeline_host<>> service(host, ccfg, clk);
  service.start();

  const auto elephants =
      elephants_on_shard(pipe.frontend().partitioner(), /*shard=*/0, 6);
  std::uint64_t seed = 500;
  std::uint64_t ingested_pre = 0;
  auto burst = [&](std::size_t n) {
    const auto pkts = packets_of(elephant_mix(n, 1.0, seed++, elephants, /*every=*/3));
    service.apply([&] { pipe.process(pkts.data(), pkts.size()); });
    return pkts.size();
  };

  // Phase A: stream with skew while the monitor ticks; wait until at least
  // one background checkpoint has been taken (bounded).
  for (int round = 0; round < 40; ++round) {
    ingested_pre += burst(4096);
    clk.advance_ms(50);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int spin = 0; service.count(ev::checkpoint_taken) == 0; ++spin) {
    ASSERT_LT(spin, 20000) << "no background checkpoint ever landed";
    clk.advance_ms(50);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(service.count(ev::rebalance_applied), 1u)
      << "elephant skew should have tripped an automatic rebalance";

  // Kill shard 1 mid-stream, then restore from the latest checkpoint. The
  // clock is frozen here, so the monitor cannot slip a checkpoint of the
  // wounded state in between.
  service.apply([&] { host.kill_shard(1); });
  const std::uint64_t restored = service.restore();
  ASSERT_GT(restored, 0u);
  ASSERT_LE(restored, ingested_pre);
  EXPECT_EQ(service.count(ev::restored), 1u);

  // Phase B: keep streaming well past a full window so every queryable
  // packet is post-restore state.
  std::uint64_t ingested_post = 0;
  for (int round = 0; round < 40; ++round) {
    ingested_post += burst(4096);
    clk.advance_ms(50);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.stop();

  // Exact packet accounting across kill + restore + any number of
  // rebalances: nothing lost, nothing double-counted.
  pipe.drain();
  EXPECT_EQ(pipe.frontend().stream_length(), restored + ingested_post);
  EXPECT_EQ(pipe.report().drops, 0u) << "block policy must stay lossless";

  // Elephant recall over the final window: each elephant carries ~5.5% of
  // traffic against a 2% bar - all must be found despite kill/restore and
  // the migrations in between.
  const auto hh = pipe.heavy_hitters(0.02);
  for (const auto e : elephants) {
    EXPECT_TRUE(std::any_of(hh.begin(), hh.end(), [&](const auto& h) { return h.key == e; }))
        << "elephant " << e << " lost across kill/restore";
  }
  // And the decision log tells the whole story in order: at least one
  // checkpoint before the restore, the restore itself, and samples after.
  const auto events = service.events();
  const auto is_restore = [](const control_record& r) { return r.kind == ev::restored; };
  const auto rit = std::find_if(events.begin(), events.end(), is_restore);
  ASSERT_NE(rit, events.end());
  EXPECT_TRUE(std::any_of(events.begin(), rit,
                          [](const control_record& r) { return r.kind == ev::checkpoint_taken; }));
  EXPECT_EQ(rit->detail, restored);
  pipe.stop();
}

TEST(ControllerSoak, WatermarksWalkALivePipelineTwoFourTwoWithExactAccounting) {
  // The elastic half of the lifecycle on the threaded binding: a monitor
  // thread on a fake clock runs the watermark scaler against a started
  // pipeline through pipeline_host::rescale. A heavy phase must double the
  // cores to the clamp (4), a light phase halve them back (2); each rescale
  // rebuilds the cores behind the drain barrier while the producer keeps
  // ingesting through the control lock, and not one packet may be lost.
  pipeline_config cfg;
  cfg.sharding.window_size = 2u << 20;  // large window: nothing expires mid-test
  cfg.sharding.counters = 512;
  cfg.sharding.tau = 1.0;
  cfg.sharding.seed = 7;
  cfg.sharding.shards = 2;
  cfg.ring_capacity = 1u << 12;
  pipeline<> pipe(cfg);
  pipe.start();
  checkpoint_store store;
  pipeline_host<> host(pipe, store);

  controller_config ccfg;
  ccfg.sample_interval_ns = 100'000'000;
  ccfg.min_segment_packets = 1;
  ccfg.load_ratio_high = 1e18;  // scaling only
  ccfg.scale_up_pps = 50'000;   // 20k pkts/100 ms = 100k pps/shard at N=2
  ccfg.scale_down_pps = 2'000;  // 500 pkts/100 ms = 1250 pps/shard at N=4
  ccfg.scale_sustain_ticks = 2;
  ccfg.min_shards = 2;
  ccfg.max_shards = 4;
  ccfg.scale_cooldown_ns = 0;
  fake_clock clk;
  controller_service<pipeline_host<>> service(host, ccfg, clk);
  service.start();

  std::uint64_t offered = 0, seed = 2000;
  // One burst per tick: advance the clock, then wait (bounded) until the
  // monitor has ticked, so every judged segment holds exactly one burst.
  auto round = [&](std::size_t n) {
    const auto pkts = packets_of(skewed_ids(n, 0.8, seed++));
    service.apply([&] { pipe.process(pkts.data(), pkts.size()); });
    offered += pkts.size();
    clk.advance_ms(100);
    for (int spin = 0; service.due(); ++spin) {
      ASSERT_LT(spin, 200000) << "monitor thread never ticked";
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  auto cores = [&] { return service.apply([&] { return pipe.cores(); }); };

  round(20000);  // baseline
  for (int i = 0; cores() < 4; ++i) {
    ASSERT_LT(i, 50) << "scale-up never reached 4 cores";
    round(20000);
  }
  for (int i = 0; cores() > 2; ++i) {
    ASSERT_LT(i, 50) << "scale-down never returned to 2 cores";
    round(500);
  }
  service.stop();
  EXPECT_EQ(service.count(ev::scale_up), 1u);
  EXPECT_EQ(service.count(ev::scale_down), 1u);
  EXPECT_EQ(service.count(ev::scale_rejected), 0u);

  pipe.drain();
  EXPECT_TRUE(pipe.started());
  EXPECT_EQ(pipe.config().sharding.shards, 2u);
  EXPECT_EQ(pipe.frontend().stream_length(), offered);
  const auto total = pipe.report();
  EXPECT_EQ(total.ingested, offered);
  EXPECT_EQ(total.drops, 0u);
  pipe.stop();
}

}  // namespace
}  // namespace memento
