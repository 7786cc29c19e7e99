// Run-to-completion ingest pipeline: the staged trace -> shard -> detect ->
// mitigate path as one subsystem, with per-core contexts.
//
// This is the repository's one threaded front door: the appliance, the
// controller's threaded host and the benches all ingest through it (key-only
// streams as the packets their flow ids name - flow_id is one-to-one). Each
// core owns a core_context and runs EVERY stage to completion locally, the
// way real fast paths (DPDK-style run-to-completion, RSS-steered NIC queues)
// do - no packet crosses a core boundary after steering, and the only
// inter-thread traffic is the batched RX rings.
//
// Stages, per core:
//
//   ingest    a burst of trace/packet.hpp packets arrives as a zero-copy
//             span - from the core's RX ring (push front door) or straight
//             from its pre-steered packet_ring slice (pull/soak mode);
//   parse     flow keys are extracted in place from the packet span
//             (Traits::key_of); under `enforce`, packets from blocked /8
//             subnets are dropped here (branch-free compaction), before
//             they cost a sketch update;
//   route     resolved before the ring: the producer (or the RSS pre-steer)
//             partitions by the same shard_partitioner the frontend routes
//             with, so core c's ring carries exactly shard c's keyspace;
//   update    the PR 2 batch kernel on the core's own shard;
//   detect    every detect_stride packets, the core aggregates its shard's
//             candidate set into per-/8-subnet window shares (read-only on
//             the sketch) and feeds them to its mitigation_policy;
//   mitigate  policy decisions (rate-limit / block / release) update the
//             core's 256-bit subnet bitmaps; `enforce` makes the parse
//             stage act on them, `observe` (default) only accounts.
//
// Drive modes:
//
//   * deterministic (no threads): process() steers each burst and runs the
//     stages inline, core by core, on the calling thread. State is
//     BIT-IDENTICAL to sharded_memento::update_batch over the same packets
//     (same partitioner, same per-shard subsequences, same batch kernel) -
//     the differential tests compare save() bytes. Detection defaults to
//     observe mode, which never writes the sketch, so turning it on keeps
//     the identity.
//   * threaded push: start() spawns one worker per core consuming its RX
//     ring; process()/offer() feed them under an explicit backpressure
//     policy (block = lossless, drop = tail-drop with exact per-core
//     accounting; see shard/backpressure.hpp). The caller is the single
//     producer of every ring and worker c the single consumer of ring c
//     AND the only thread that mutates shard c, so the rings'
//     acquire/release pairs are the only synchronization (TSan-proven);
//     drain() is the quiescence barrier that rebalance(), rescale(),
//     adopt() and kill_shard() all ride.
//   * threaded pull (run_pull): one thread per core pulls bursts directly
//     from its pre-steered packet_ring until a deadline - the soak
//     configuration, with zero producer on the measured path. Per-burst
//     service latency lands in each core's latency_histogram.
//
// Detection semantics under sharding: a /8 subnet's flows spread across
// cores, so each core sees ~1/N of the subnet's traffic against a window of
// ~W/N packets - the per-shard share is an unbiased estimate of the global
// share (modulo the phase drift quantified in docs/ACCURACY.md), which is
// why per-core policies converge on the same subnets a global detector
// would flag without any cross-core coordination on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "hierarchy/prefix1d.hpp"
#include "lb/mitigation_policy.hpp"
#include "shard/backpressure.hpp"
#include "shard/sharded_memento.hpp"
#include "shard/spsc_queue.hpp"
#include "snapshot/reshard.hpp"
#include "trace/packet.hpp"
#include "trace/packet_ring.hpp"
#include "util/backoff.hpp"
#include "util/latency_histogram.hpp"

namespace memento {

/// How packets map into the measurement domain: the flow key the sketches
/// count, and the source address the detect stage aggregates into subnets.
/// The default is the repository-wide (src, dst) flow id.
struct flow_key_traits {
  using key_type = std::uint64_t;
  [[nodiscard]] static key_type key_of(const packet& p) noexcept { return flow_id(p); }
  [[nodiscard]] static std::uint32_t src_of(key_type key) noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }
};

struct pipeline_config {
  shard_config sharding;                 ///< cores == sharding.shards (one shard per core)
  std::size_t ring_capacity = 1u << 14;  ///< RX ring slots per core (packets)
  backpressure_policy policy = backpressure_policy::block;
  /// Packets between detection sweeps per core; 0 disables the detect and
  /// mitigate stages entirely (pure measurement pipeline).
  std::uint64_t detect_stride = 0;
  lb::mitigation_config mitigation{};  ///< thresholds for the mitigate stage
  /// false = observe (decisions only accounted - keeps deterministic mode
  /// bit-identical to the frontend); true = enforce (blocked subnets are
  /// dropped in the parse stage, before the sketch sees them).
  bool enforce = false;
};

/// Post-drain per-core accounting. `ingested` counts packets that entered
/// the core's stages; of those, `mitigated` were dropped by enforcement
/// before the update stage, the rest reached the sketch. rx holds the
/// producer-side ring counters (enqueued / drops / occupancy high-water
/// mark); ingested == rx.enqueued once drained.
struct core_report {
  std::size_t core = 0;
  std::uint64_t ingested = 0;
  std::uint64_t mitigated = 0;
  std::uint64_t bursts = 0;
  std::uint64_t detect_sweeps = 0;
  std::size_t active_rules = 0;
  ring_stats rx;
  latency_histogram latency;  ///< per-burst service time, nanoseconds
};

/// Whole-pipeline rollup: sums of the per-core counters plus the merged
/// latency histogram (bucket-exact, as if one histogram had seen every
/// burst).
struct pipeline_report {
  std::uint64_t ingested = 0;
  std::uint64_t mitigated = 0;
  std::uint64_t drops = 0;
  std::uint64_t bursts = 0;
  std::size_t active_rules = 0;
  std::uint64_t occupancy_hwm = 0;  ///< max over cores
  latency_histogram latency;
};

template <typename Traits = flow_key_traits>
class pipeline {
 public:
  using key_type = typename Traits::key_type;
  using frontend_type = sharded_memento<key_type>;
  using heavy_hitter = typename frontend_type::heavy_hitter;

  explicit pipeline(const pipeline_config& config) : config_(config), frontend_(config.sharding) {
    build_cores();
  }

  ~pipeline() { stop(); }
  pipeline(const pipeline&) = delete;
  pipeline& operator=(const pipeline&) = delete;

  [[nodiscard]] std::size_t cores() const noexcept { return contexts_.size(); }
  [[nodiscard]] const pipeline_config& config() const noexcept { return config_; }

  /// The owning core of a packet - the route stage, exposed so callers
  /// (appliance RSS pre-steer, tests) steer with the authoritative hash.
  [[nodiscard]] std::size_t core_of(const packet& p) const noexcept {
    return frontend_.shard_of(Traits::key_of(p));
  }

  // --- threaded push front door --------------------------------------------

  /// Spawns one worker per core consuming its RX ring. Idempotent.
  void start() {
    if (started_) return;
    stop_.store(false, std::memory_order_release);
    workers_.reserve(cores());
    try {
      for (std::size_t c = 0; c < cores(); ++c) {
        workers_.emplace_back([this, c] { worker_loop(c); });
      }
    } catch (...) {
      stop_.store(true, std::memory_order_release);
      for (auto& w : workers_) w.join();
      workers_.clear();
      throw;
    }
    started_ = true;
  }

  /// Drains outstanding bursts, then stops and joins the workers. Safe to
  /// call when not started.
  void stop() {
    if (!started_) return;
    stop_.store(true, std::memory_order_release);
    for (auto& w : workers_) w.join();
    workers_.clear();
    started_ = false;
  }

  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Steers a burst by flow key and delivers each core's packets - to its
  /// RX ring when started (under the configured backpressure policy), or
  /// through the stages inline (deterministic mode) otherwise. Single
  /// producer: call from one thread.
  void process(const packet* pkts, std::size_t n) {
    partition_into(steer_, [this](const packet& p) { return core_of(p); }, pkts, n);
    for (std::size_t c = 0; c < cores(); ++c) {
      if (steer_[c].empty()) continue;
      if (started_) {
        offer(c, std::span<const packet>(steer_[c]));
      } else {
        run_stages(c, std::span<const packet>(steer_[c]), /*timed=*/false);
      }
    }
  }

  void process(std::span<const packet> pkts) { process(pkts.data(), pkts.size()); }

  /// Delivers an already-steered burst straight to one core's RX ring (the
  /// appliance path: RSS happened at trace load). Returns packets accepted;
  /// under block that is always burst.size(), under drop the shortfall has
  /// been counted in that core's ring stats. Requires started().
  std::size_t offer(std::size_t core, std::span<const packet> burst) {
    return offer_burst(*contexts_[core]->rx, burst.data(), burst.size(), config_.policy,
                       rx_stats_[core], producer_backoff_);
  }

  /// Blocks until every delivered packet has been run to completion. After
  /// drain() (and until the next process/offer) the calling thread may read
  /// the frontend and the reports - the consumer's release-pop on an empty
  /// ring happens-after its last sketch mutation, so observing every ring
  /// empty (acquire) orders every core-side write before this return.
  void drain() const {
    idle_backoff backoff;
    for (const auto& ctx : contexts_) {
      while (!ctx->rx->drained()) backoff.idle();
      backoff.reset();
    }
  }

  /// Skew-aware rebalance behind the drain barrier. TSan-clean with no
  /// extra locks: an idle worker touches only its ring's atomics and
  /// stop_, and run_stages re-resolves the shard after each ring acquire,
  /// so the swapped table publishes through the same release/acquire pairs
  /// that carry bursts. Subsequent process() calls steer with the new
  /// table; pre-steered pull-mode sources do NOT re-steer (run_pull is
  /// synchronous, so the two cannot interleave from the single producer
  /// thread anyway).
  template <typename Policy>
  bool rebalance(const Policy& policy) {
    drain();
    return frontend_.rebalance(policy);
  }

  // --- control-plane lifecycle hooks (producer thread, behind drain()) -----

  /// Elastic N -> M: reshards the frontend onto `target` shards through the
  /// snapshot transport (snapshot/reshard.hpp reshard_to: window state
  /// carried, no replay, routing back on plain hashing) and rebuilds one
  /// core per shard - see adopt() for the rebuild. False (and no change)
  /// when target equals cores() or the transport refuses the geometry.
  bool rescale(std::size_t target) {
    if (target == cores()) return false;
    drain();
    auto next = reshard_to(frontend_, target);
    if (!next) return false;
    adopt(std::move(*next));
    return true;
  }

  /// Replaces the whole frontend (e.g. a checkpoint restored after a
  /// crash); config().sharding becomes the replacement's
  /// config_snapshot(). Workers, if started, are stopped and joined, the
  /// per-core contexts and RX rings are rebuilt for the replacement's shard
  /// count, and the workers restart - no thread ever sees a half-built
  /// geometry. The retiring cores' counters fold into report(), so
  /// `enqueued + drops == offered` and `stream_length + mitigated ==
  /// offered` stay exact; report(c), ingest_stats(c) and the mitigation
  /// state (rules, blocked subnets, detect credit) start fresh.
  void adopt(frontend_type&& replacement) {
    drain();
    const bool was_started = started_;
    stop();
    retired_ = std::make_unique<pipeline_report>(report());
    retired_->active_rules = 0;  // the retiring policies' rules die with them
    frontend_ = std::move(replacement);
    config_.sharding = frontend_.config_snapshot();
    build_cores();
    if (was_started) start();
  }

  /// Fault injection: resets shard c to a blank sketch (window, candidates
  /// and stream accounting lost), as if its process died and came back
  /// empty. Core c's context is untouched; the worker re-resolves its
  /// shard per burst, so the replacement publishes like a rebalance swap.
  void kill_shard(std::size_t c) {
    drain();
    frontend_.shard_mut(c) = typename frontend_type::sketch_type(
        frontend_type::shard_config_for(frontend_.config_snapshot(), c));
  }

  // --- threaded pull mode (the soak configuration) -------------------------

  /// Runs every core to completion against its pre-steered source until
  /// `seconds` elapse (checked at burst granularity), pulling bursts of
  /// `burst` packets. No producer on the measured path; per-burst service
  /// time lands in each core's latency histogram. Requires !started();
  /// sources.size() must equal cores() (source c must hold core c's
  /// keyspace - use rss_steer with core_of). Returns wall seconds measured
  /// across the parallel section.
  double run_pull(std::span<packet_ring> sources, double seconds, std::size_t burst = 256) {
    if (started_) throw std::logic_error("pipeline: run_pull requires the push workers stopped");
    if (sources.size() != cores()) {
      throw std::invalid_argument("pipeline: need one pre-steered source per core");
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> pullers;
    pullers.reserve(cores());
    for (std::size_t c = 0; c < cores(); ++c) {
      pullers.emplace_back([this, c, &sources, burst, deadline] {
        while (std::chrono::steady_clock::now() < deadline) {
          const auto span = sources[c].next_burst(burst);
          if (span.empty()) break;  // empty slice: nothing this core can do
          run_stages(c, span, /*timed=*/true);
        }
      });
    }
    for (auto& p : pullers) p.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }

  // --- post-drain reads ----------------------------------------------------

  /// The deterministic frontend. Valid to read between drain() (or run_pull
  /// returning, or before start()) and the next delivery.
  [[nodiscard]] const frontend_type& frontend() const noexcept { return frontend_; }

  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters(double theta) const {
    drain();
    return frontend_.heavy_hitters(theta);
  }

  /// Core c's producer-side ring counters (enqueued / drops / occupancy
  /// high-water mark). Unlike report(), this is owned by the producer
  /// thread and safe to read there WITHOUT draining - the controller's
  /// monitor samples load share from these between bursts.
  [[nodiscard]] const ring_stats& ingest_stats(std::size_t c) const noexcept {
    return rx_stats_[c];
  }

  /// Core c's accounting (same read discipline as frontend()).
  [[nodiscard]] core_report report(std::size_t c) const {
    const core_context& ctx = *contexts_[c];
    core_report r;
    r.core = c;
    r.ingested = ctx.ingested;
    r.mitigated = ctx.mitigated;
    r.bursts = ctx.bursts;
    r.detect_sweeps = ctx.detect_sweeps;
    r.active_rules = ctx.policy.active_rules();
    r.rx = rx_stats_[c];
    r.latency = ctx.latency;
    return r;
  }

  /// Sum of the per-core reports plus the merged latency histogram, on top
  /// of the totals of every core set retired by adopt()/rescale().
  [[nodiscard]] pipeline_report report() const {
    pipeline_report total = retired_ ? *retired_ : pipeline_report{};
    for (std::size_t c = 0; c < cores(); ++c) {
      const auto r = report(c);
      total.ingested += r.ingested;
      total.mitigated += r.mitigated;
      total.drops += r.rx.drops;
      total.bursts += r.bursts;
      total.active_rules += r.active_rules;
      if (r.rx.occupancy_hwm > total.occupancy_hwm) total.occupancy_hwm = r.rx.occupancy_hwm;
      total.latency.merge(r.latency);
    }
    return total;
  }

  /// True when core c currently blocks the given /8 subnet (enforce mode's
  /// parse-stage predicate, exposed for tests and introspection).
  [[nodiscard]] bool blocks(std::size_t core, std::uint32_t subnet_byte) const noexcept {
    return test_bit(contexts_[core]->blocked, subnet_byte);
  }

 private:
  /// Everything one core touches while running its stages - consumer-side
  /// state, owned by exactly one worker (or by the caller in deterministic
  /// mode). Heap-allocated one per core so neighboring cores never share a
  /// cache line.
  struct core_context {
    explicit core_context(const pipeline_config& config)
        : rx(std::make_unique<spsc_ring<packet>>(config.ring_capacity)),
          policy(config.mitigation) {}

    std::unique_ptr<spsc_ring<packet>> rx;
    std::vector<key_type> keys;  ///< parse-stage scratch (sized to the largest burst)
    // detect-stage scratch, reused every sweep: the per-/8 share
    // accumulator, the (prefix key, share) snapshot handed to the policy,
    // and the policy's decision buffer.
    std::array<double, 256> subnet_share{};
    std::array<std::pair<std::uint64_t, double>, 256> snapshot{};
    std::vector<lb::mitigation_decision> decisions;
    lb::mitigation_policy policy;
    std::array<std::uint64_t, 4> blocked{};  ///< 256-bit /8 deny bitmap
    bool any_blocked = false;
    std::uint64_t ingested = 0;
    std::uint64_t mitigated = 0;
    std::uint64_t bursts = 0;
    std::uint64_t detect_credit = 0;
    std::uint64_t detect_sweeps = 0;
    latency_histogram latency;
  };

  /// One context, RX ring, ring-stats slot and steering buffer per shard.
  /// Only with the workers stopped.
  void build_cores() {
    const std::size_t cores = frontend_.num_shards();
    rx_stats_.assign(cores, ring_stats{});
    contexts_.clear();
    contexts_.reserve(cores);
    for (std::size_t c = 0; c < cores; ++c) {
      contexts_.push_back(std::make_unique<core_context>(config_));
    }
    steer_.assign(cores, {});
  }

  [[nodiscard]] static bool test_bit(const std::array<std::uint64_t, 4>& bits,
                                     std::uint32_t byte) noexcept {
    return (bits[(byte >> 6) & 3] >> (byte & 63)) & 1u;
  }
  static void assign_bit(std::array<std::uint64_t, 4>& bits, std::uint32_t byte,
                         bool on) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (byte & 63);
    if (on) {
      bits[(byte >> 6) & 3] |= mask;
    } else {
      bits[(byte >> 6) & 3] &= ~mask;
    }
  }

  /// The run-to-completion stage chain for one burst on one core. All state
  /// it touches is core c's own (context + shard), which is the whole
  /// thread-safety argument.
  void run_stages(std::size_t c, std::span<const packet> burst, bool timed) {
    core_context& ctx = *contexts_[c];
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};

    // parse (in place from the packet span) + enforce-mode mitigate filter.
    // The filter is branch-free in-place compaction: every key is written,
    // and the write cursor advances only past unblocked packets - a flood's
    // unpredictable blocked/allowed mix never reaches the branch predictor.
    if (ctx.keys.size() < burst.size()) ctx.keys.resize(burst.size());
    key_type* const keys = ctx.keys.data();
    std::size_t kept = 0;
    if (config_.enforce && ctx.any_blocked) {
      for (const packet& p : burst) {
        keys[kept] = Traits::key_of(p);
        kept += test_bit(ctx.blocked, p.src >> 24) ? 0 : 1;
      }
      ctx.mitigated += burst.size() - kept;
    } else {
      for (const packet& p : burst) keys[kept++] = Traits::key_of(p);
    }

    // update: the batch kernel on this core's own shard. Resolved after the
    // ring acquire (push mode), so a rebalance-swapped frontend or a killed
    // shard publishes through the same pairs as the bursts - see rebalance().
    if (kept > 0) frontend_.shard_mut(c).update_batch(keys, kept);

    // detect -> mitigate, every detect_stride packets of this core's stream
    if (config_.detect_stride > 0) {
      ctx.detect_credit += burst.size();
      while (ctx.detect_credit >= config_.detect_stride) {
        ctx.detect_credit -= config_.detect_stride;
        detect_sweep(c);
      }
    }

    ctx.ingested += burst.size();
    ++ctx.bursts;
    if (timed) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      ctx.latency.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
    }
  }

  /// One detection sweep on core c: aggregate the shard's candidate set
  /// into per-/8-subnet window shares (read-only on the sketch), let the
  /// mitigation policy grade them, and apply its transitions to the subnet
  /// bitmaps. O(candidates) - a few hundred entries, amortized across
  /// detect_stride packets - into fixed per-core scratch: a 256-entry /8
  /// accumulator instead of a map, and the policy's allocation-free form.
  void detect_sweep(std::size_t c) {
    core_context& ctx = *contexts_[c];
    const auto& shard = frontend_.shard(c);
    const double window = static_cast<double>(shard.window_size());
    ctx.subnet_share.fill(0.0);
    shard.for_each_candidate([&](const key_type& key, double est) {
      ctx.subnet_share[Traits::src_of(key) >> 24] += est / window;
    });
    // A /8 with no candidate mass is left out: the policy reads an absent
    // subnet as share 0, so the decisions are the same either way.
    std::size_t n = 0;
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
      if (ctx.subnet_share[byte] > 0.0) {
        ctx.snapshot[n++] = {prefix1d::make_key(byte << 24, 3), ctx.subnet_share[byte]};
      }
    }
    ctx.policy.evaluate(std::span(ctx.snapshot.data(), n), ctx.decisions);
    for (const auto& d : ctx.decisions) {
      const std::uint32_t byte = prefix1d::key_addr(d.prefix_key) >> 24;
      assign_bit(ctx.blocked, byte, d.to == lb::mitigation_level::blocked);
    }
    ctx.any_blocked = (ctx.blocked[0] | ctx.blocked[1] | ctx.blocked[2] | ctx.blocked[3]) != 0;
    ++ctx.detect_sweeps;
  }

  void worker_loop(std::size_t c) {
    core_context& ctx = *contexts_[c];
    spsc_ring<packet>& ring = *ctx.rx;
    idle_backoff backoff;
    for (;;) {
      const auto [data, n] = ring.front_span();
      if (n == 0) {
        // Check stop only when empty: enqueued bursts always finish, so
        // stop() doubles as a drain.
        if (stop_.load(std::memory_order_acquire)) return;
        backoff.idle();
        continue;
      }
      backoff.reset();
      run_stages(c, std::span<const packet>(data, n), /*timed=*/true);
      ring.pop(n);
    }
  }

  pipeline_config config_;
  frontend_type frontend_;
  std::vector<std::unique_ptr<core_context>> contexts_;
  std::vector<std::vector<packet>> steer_;  ///< producer-side route scratch
  std::vector<ring_stats> rx_stats_;        ///< producer-side ring accounting
  /// Totals of cores retired by adopt(); on the heap, so a pipeline that
  /// never rescales does not carry a retired latency histogram.
  std::unique_ptr<pipeline_report> retired_;
  idle_backoff producer_backoff_;           ///< producer's full-ring wait ladder
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace memento
