// Sharded Memento frontend: per-core keyspace partitioning with mergeable
// window queries.
//
// A single Memento instance tops out at one core's update rate (~30 Mpps
// batched). The next multiplier is horizontal: hash-partition the *flow
// keyspace* across N independent memento_sketch instances and run one per
// core. Because the partition is by key (shard_partitioner), every packet of
// a flow lands on the same shard, so
//
//     f_global(x) == f_shard_of(x)(x)
//
// and a point query routes to one shard with no combination step. Set
// queries (heavy_hitters, top) merge by *concatenation*: the per-shard
// candidate sets are disjoint, so the merge is gather + global-threshold
// filter + sort - no cross-shard summation, no double counting. This is the
// classic mergeable-summary route to multicore sketching (cf. the sliding-
// window heavy-hitters literature in PAPERS.md).
//
// Window semantics and phase skew: each shard keeps its own packet clock and
// a window of ceil(W/N) of *its own* packets (per-shard counters, the second
// option of the design space; lock-step clocks driven by a shared counter
// would serialize every update on one atomic and forfeit the scaling this
// subsystem exists for). Shard s's window therefore spans roughly
// (W/N) / rho_s global packets, where rho_s is its share of the stream -
// this "window coverage" (window_coverage(s)) is the phase-drift bound, and
// it has two components:
//
//   * statistical: hashed partitioning makes n_s ~ Binomial(n, 1/N), so
//     rho_s = 1/N * (1 + O(sqrt(N/n))) - a ~2% coverage wobble at
//     W = 2^20, N = 8, vanishing as the stream grows;
//   * systematic: keyspace skew. A shard that owns a dominant flow is
//     overloaded (rho_s up to 1/N + s_max, with s_max the heaviest flow's
//     traffic share), so its window spans *fewer* global packets - e.g. a
//     flow carrying 20% of traffic on a 4-shard deployment compresses its
//     shard's coverage to (1/4)/(0.25 + 0.20 * 3/4) = ~0.62 W. Underloaded
//     shards symmetrically cover more (older packets linger).
//
// Point queries are strictly one-sided with respect to the OWNING SHARD'S
// window (that is the guarantee Memento gives on the stream it saw); with
// respect to the global last-W window they carry the coverage factor as a
// multiplicative fuzz, so borderline flows near a detection bar can shift
// by ~(1 - coverage) * frequency in either direction. Deployments where
// s_max is small (backbone-like mixes) get coverage ~1 everywhere and can
// ignore this; deployments with elephants should monitor stream_skew() /
// window_coverage() and call rebalance() with a placement policy
// (shard/rebalance.hpp): the partitioner's TABLE mode re-routes hot hash
// buckets onto cold shards through the snapshot reshard path, recovering
// coverage without replaying the stream (docs/ACCURACY.md derives the
// model; tests/rebalance_test.cpp pins the recovery). Both drift components
// and their recall/precision impact are pinned by tests/shard_test.cpp
// (PhaseDrift*, ShardedSkew*).
//
// Error accounting: the shard geometry divides both W and k by N, so the
// per-shard overflow threshold T = W/N * tau / (k/N) equals the single-
// instance threshold and the absolute estimate width 4*T/tau (= epsilon_a * W
// for k = 4/epsilon_a) is *unchanged* - a sharded deployment answers with
// the same packet-unit error bars as one big instance, it just sustains N
// times the update rate.
//
// This class is the single-threaded deterministic frontend: update routes to
// the owning shard inline; update_batch partitions the burst into per-shard
// scratch buffers and feeds each shard one span via update_batch (the PR 2
// batch kernel is exactly the per-shard loop body). Shard s's state is
// bit-identical to a standalone memento_sketch configured with
// shard_config_for(config, s) and fed the subsequence of keys it owns - the
// differential tests assert this, and it is what makes the threaded
// pipeline (pipeline/pipeline.hpp) testable: same partition, same spans,
// same state.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detection_model.hpp"
#include "core/memento.hpp"
#include "shard/partitioner.hpp"
#include "util/wire.hpp"

namespace memento {

/// Construction parameters for `sharded_memento`. Window and counters are
/// GLOBAL budgets, divided evenly across shards (each rounded up, so the
/// effective global window is >= the request, as with memento_config).
struct shard_config {
  std::uint64_t window_size = 1 << 20;  ///< W across all shards, in packets
  std::size_t counters = 512;           ///< total Space-Saving counters across shards
  double tau = 1.0;                     ///< Full-update probability (per shard)
  std::uint64_t seed = 1;               ///< base seed; shards derive distinct streams
  std::size_t shards = 1;               ///< N: number of partitions (one per core)
};

template <typename Key = std::uint64_t>
class sharded_memento {
 public:
  using sketch_type = memento_sketch<Key>;
  using heavy_hitter = typename sketch_type::heavy_hitter;

  explicit sharded_memento(const shard_config& config)
      : sharded_memento(config, shard_partitioner<Key>(config.shards)) {}

  /// Weighted (TABLE-mode) frontend: routes through `table` (see
  /// partitioner.hpp). A uniform table is bit-identical to the plain ctor;
  /// a skewed one is what the rebalancer installs. Throws on a table that
  /// does not fit config.shards.
  sharded_memento(const shard_config& config, shard_table table)
      : sharded_memento(config, shard_partitioner<Key>(config.shards, std::move(table))) {}

  /// The memento_config shard s runs with: W and k divided by N (rounded up,
  /// never below 1) and a per-shard seed decorrelated via mix64, so shards
  /// do not sample in lockstep. Exposed so differential tests (and any
  /// distributed deployment that pins shards to processes) can construct
  /// bit-identical standalone references.
  [[nodiscard]] static memento_config shard_config_for(const shard_config& config,
                                                       std::size_t shard) {
    memento_config c;
    c.window_size = shard_share(config.window_size, config.shards);
    c.counters = static_cast<std::size_t>(shard_share(config.counters, config.shards));
    c.tau = config.tau;
    c.seed = shard_seed(config.seed, shard);
    return c;
  }

  /// Owning shard of x (pure; stable for the lifetime of the frontend).
  [[nodiscard]] std::size_t shard_of(const Key& x) const noexcept { return part_(x); }

  /// The key's routing bucket - the rebalancer's migration unit. Flat
  /// frontends route by the key itself, so every key has an owning bucket.
  [[nodiscard]] std::size_t bucket_of(const Key& x) const noexcept {
    return part_.bucket_of(x);
  }

  /// Attribution walk for the rebalancer's per-bucket load model
  /// (shard/rebalance.hpp): for a flat frontend every candidate flow is its
  /// own routable unit, so this is exactly shard s's candidate set.
  template <typename Fn>
  void for_each_attributable(std::size_t s, Fn&& fn) const {
    shards_[s].for_each_candidate(std::forward<Fn>(fn));
  }

  /// Routes one packet to its owning shard. O(1).
  void update(const Key& x) { shards_[part_(x)].update(x); }

  /// Burst ingest: partitions the span into per-shard scratch buffers (one
  /// hash + append per key, order-preserving within each shard), then feeds
  /// each shard its keys through the batch kernel. Equivalent to n routed
  /// update() calls except that shard sampling streams interleave
  /// differently; equal to feeding each shard its owned subsequence.
  void update_batch(const Key* xs, std::size_t n) {
    if (shards_.size() == 1) {  // no partition pass needed
      shards_[0].update_batch(xs, n);
      return;
    }
    partition_into(scratch_, part_, xs, n);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!scratch_[s].empty()) shards_[s].update_batch(scratch_[s].data(), scratch_[s].size());
    }
  }

  void update_batch(std::span<const Key> xs) { update_batch(xs.data(), xs.size()); }

  // --- queries (route to the owning shard; see file comment) ---------------

  [[nodiscard]] double query(const Key& x) const { return shards_[part_(x)].query(x); }
  [[nodiscard]] double query_lower(const Key& x) const {
    return shards_[part_(x)].query_lower(x);
  }
  [[nodiscard]] double query_midpoint(const Key& x) const {
    return shards_[part_(x)].query_midpoint(x);
  }

  /// Worst-case width of the [lower, upper] interval - identical for every
  /// shard by construction (same T, same tau), so the global width is the
  /// per-shard width.
  [[nodiscard]] double estimate_width() const noexcept { return shards_[0].estimate_width(); }

  /// All window heavy hitters at threshold theta (fraction of the GLOBAL
  /// window): gather each shard's candidates through the no-copy hook,
  /// filter at theta * window_size(), sort by estimate. Because the
  /// keyspace is partitioned, this equals the concatenation of per-shard
  /// heavy_hitters at the same absolute bar.
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters(double theta) const {
    std::vector<heavy_hitter> out;
    out.reserve(candidate_count());
    const double bar = theta * static_cast<double>(window_size());
    for (const auto& shard : shards_) {
      shard.for_each_candidate([&](const Key& key, double est) {
        if (est >= bar) out.push_back({key, est});
      });
    }
    std::sort(out.begin(), out.end(),
              [](const heavy_hitter& a, const heavy_hitter& b) { return a.estimate > b.estimate; });
    return out;
  }

  /// heavy_hitters() with the coverage-scaled per-shard bars of the
  /// ACCURACY.md drift model: shard s's candidates are admitted at
  /// theta * coverage(s) (saturated; detection::coverage_scaled_bar) instead
  /// of theta * W, so borderline hitters on an overloaded shard - whose
  /// window spans fewer global packets than nominal - stop flickering out.
  /// Reported estimates are re-centered onto the global window by the same
  /// factor, keeping the theta-cut and the printed numbers consistent.
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters_coverage_scaled(double theta) const {
    std::vector<heavy_hitter> out;
    out.reserve(candidate_count());
    const double w = static_cast<double>(window_size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const double scale = detection::coverage_scale(w, window_coverage(s));
      const double bar = theta * w / scale;
      shards_[s].for_each_candidate([&](const Key& key, double est) {
        if (est >= bar) out.push_back({key, est * scale});
      });
    }
    std::sort(out.begin(), out.end(),
              [](const heavy_hitter& a, const heavy_hitter& b) { return a.estimate > b.estimate; });
    return out;
  }

  /// The k flows with the largest window estimates across all shards. The
  /// global top-k is contained in the union of per-shard candidate sets
  /// (disjoint by partition), so one gather + partial sort is exact with
  /// respect to the per-shard answers.
  [[nodiscard]] std::vector<heavy_hitter> top(std::size_t k) const {
    std::vector<heavy_hitter> all;
    all.reserve(candidate_count());
    for (const auto& shard : shards_) {
      shard.for_each_candidate([&](const Key& key, double est) { all.push_back({key, est}); });
    }
    const std::size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                      [](const heavy_hitter& a, const heavy_hitter& b) {
                        return a.estimate > b.estimate;
                      });
    all.resize(keep);
    return all;
  }

  /// Union of the shards' live keys (disjoint across shards).
  [[nodiscard]] std::vector<Key> monitored_keys() const {
    std::vector<Key> keys;
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.candidate_count() + shard.counters();
    keys.reserve(total);
    for (const auto& shard : shards_) {
      auto k = shard.monitored_keys();
      keys.insert(keys.end(), k.begin(), k.end());
    }
    return keys;
  }

  // --- introspection -------------------------------------------------------

  /// Effective global window: the sum of the shards' (rounded) windows.
  [[nodiscard]] std::uint64_t window_size() const noexcept {
    std::uint64_t w = 0;
    for (const auto& shard : shards_) w += shard.window_size();
    return w;
  }

  [[nodiscard]] std::uint64_t stream_length() const noexcept {
    std::uint64_t n = 0;
    for (const auto& shard : shards_) n += shard.stream_length();
    return n;
  }

  /// Total live candidates across shards (disjoint sets, so a plain sum).
  [[nodiscard]] std::size_t candidate_count() const noexcept {
    std::size_t c = 0;
    for (const auto& shard : shards_) c += shard.candidate_count();
    return c;
  }

  /// Largest absolute deviation of any shard's packet count from the ideal
  /// n/N share - the realized keyspace skew driving the phase-drift bound
  /// in the file comment. 0 for N == 1.
  [[nodiscard]] double stream_skew() const noexcept {
    const double ideal =
        static_cast<double>(stream_length()) / static_cast<double>(shards_.size());
    double worst = 0.0;
    for (const auto& shard : shards_) {
      worst = std::max(worst, std::abs(static_cast<double>(shard.stream_length()) - ideal));
    }
    return worst;
  }

  /// Estimated GLOBAL packets spanned by shard s's window: W_s * n / n_s
  /// under stationarity (W_s for an empty stream). Coverage below the ideal
  /// W/N share of window_size() means the shard is overloaded and its
  /// queries see less global time than the nominal window - the systematic
  /// phase-drift component of the file comment. Monitoring input for
  /// rebalancing / bar-scaling decisions.
  [[nodiscard]] double window_coverage(std::size_t s) const noexcept {
    const auto& shard = shards_[s];
    if (shard.stream_length() == 0) return static_cast<double>(shard.window_size());
    return static_cast<double>(shard.window_size()) * static_cast<double>(stream_length()) /
           static_cast<double>(shard.stream_length());
  }

  // --- rebalancing -----------------------------------------------------------

  /// The global construction budget this frontend was built from, recovered
  /// from the live shards (every shard runs the shard_share slice, so
  /// per-shard * N is the rounded global budget; feeding it back through the
  /// ctor reproduces the exact per-shard geometry). This is what reshard and
  /// the rebalancer rebuild replacement frontends from.
  [[nodiscard]] shard_config config_snapshot() const noexcept {
    shard_config c;
    c.window_size = shards_[0].window_size() * shards_.size();
    c.counters = shards_[0].counters() * shards_.size();
    c.tau = shards_[0].tau();
    c.seed = base_seed_;
    c.shards = shards_.size();
    return c;
  }

  /// Skew-aware rebalance: asks `policy` (e.g. coverage_rebalancer in
  /// shard/rebalance.hpp) to read the live load picture - per-shard
  /// stream_length()/window_coverage(), per-bucket mass sampled from the
  /// candidate sets - plan a new bucket -> shard table, and migrate the
  /// window state onto it through the snapshot reshard path (no stream
  /// replay; estimates move <= one threshold unit per key). Returns true
  /// when a migration happened, false for the deliberate no-ops (already
  /// balanced, or the plan equals the current table). Synchronous: *this is
  /// atomically replaced before the call returns; callers in a threaded
  /// deployment go through pipeline::rebalance, which wraps this in the
  /// drain barrier.
  template <typename Policy>
  bool rebalance(const Policy& policy) {
    return policy.rebalance(*this);
  }

  // --- snapshot support ------------------------------------------------------
  // A frontend snapshot is the routing state (base seed + bucket table, if
  // weighted) followed by the ordered sequence of its shards' snapshots.
  // Restored frontends route, sample and answer bit-identically - including
  // through a rebalanced (weighted) table. Individual shard sections are
  // also the unit the reshard path (snapshot/reshard.hpp) consumes.

  static constexpr std::uint16_t kWireTag = 0x5348;  ///< "SH"
  static constexpr std::uint16_t kWireVersion = 3;

  /// Serializes the frontend as one section: routing scalars, the bucket
  /// table as one FoR column, then each shard's section in order. A sink
  /// flushes chunk by chunk, so peak buffering stays at the chunk size no
  /// matter how many counters the deployment holds - this is what lets a
  /// controller checkpoint a 1M-counter deployment with no O(state) buffer.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    save_routing(s, shards_.size(), base_seed_, part_.table());
    for (const auto& shard : shards_) shard.save(s);
    s.end_section();
  }

  /// Rebuilds a frontend from save() output; nullopt on any malformed input
  /// (see memento_sketch::restore for the per-shard validation contract;
  /// the bucket table additionally must be non-degenerate for the shard
  /// count - every entry in range, bucket count a multiple of N).
  [[nodiscard]] static std::optional<sharded_memento> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    auto routing = restore_routing(s);
    if (!routing) return std::nullopt;
    std::vector<sketch_type> shards;
    shards.reserve(routing->shards);
    for (std::size_t i = 0; i < routing->shards; ++i) {
      auto shard = sketch_type::restore(s);
      if (!shard) return std::nullopt;
      shards.push_back(std::move(*shard));
    }
    if (!s.close_section()) return std::nullopt;
    const std::uint64_t seed = routing->base_seed;
    return sharded_memento(std::move(shards), std::move(*routing).partitioner<Key>(), seed);
  }

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] const sketch_type& shard(std::size_t s) const noexcept { return shards_[s]; }
  /// Mutable shard access for the pipeline's per-core workers; each worker
  /// owns exactly one shard index, which is what keeps the pipeline
  /// data-race-free without any locking.
  [[nodiscard]] sketch_type& shard_mut(std::size_t s) noexcept { return shards_[s]; }
  [[nodiscard]] const shard_partitioner<Key>& partitioner() const noexcept { return part_; }

 private:
  friend class snapshot_builder;  ///< reshard constructs frontends from parts

  /// The shared construction path: both public ctors land here with the
  /// partitioner (HASH or TABLE mode) already built and validated.
  sharded_memento(const shard_config& config, shard_partitioner<Key>&& part)
      : part_(std::move(part)), base_seed_(config.seed) {
    if (config.shards == 0) throw std::invalid_argument("sharded_memento: shards must be >= 1");
    // Validate the GLOBAL budgets here: shard_share floors each shard's
    // slice at 1, which would otherwise mask a zero budget the equivalent
    // single-instance ctor rejects.
    if (config.window_size == 0) throw std::invalid_argument("sharded_memento: W must be >= 1");
    if (config.counters == 0) {
      throw std::invalid_argument("sharded_memento: counters must be >= 1");
    }
    shards_.reserve(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s) {
      shards_.emplace_back(shard_config_for(config, s));
    }
    scratch_.resize(config.shards);
  }

  /// Assembles a frontend directly from restored/resharded shard instances
  /// with an explicit router and seed. Snapshot-layer only: the public ctors
  /// are the ones that enforce the global-budget split.
  sharded_memento(std::vector<sketch_type>&& shards, shard_partitioner<Key>&& part,
                  std::uint64_t base_seed)
      : part_(std::move(part)), shards_(std::move(shards)), base_seed_(base_seed) {
    scratch_.resize(shards_.size());
  }

  shard_partitioner<Key> part_;
  std::vector<sketch_type> shards_;
  std::vector<std::vector<Key>> scratch_;  ///< per-shard burst partitions (reused)
  std::uint64_t base_seed_ = 1;            ///< config.seed; reshard/rebalance reuse it
};

}  // namespace memento
