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
// One class template, sharded<Sketch>, is the single-threaded deterministic
// frontend for both per-shard sketches: memento_sketch<Key> (the flat
// frontend, alias sharded_memento<Key>) and h_memento<H> (the hierarchical
// one, alias sharded_h_memento<H>; its prefix routing and HHH queries live
// in shard/sharded_h_memento.hpp). Only routing differs between the two, and
// it lives in a small traits type, shard_routing<Sketch>: how an ingested
// item and a queried key map to a routing key, and which keys have a single
// owner at all (every flat key does). update routes to the owning shard
// inline; update_batch partitions the burst into per-shard scratch buffers
// and feeds each shard one span via update_batch (the batch kernel is
// exactly the per-shard loop body). Shard s's state is bit-identical to a
// standalone sketch configured with shard_config_for(config, s) and fed the
// subsequence of items it owns - the differential tests assert this, and it
// is what makes the threaded pipeline (pipeline/pipeline.hpp) testable: same
// partition, same spans, same state.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detection_model.hpp"
#include "core/memento.hpp"
#include "shard/partitioner.hpp"
#include "util/compress.hpp"
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

/// Per-sketch routing of a sharded frontend; specialized below for the flat
/// sketch and in shard/sharded_h_memento.hpp for the hierarchical one. A
/// specialization names the ingested item, the queried key, the frontend's
/// construction budget and its wire tag/version, and maps items and keys to
/// the routing key the partitioner hashes.
template <typename Sketch>
struct shard_routing;

/// Flat routing: a flow key routes by itself, so every key has one owner.
template <typename Key>
struct shard_routing<memento_sketch<Key>> {
  using item_type = Key;
  using key_type = Key;
  using config_type = shard_config;
  using sketch_config = memento_config;

  static constexpr std::uint16_t kWireTag = 0x5348;  ///< "SH"
  static constexpr std::uint16_t kWireVersion = 3;
  static constexpr bool every_key_routable = true;

  [[nodiscard]] static const Key& route_key_of(const Key& x) noexcept { return x; }
  [[nodiscard]] static constexpr bool routable(const Key&) noexcept { return true; }
  [[nodiscard]] static const Key& route_key_of_key(const Key& k) noexcept { return k; }
  /// Every candidate flow is its own rebalancing unit.
  [[nodiscard]] static constexpr bool attributable(const Key&) noexcept { return true; }

  /// The global budget as one sketch's config, and back with a shard count.
  [[nodiscard]] static memento_config budget(const shard_config& c) noexcept {
    return memento_config{c.window_size, c.counters, c.tau, c.seed};
  }
  [[nodiscard]] static shard_config with_shards(const memento_config& c,
                                                std::size_t shards) noexcept {
    return shard_config{c.window_size, c.counters, c.tau, c.seed, shards};
  }
};

/// The flat query family (heavy_hitters, top, monitored_keys); the
/// hierarchical frontend answers output() instead.
template <typename Sketch>
concept flat_sketch = requires(const Sketch& s) { s.heavy_hitters(0.0); };

template <typename Sketch>
class sharded {
 public:
  using routing_type = shard_routing<Sketch>;
  using sketch_type = Sketch;
  using item_type = typename routing_type::item_type;
  using key_type = typename routing_type::key_type;
  using config_type = typename routing_type::config_type;
  using sketch_config = typename routing_type::sketch_config;
  /// A (key, estimate) pair as the flat query family reports it.
  using heavy_hitter = typename memento_sketch<key_type>::heavy_hitter;

  /// bucket_of() result for keys with no single owner (summed keys).
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  explicit sharded(const config_type& config)
      : sharded(config, shard_partitioner<key_type>(config.shards)) {}

  /// Weighted (TABLE-mode) frontend: routes through `table` (see
  /// partitioner.hpp). A uniform table is bit-identical to the plain ctor;
  /// a skewed one is what the rebalancer installs. Throws on a table that
  /// does not fit config.shards.
  sharded(const config_type& config, shard_table table)
      : sharded(config, shard_partitioner<key_type>(config.shards, std::move(table))) {}

  /// The sketch config shard s runs with: W and k divided by N (rounded up,
  /// never below 1) and a per-shard seed decorrelated via mix64, so shards
  /// do not sample in lockstep. Exposed so differential tests (and any
  /// distributed deployment that pins shards to processes) can construct
  /// bit-identical standalone references.
  [[nodiscard]] static sketch_config shard_config_for(const config_type& config,
                                                      std::size_t shard) {
    sketch_config c = routing_type::budget(config);
    c.window_size = shard_share(c.window_size, config.shards);
    c.counters = static_cast<std::size_t>(shard_share(c.counters, config.shards));
    c.seed = shard_seed(c.seed, shard);
    return c;
  }

  // --- routing --------------------------------------------------------------

  /// Owning shard of an ingested item (pure; stable for the frontend's
  /// lifetime): the partitioner applied to the item's routing key.
  [[nodiscard]] std::size_t shard_of(const item_type& x) const noexcept {
    return part_(routing_type::route_key_of(x));
  }

  /// Owning shard of a routable key (summed keys have no single owner;
  /// callers check routable() first, as query() does).
  [[nodiscard]] std::size_t shard_of_key(const key_type& k) const noexcept {
    return part_(routing_type::route_key_of_key(k));
  }

  /// The key's routing bucket - the rebalancer's migration unit - or npos
  /// for keys whose mass follows no single bucket.
  [[nodiscard]] std::size_t bucket_of(const key_type& k) const noexcept {
    return routing_type::routable(k) ? part_.bucket_of(routing_type::route_key_of_key(k)) : npos;
  }

  /// Attribution walk for the rebalancer's per-bucket load model
  /// (shard/rebalance.hpp): shard s's candidates, restricted to the keys
  /// the routing counts as rebalancing units, with their window estimates.
  template <typename Fn>
  void for_each_attributable(std::size_t s, Fn&& fn) const {
    shards_[s].for_each_candidate([&](const key_type& key, double est) {
      if (routing_type::attributable(key)) fn(key, est);
    });
  }

  // --- ingest ---------------------------------------------------------------

  /// Routes one item to its owning shard. O(1).
  void update(const item_type& x) { shards_[shard_of(x)].update(x); }

  /// Burst ingest: partitions the span into per-shard scratch buffers (one
  /// hash + append per item, order-preserving within each shard), then
  /// feeds each shard its items through the batch kernel. Equivalent to n
  /// routed update() calls except that shard sampling streams interleave
  /// differently; equal to feeding each shard its owned subsequence.
  void update_batch(const item_type* xs, std::size_t n) {
    if (shards_.size() == 1) {  // no partition pass needed
      shards_[0].update_batch(xs, n);
      return;
    }
    partition_into(scratch_, [this](const item_type& x) { return shard_of(x); }, xs, n);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!scratch_[s].empty()) shards_[s].update_batch(scratch_[s].data(), scratch_[s].size());
    }
  }

  void update_batch(std::span<const item_type> xs) { update_batch(xs.data(), xs.size()); }

  // --- point queries (see file comment) -------------------------------------

  /// One-sided window-frequency upper bound: routed to the owning shard,
  /// or summed across shards for a key with no single owner (a sum of
  /// per-shard one-sided bounds is a one-sided bound for the union).
  [[nodiscard]] double query(const key_type& k) const {
    return routed_or_summed(k, [&](const Sketch& s) { return s.query(k); });
  }
  [[nodiscard]] double query_lower(const key_type& k) const {
    return routed_or_summed(k, [&](const Sketch& s) { return s.query_lower(k); });
  }
  [[nodiscard]] double query_midpoint(const key_type& k) const {
    return routed_or_summed(k, [&](const Sketch& s) { return s.query_midpoint(k); });
  }

  // --- flat set queries -----------------------------------------------------

  /// Worst-case width of the [lower, upper] interval - identical for every
  /// shard by construction (same T, same tau), so the global width is the
  /// per-shard width.
  [[nodiscard]] double estimate_width() const noexcept
    requires flat_sketch<Sketch>
  {
    return shards_[0].estimate_width();
  }

  /// All window heavy hitters at threshold theta (fraction of the GLOBAL
  /// window): gather each shard's candidates through the no-copy hook,
  /// filter at theta * window_size(), sort by estimate. Because the
  /// keyspace is partitioned, this equals the concatenation of per-shard
  /// heavy_hitters at the same absolute bar.
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters(double theta) const
    requires flat_sketch<Sketch>
  {
    return gather_hitters(theta, [](std::size_t) { return 1.0; });
  }

  /// heavy_hitters() with the coverage-scaled per-shard bars of the
  /// ACCURACY.md drift model: shard s's candidates are admitted at
  /// theta * coverage(s) (saturated; detection::coverage_scaled_bar) instead
  /// of theta * W, so borderline hitters on an overloaded shard - whose
  /// window spans fewer global packets than nominal - stop flickering out.
  /// Reported estimates are re-centered onto the global window by the same
  /// factor, keeping the theta-cut and the printed numbers consistent.
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters_coverage_scaled(double theta) const
    requires flat_sketch<Sketch>
  {
    return gather_hitters(theta, [this](std::size_t s) { return coverage_scale(s); });
  }

  /// The k flows with the largest window estimates across all shards. The
  /// global top-k is contained in the union of per-shard candidate sets
  /// (disjoint by partition), so one gather + partial sort is exact with
  /// respect to the per-shard answers.
  [[nodiscard]] std::vector<heavy_hitter> top(std::size_t k) const
    requires flat_sketch<Sketch>
  {
    std::vector<heavy_hitter> all;
    all.reserve(candidate_count());
    for (const auto& shard : shards_) {
      shard.for_each_candidate([&](const key_type& key, double est) { all.push_back({key, est}); });
    }
    const std::size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                      [](const auto& a, const auto& b) { return a.estimate > b.estimate; });
    all.resize(keep);
    return all;
  }

  /// Union of the shards' live keys (disjoint across shards).
  [[nodiscard]] std::vector<key_type> monitored_keys() const
    requires flat_sketch<Sketch>
  {
    std::vector<key_type> keys;
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.candidate_count() + shard.counters();
    keys.reserve(total);
    for (const auto& shard : shards_) {
      auto k = shard.monitored_keys();
      keys.insert(keys.end(), k.begin(), k.end());
    }
    return keys;
  }

  // --- hierarchical set queries (defined in shard/sharded_h_memento.hpp) ----

  [[nodiscard]] auto output(double theta) const
    requires(!flat_sketch<Sketch>);
  [[nodiscard]] auto output_coverage_scaled(double theta) const
    requires(!flat_sketch<Sketch>);

  // --- introspection --------------------------------------------------------

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

  /// Shard s's factor in the coverage-scaled queries: W / coverage(s),
  /// clamped (detection::coverage_scale). Multiplying s's estimates by it
  /// re-centers them onto the global window.
  [[nodiscard]] double coverage_scale(std::size_t s) const noexcept {
    return detection::coverage_scale(static_cast<double>(window_size()), window_coverage(s));
  }

  // --- rebalancing ----------------------------------------------------------

  /// The global construction budget this frontend was built from, recovered
  /// from the live shards (every shard runs the shard_share slice, so
  /// per-shard * N is the rounded global budget; feeding it back through the
  /// ctor reproduces the exact per-shard geometry). This is what reshard and
  /// the rebalancer rebuild replacement frontends from.
  [[nodiscard]] config_type config_snapshot() const noexcept {
    sketch_config c = shards_[0].config_snapshot();
    c.window_size *= shards_.size();
    c.counters *= shards_.size();
    c.seed = base_seed_;
    return routing_type::with_shards(c, shards_.size());
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

  // --- snapshot support -----------------------------------------------------
  // A frontend snapshot is the routing state (base seed + bucket table, if
  // weighted) followed by the ordered sequence of its shards' snapshots.
  // Restored frontends route, sample and answer bit-identically - including
  // through a rebalanced (weighted) table. Individual shard sections are
  // also the unit the reshard path (snapshot/reshard.hpp) consumes.

  static constexpr std::uint16_t kWireTag = routing_type::kWireTag;
  static constexpr std::uint16_t kWireVersion = routing_type::kWireVersion;
  /// Restore-side guards: nobody runs thousands of shards on one box, and a
  /// table bigger than 2^20 buckets is a corrupt length, not a deployment.
  static constexpr std::uint64_t kMaxRestoreShards = 4096;
  static constexpr std::uint64_t kMaxRestoreBuckets = 1u << 20;

  /// Serializes the frontend as one section: the routing block (codec
  /// flags, shard count, base seed, bucket count - 0 in HASH mode - and the
  /// bucket table as one FoR column), then each shard's section in order. A
  /// sink flushes chunk by chunk, so peak buffering stays at the chunk size
  /// no matter how many counters the deployment holds - this is what lets a
  /// controller checkpoint a 1M-counter deployment with no O(state) buffer.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    s.u8(wire::kCodecPacked);
    s.varint(shards_.size());
    s.u64(base_seed_);
    const shard_table& table = part_.table();
    s.varint(table.buckets());
    std::size_t i = 0;
    wire::put_u64_array(s, table.buckets(), [&] { return table.to_shard[i++]; });
    for (const auto& shard : shards_) shard.save(s);
    s.end_section();
  }

  /// Rebuilds a frontend from save() output; nullopt on any malformed input
  /// (see the shard sketch's restore for the per-shard validation contract;
  /// the routing block additionally needs known codec flags, 1 to
  /// kMaxRestoreShards shards, at most kMaxRestoreBuckets buckets and a
  /// table that is valid_for the shard count).
  [[nodiscard]] static std::optional<sharded> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    std::uint64_t n = 0, seed = 0, buckets = 0;
    if (!wire::get_codec_flags(s) || !s.varint(n) || n == 0 || n > kMaxRestoreShards) {
      return std::nullopt;
    }
    if (!s.u64(seed) || !s.varint(buckets) || buckets > kMaxRestoreBuckets) return std::nullopt;
    shard_table table;
    table.to_shard.reserve(static_cast<std::size_t>(buckets));
    if (!wire::get_u64_array(s, static_cast<std::size_t>(buckets), [&](std::uint64_t v) {
          if (v >= n) return false;
          table.to_shard.push_back(static_cast<std::uint32_t>(v));
          return true;
        })) {
      return std::nullopt;
    }
    const auto shard_count = static_cast<std::size_t>(n);
    if (buckets != 0 && !table.valid_for(shard_count)) return std::nullopt;
    std::vector<Sketch> shards;
    shards.reserve(shard_count);
    for (std::size_t i = 0; i < shard_count; ++i) {
      auto shard = Sketch::restore(s);
      if (!shard) return std::nullopt;
      shards.push_back(std::move(*shard));
    }
    if (!s.close_section()) return std::nullopt;
    auto part = buckets == 0 ? shard_partitioner<key_type>(shard_count)
                             : shard_partitioner<key_type>(shard_count, std::move(table));
    return sharded(std::move(shards), std::move(part), seed);
  }

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] const Sketch& shard(std::size_t s) const noexcept { return shards_[s]; }
  /// Mutable shard access for the pipeline's per-core workers; each worker
  /// owns exactly one shard index, which is what keeps the pipeline
  /// data-race-free without any locking.
  [[nodiscard]] Sketch& shard_mut(std::size_t s) noexcept { return shards_[s]; }
  [[nodiscard]] const shard_partitioner<key_type>& partitioner() const noexcept { return part_; }

 private:
  friend class snapshot_builder;  ///< reshard constructs frontends from parts

  /// The shared construction path: both public ctors land here with the
  /// partitioner (HASH or TABLE mode) already built and validated.
  sharded(const config_type& config, shard_partitioner<key_type>&& part)
      : part_(std::move(part)) {
    const sketch_config budget = routing_type::budget(config);
    base_seed_ = budget.seed;
    if (config.shards == 0) throw std::invalid_argument("sharded: shards must be >= 1");
    // Validate the GLOBAL budgets here: shard_share floors each shard's
    // slice at 1, which would otherwise mask a zero budget the equivalent
    // single-instance ctor rejects.
    if (budget.window_size == 0) throw std::invalid_argument("sharded: W must be >= 1");
    if (budget.counters == 0) throw std::invalid_argument("sharded: counters must be >= 1");
    shards_.reserve(config.shards);
    for (std::size_t s = 0; s < config.shards; ++s) {
      shards_.emplace_back(shard_config_for(config, s));
    }
    scratch_.resize(config.shards);
  }

  /// Assembles a frontend directly from restored/resharded shard instances
  /// with an explicit router and seed. Snapshot-layer only: the public ctors
  /// are the ones that enforce the global-budget split.
  sharded(std::vector<Sketch>&& shards, shard_partitioner<key_type>&& part,
          std::uint64_t base_seed)
      : part_(std::move(part)), shards_(std::move(shards)), base_seed_(base_seed) {
    scratch_.resize(shards_.size());
  }

  /// The owning shard's answer for a routable key, else the sum of every
  /// shard's answer.
  template <typename Query>
  [[nodiscard]] double routed_or_summed(const key_type& k, const Query& q) const {
    if (!routing_type::routable(k)) {
      double sum = 0.0;
      for (const auto& shard : shards_) sum += q(shard);
      return sum;
    }
    return q(shards_[shard_of_key(k)]);
  }

  /// The flat heavy-hitter gather: shard s's candidates at or above
  /// theta * W / scale_of(s), reported at est * scale_of(s), sorted by
  /// estimate.
  template <typename ScaleOf>
  [[nodiscard]] std::vector<heavy_hitter> gather_hitters(double theta,
                                                         const ScaleOf& scale_of) const {
    std::vector<heavy_hitter> out;
    out.reserve(candidate_count());
    const double w = static_cast<double>(window_size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const double scale = scale_of(s);
      const double bar = theta * w / scale;
      shards_[s].for_each_candidate([&](const key_type& key, double est) {
        if (est >= bar) out.push_back({key, est * scale});
      });
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.estimate > b.estimate; });
    return out;
  }

  shard_partitioner<key_type> part_;
  std::vector<Sketch> shards_;
  std::vector<std::vector<item_type>> scratch_;  ///< per-shard burst partitions (reused)
  std::uint64_t base_seed_ = 1;                  ///< config.seed; reshard/rebalance reuse it
};

/// The flat frontend: flow keys hash-partitioned across memento_sketch
/// shards.
template <typename Key = std::uint64_t>
using sharded_memento = sharded<memento_sketch<Key>>;

}  // namespace memento
