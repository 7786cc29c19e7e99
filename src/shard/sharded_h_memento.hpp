// Sharded H-Memento frontend: prefix-aware keyspace partitioning for 1-D
// AND 2-D hierarchies, with weighted (TABLE-mode) routing and rebalance.
//
// Why HHH sharding is harder than plain HH sharding: sharded_memento
// partitions by the fully-specified flow key, which works because a flow's
// packets are the only contributors to its counter. A hierarchical prefix,
// by contrast, aggregates MANY flows; hashing flows across shards would
// scatter every prefix's mass over all N shards, turning each query into an
// N-way sum of one-sided estimates (error bars add, so accuracy degrades
// linearly with N) and entangling the per-shard windows.
//
// The clean route is to partition by the COARSEST ROUTABLE GENERALIZATION:
//
//   * 1-D (H = 5 byte levels): route by the /8 prefix (depth num_levels - 2).
//     All of a packet's non-root prefixes share its /8 octet by
//     construction, so every non-root prefix keeps its full mass on exactly
//     one shard and point queries still route - same mergeability as the
//     flat frontend, same per-shard one-sided bounds. Only the root (/0)
//     aggregates across shards; it is answered by summation (a sum of
//     per-shard one-sided bounds is a one-sided bound for the union), which
//     is benign since the root is trivially a heavy hitter at any theta < 1.
//   * 2-D (H = 25 (src, dst) patterns): route by the (/8, /8) DEPTH PAIR.
//     Any prefix with BOTH dimensions at depth <= 3 contains only packets
//     sharing its (src /8, dst /8) octet pair, so all 16 such patterns keep
//     full mass on one shard. The 9 wildcard patterns (src_depth == 4 or
//     dst_depth == 4, root included) span route pairs and are answered by
//     summation - the same rule as the 1-D root, one lattice rank earlier.
//     This is what the old /8-only smoke path could not express: the 2-D
//     lattice has no single *flat* keyspace hash aligning both dimensions,
//     but the (/8,/8) pair IS the coarsest generalization that still nails
//     every routable pattern to one owner.
//
// Routing composes with shard_partitioner exactly like the flat frontend:
// route key -> bucket (mix64 + fastrange64 over B = 64*N buckets) -> shard
// via the assignment table (TABLE mode) or plain fastrange (HASH mode). A
// uniform table routes bit-identically to HASH mode, so the rebalancer's
// no-op guarantees carry over: nothing moves until prefix-population skew
// is real. coverage_rebalancer plans tables from the live per-bucket load
// picture (candidate prefixes map to buckets through bucket_of(), which
// routes by the prefix's route generalization), and
// snapshot_builder::reshard transports the window state onto the new table
// with no stream replay - see shard/rebalance.hpp and snapshot/reshard.hpp.
//
// Detection under skew: a shard owning an elephant prefix is overloaded,
// so its window spans fewer global packets (window_coverage(s) < W) and
// routed estimates sit low relative to the global window - borderline HHHs
// flicker. output_coverage_scaled() applies the ACCURACY.md drift model:
// each routed bound is scaled by W / coverage(owner) (clamped, see
// detection::coverage_scale), which re-centers the detection bar at
// theta * coverage(s) per shard. The flat frontend exposes the same model
// through heavy_hitters_coverage_scaled().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/detection_model.hpp"
#include "core/h_memento.hpp"
#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "shard/partitioner.hpp"
#include "util/wire.hpp"

namespace memento {

/// Construction budget of a sharded HHH deployment: the global h_memento
/// budget plus the shard count. What config_snapshot() recovers and
/// snapshot_builder::reshard rebuilds replacement frontends from.
struct hhh_shard_config {
  h_memento_config base;   ///< GLOBAL window/counter/tau/delta budget
  std::size_t shards = 1;  ///< N: number of partitions
};

template <typename H = source_hierarchy>
class sharded_h_memento {
  static_assert(H::two_dimensional ? std::is_same_v<typename H::key_type, prefix2d>
                                   : std::is_same_v<typename H::key_type, std::uint64_t>,
                "sharded_h_memento: routing understands the prefix1d uint64 encoding "
                "and the prefix2d pair encoding");

 public:
  using key_type = typename H::key_type;
  using hhh_result = typename h_memento<H>::hhh_result;

  /// 1-D: depth of the routing level (the coarsest non-root generalization).
  /// 2-D: the per-dimension routing depth (the /8 of each dimension).
  static constexpr std::size_t kRouteDepth = H::two_dimensional ? 3 : H::num_levels - 2;
  /// 1-D only: depth of the root (full wildcard), answered by summation.
  static constexpr std::size_t kRootDepth = H::num_levels - 1;
  /// bucket_of() result for prefixes with no single owner (summed keys).
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// @param config global budgets, divided evenly (as in sharded_memento):
  /// each shard runs an h_memento with W/N window and k/N counters.
  sharded_h_memento(const h_memento_config& config, std::size_t shards)
      : sharded_h_memento(config, shards, shard_partitioner<key_type>(shards)) {}

  /// Weighted (TABLE-mode) frontend: routes prefix buckets through `table`.
  /// A uniform table is bit-identical to the plain ctor; a skewed one is
  /// what the rebalancer installs. Throws on a table that does not fit.
  sharded_h_memento(const h_memento_config& config, std::size_t shards, shard_table table)
      : sharded_h_memento(config, shards,
                          shard_partitioner<key_type>(shards, std::move(table))) {}

  /// The h_memento_config shard s runs with: the same budget split and seed
  /// derivation as sharded_memento::shard_config_for (shared helpers in
  /// partitioner.hpp), exposed for standalone per-shard references.
  [[nodiscard]] static h_memento_config shard_config_for(const h_memento_config& config,
                                                         std::size_t shards, std::size_t shard) {
    h_memento_config c = config;
    c.window_size = shard_share(config.window_size, shards);
    c.counters = static_cast<std::size_t>(shard_share(config.counters, shards));
    c.seed = shard_seed(config.seed, shard);
    return c;
  }

  // --- routing ---------------------------------------------------------------

  /// The routing generalization of a packet: its /8 (1-D) or (/8, /8) pair.
  [[nodiscard]] static constexpr key_type route_key_of(const packet& p) noexcept {
    if constexpr (H::two_dimensional) {
      return prefix2::make(p.src, kRouteDepth, p.dst, kRouteDepth);
    } else {
      return H::key_at(p, kRouteDepth);
    }
  }

  /// True when the prefix keeps its full mass on one shard (see file
  /// comment); false for the keys answered by summation.
  [[nodiscard]] static constexpr bool routable(const key_type& k) noexcept {
    if constexpr (H::two_dimensional) {
      return k.src_depth <= kRouteDepth && k.dst_depth <= kRouteDepth;
    } else {
      return prefix1d::key_depth(k) <= kRouteDepth;
    }
  }

  /// The routing generalization of a ROUTABLE prefix key: every packet
  /// contributing to the prefix shares it, so it identifies the owner.
  [[nodiscard]] static constexpr key_type route_key_of_key(const key_type& k) noexcept {
    if constexpr (H::two_dimensional) {
      return prefix2::make(k.src, kRouteDepth, k.dst, kRouteDepth);
    } else {
      return prefix1d::make_key(prefix1d::key_addr(k), kRouteDepth);
    }
  }

  /// Owning shard of a packet: routed through the partitioner (TABLE or
  /// HASH mode) on its routing generalization.
  [[nodiscard]] std::size_t shard_of(const packet& p) const noexcept {
    return part_(route_key_of(p));
  }

  /// Owning shard of a routable prefix key (summed keys have no single
  /// owner; callers check routable() first, as query() does).
  [[nodiscard]] std::size_t shard_of_key(const key_type& k) const noexcept {
    return part_(route_key_of_key(k));
  }

  /// The prefix's routing bucket - the rebalancer's migration unit - or
  /// npos for summed keys (their mass follows no single bucket).
  [[nodiscard]] std::size_t bucket_of(const key_type& k) const noexcept {
    return routable(k) ? part_.bucket_of(route_key_of_key(k)) : npos;
  }

  /// Attribution walk for the rebalancer's per-bucket load model
  /// (shard/rebalance.hpp): visits shard s's candidates at the ROUTE
  /// pattern only - the /8 level in 1-D, the (/8, /8) pair in 2-D - with
  /// the same prefix-unit scaling for_each_candidate applies. Route-pattern
  /// keys partition the packet stream (every packet has exactly one
  /// route-level generalization), so each packet's mass is credited to its
  /// bucket exactly once; walking the whole lattice instead would count a
  /// flow once per routable pattern (16x in 2-D), push the planner's
  /// explained share past 1 and starve the mouse residue that places the
  /// below-candidate buckets.
  template <typename Fn>
  void for_each_attributable(std::size_t s, Fn&& fn) const {
    shards_[s].inner().for_each_candidate([&](const key_type& key, double est) {
      if constexpr (H::two_dimensional) {
        if (key.src_depth != kRouteDepth || key.dst_depth != kRouteDepth) return;
      } else {
        if (prefix1d::key_depth(key) != kRouteDepth) return;
      }
      fn(key, static_cast<double>(H::hierarchy_size) * est);
    });
  }

  // --- ingest ----------------------------------------------------------------

  void update(const packet& p) { shards_[shard_of(p)].update(p); }

  /// Burst ingest: partition by routing prefix, feed each shard's
  /// h_memento::update_batch (which drives the batched hierarchical kernel).
  void update_batch(const packet* ps, std::size_t n) {
    if (shards_.size() == 1) {
      shards_[0].update_batch(ps, n);
      return;
    }
    partition_into(scratch_, [this](const packet& p) { return shard_of(p); }, ps, n);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!scratch_[s].empty()) shards_[s].update_batch(scratch_[s].data(), scratch_[s].size());
    }
  }

  void update_batch(std::span<const packet> ps) { update_batch(ps.data(), ps.size()); }

  // --- queries ---------------------------------------------------------------

  /// One-sided window-frequency upper bound for a prefix: routed for
  /// routable prefixes, summed across shards for the wildcard patterns.
  [[nodiscard]] double query(const key_type& prefix) const {
    if (!routable(prefix)) {
      double sum = 0.0;
      for (const auto& shard : shards_) sum += shard.query(prefix);
      return sum;
    }
    return shards_[shard_of_key(prefix)].query(prefix);
  }

  /// Matching lower bound (routed; summed for the wildcard patterns).
  [[nodiscard]] double query_lower(const key_type& prefix) const {
    if (!routable(prefix)) {
      double sum = 0.0;
      for (const auto& shard : shards_) sum += shard.query_lower(prefix);
      return sum;
    }
    return shards_[shard_of_key(prefix)].query_lower(prefix);
  }

  /// Approximate window HHH set at threshold theta: the shared lattice walk
  /// (solve_hhh) over the UNION of per-shard candidate sets, with the routed
  /// bound oracle above. Thresholding is against the global window; the
  /// sampling compensation is per-shard (all shards share one geometry).
  [[nodiscard]] hhh_result output(double theta) const {
    return output_impl(theta, /*coverage_scaled=*/false);
  }

  /// OUTPUT with the coverage-scaled detection bars of the ACCURACY.md
  /// drift model: each routed bound is multiplied by W / coverage(owner)
  /// (clamped; detection::coverage_scale), so a borderline prefix on an
  /// overloaded shard - whose window spans fewer global packets than the
  /// nominal W - is judged against theta * coverage(s) instead of a bar it
  /// systematically undershoots. Summed keys scale per contributing shard.
  [[nodiscard]] hhh_result output_coverage_scaled(double theta) const {
    return output_impl(theta, /*coverage_scaled=*/true);
  }

  // --- introspection ---------------------------------------------------------

  /// Effective global window (sum of the shards' rounded windows).
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

  /// Estimated GLOBAL packets spanned by shard s's window: W_s * n / n_s
  /// under stationarity (W_s for an empty stream) - the same phase-drift
  /// monitor the flat frontend exposes; see sharded_memento::window_coverage.
  [[nodiscard]] double window_coverage(std::size_t s) const noexcept {
    const auto& shard = shards_[s];
    if (shard.stream_length() == 0) return static_cast<double>(shard.window_size());
    return static_cast<double>(shard.window_size()) * static_cast<double>(stream_length()) /
           static_cast<double>(shard.stream_length());
  }

  /// Largest absolute deviation of any shard's packet count from the ideal
  /// n/N share - realized prefix-population skew. 0 for N == 1.
  [[nodiscard]] double stream_skew() const noexcept {
    const double ideal =
        static_cast<double>(stream_length()) / static_cast<double>(shards_.size());
    double worst = 0.0;
    for (const auto& shard : shards_) {
      worst = std::max(worst, std::abs(static_cast<double>(shard.stream_length()) - ideal));
    }
    return worst;
  }

  /// The global construction budget recovered from the live shards (every
  /// shard runs the shard_share slice, so per-shard * N is the rounded
  /// global budget). Reshard and the rebalancer rebuild replacements from it.
  [[nodiscard]] hhh_shard_config config_snapshot() const noexcept {
    hhh_shard_config c;
    c.base = shards_[0].config_snapshot();
    c.base.window_size *= shards_.size();
    c.base.counters *= shards_.size();
    c.base.seed = base_seed_;
    c.shards = shards_.size();
    return c;
  }

  /// Skew-aware rebalance (same contract as sharded_memento::rebalance):
  /// `policy` plans a bucket -> shard table from the live load picture and
  /// migrates the window state onto it through the snapshot reshard path.
  template <typename Policy>
  bool rebalance(const Policy& policy) {
    return policy.rebalance(*this);
  }

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] const h_memento<H>& shard(std::size_t s) const noexcept { return shards_[s]; }
  [[nodiscard]] const shard_partitioner<key_type>& partitioner() const noexcept { return part_; }

  // --- snapshot support ------------------------------------------------------
  // A frontend snapshot is the routing state (base seed + bucket table, if
  // weighted) followed by the ordered sequence of its shards' h_memento
  // sections. Restored frontends route, sample and answer bit-identically -
  // including through a rebalanced (weighted) table.

  static constexpr std::uint16_t kWireTag = 0x4848;  ///< "HH"
  static constexpr std::uint16_t kWireVersion = 2;

  /// Serializes the frontend as one section: routing scalars, the bucket
  /// table as one FoR column, then each shard's h_memento section in order.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    save_routing(s, shards_.size(), base_seed_, part_.table());
    for (const auto& shard : shards_) shard.save(s);
    s.end_section();
  }

  /// Rebuilds a frontend from save() output; nullopt on any malformed input
  /// (see h_memento::restore for the per-shard validation contract; the
  /// bucket table additionally must be non-degenerate for the shard count).
  [[nodiscard]] static std::optional<sharded_h_memento> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    auto routing = restore_routing(s);
    if (!routing) return std::nullopt;
    std::vector<h_memento<H>> shards;
    shards.reserve(routing->shards);
    for (std::size_t i = 0; i < routing->shards; ++i) {
      auto shard = h_memento<H>::restore(s);
      if (!shard) return std::nullopt;
      shards.push_back(std::move(*shard));
    }
    if (!s.close_section()) return std::nullopt;
    const std::uint64_t seed = routing->base_seed;
    return sharded_h_memento(std::move(shards), std::move(*routing).partitioner<key_type>(),
                             seed);
  }

 private:
  friend class snapshot_builder;  ///< reshard constructs frontends from parts

  /// The shared construction path: both public ctors land here with the
  /// partitioner (HASH or TABLE mode) already built and validated.
  sharded_h_memento(const h_memento_config& config, std::size_t shards,
                    shard_partitioner<key_type>&& part)
      : part_(std::move(part)), base_seed_(config.seed) {
    if (shards == 0) throw std::invalid_argument("sharded_h_memento: shards must be >= 1");
    if (config.window_size == 0 || config.counters == 0) {
      throw std::invalid_argument("sharded_h_memento: W and counters must be >= 1");
    }
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.emplace_back(shard_config_for(config, shards, s));
    }
    scratch_.resize(shards);
  }

  /// Assembles a frontend directly from restored/resharded shard instances
  /// with an explicit router and seed. Snapshot-layer only.
  sharded_h_memento(std::vector<h_memento<H>>&& shards, shard_partitioner<key_type>&& part,
                    std::uint64_t base_seed)
      : part_(std::move(part)), shards_(std::move(shards)), base_seed_(base_seed) {
    scratch_.resize(shards_.size());
  }

  /// The shared lattice walk behind output()/output_coverage_scaled(): one
  /// candidate union, one bound oracle; the scaled variant multiplies each
  /// shard's contribution by its drift-model coverage correction.
  [[nodiscard]] hhh_result output_impl(double theta, bool coverage_scaled) const {
    std::vector<key_type> candidates;
    for (const auto& shard : shards_) {
      auto keys = shard.inner().monitored_keys();
      candidates.insert(candidates.end(), keys.begin(), keys.end());
    }
    const double w = static_cast<double>(window_size());
    std::vector<double> scale(shards_.size(), 1.0);
    if (coverage_scaled) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        scale[s] = detection::coverage_scale(w, window_coverage(s));
      }
    }
    const double threshold = theta * w;
    return solve_hhh<H>(
        std::move(candidates),
        [this, &scale](const key_type& k) {
          if (!routable(k)) {
            double hi = 0.0, lo = 0.0;
            for (std::size_t s = 0; s < shards_.size(); ++s) {
              hi += scale[s] * shards_[s].query(k);
              lo += scale[s] * shards_[s].query_lower(k);
            }
            return freq_bounds{hi, lo};
          }
          const std::size_t s = shard_of_key(k);
          return freq_bounds{scale[s] * shards_[s].query(k),
                             scale[s] * shards_[s].query_lower(k)};
        },
        threshold, shards_[0].sampling_compensation());
  }

  shard_partitioner<key_type> part_;
  std::vector<h_memento<H>> shards_;
  std::vector<std::vector<packet>> scratch_;
  std::uint64_t base_seed_ = 1;  ///< config.seed; reshard/rebalance reuse it
};

}  // namespace memento
