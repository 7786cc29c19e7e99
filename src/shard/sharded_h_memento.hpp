// Sharded H-Memento frontend: prefix-aware keyspace partitioning for 1-D
// AND 2-D hierarchies, with weighted (TABLE-mode) routing and rebalance.
//
// The frontend itself is sharded<h_memento<H>> (shard/sharded_memento.hpp),
// the same class template that serves the flat frontend. This file adds
// what is hierarchical about it: the prefix routing traits and the HHH
// queries (output, output_coverage_scaled).
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
// Routing composes with shard_partitioner exactly as in the flat frontend:
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

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/h_memento.hpp"
#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "shard/sharded_memento.hpp"

namespace memento {

/// Construction budget of a sharded HHH deployment: the global h_memento
/// budget plus the shard count. What config_snapshot() recovers and
/// snapshot_builder::reshard rebuilds replacement frontends from.
struct hhh_shard_config {
  h_memento_config base;   ///< GLOBAL window/counter/tau/delta budget
  std::size_t shards = 1;  ///< N: number of partitions
};

/// Prefix routing: packets route by their coarsest routable generalization
/// (see file comment); prefixes coarser than it are summed across shards.
template <typename H>
struct shard_routing<h_memento<H>> {
  static_assert(H::two_dimensional ? std::is_same_v<typename H::key_type, prefix2d>
                                   : std::is_same_v<typename H::key_type, std::uint64_t>,
                "sharded_h_memento: routing understands the prefix1d uint64 encoding "
                "and the prefix2d pair encoding");

  using item_type = packet;
  using key_type = typename H::key_type;
  using config_type = hhh_shard_config;
  using sketch_config = h_memento_config;

  static constexpr std::uint16_t kWireTag = 0x4848;  ///< "HH"
  static constexpr std::uint16_t kWireVersion = 2;
  /// Summed keys stay on their old shard index through a reshard, which
  /// is only meaningful while the shard count is unchanged.
  static constexpr bool every_key_routable = false;

  /// 1-D: depth of the routing level (the coarsest non-root generalization).
  /// 2-D: the per-dimension routing depth (the /8 of each dimension).
  static constexpr std::size_t kRouteDepth = H::two_dimensional ? 3 : H::num_levels - 2;

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

  /// The rebalancer's load model credits ROUTE-pattern keys only - the /8
  /// level in 1-D, the (/8, /8) pair in 2-D. Route-pattern keys partition
  /// the packet stream (every packet has exactly one route-level
  /// generalization), so each packet's mass is credited to its bucket
  /// exactly once; walking the whole lattice instead would count a flow
  /// once per routable pattern (16x in 2-D), push the planner's explained
  /// share past 1 and starve the mouse residue that places the
  /// below-candidate buckets.
  [[nodiscard]] static constexpr bool attributable(const key_type& k) noexcept {
    if constexpr (H::two_dimensional) {
      return k.src_depth == kRouteDepth && k.dst_depth == kRouteDepth;
    } else {
      return prefix1d::key_depth(k) == kRouteDepth;
    }
  }

  [[nodiscard]] static const h_memento_config& budget(const hhh_shard_config& c) noexcept {
    return c.base;
  }
  [[nodiscard]] static hhh_shard_config with_shards(const h_memento_config& c,
                                                    std::size_t shards) noexcept {
    return hhh_shard_config{c, shards};
  }
};

/// The hierarchical frontend: packets partitioned by routing prefix across
/// h_memento shards.
template <typename H = source_hierarchy>
using sharded_h_memento = sharded<h_memento<H>>;

namespace detail {

/// The lattice walk behind both HHH queries: one candidate union, one bound
/// oracle, shard s's contribution to every bound multiplied by scale[s].
template <typename H>
[[nodiscard]] typename h_memento<H>::hhh_result hhh_output(const sharded_h_memento<H>& front,
                                                           double theta,
                                                           const std::vector<double>& scale) {
  using key_type = typename H::key_type;
  std::vector<key_type> candidates;
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    auto keys = front.shard(s).inner().monitored_keys();
    candidates.insert(candidates.end(), keys.begin(), keys.end());
  }
  const double threshold = theta * static_cast<double>(front.window_size());
  return solve_hhh<H>(
      std::move(candidates),
      [&](const key_type& k) {
        if (!shard_routing<h_memento<H>>::routable(k)) {
          double hi = 0.0, lo = 0.0;
          for (std::size_t s = 0; s < front.num_shards(); ++s) {
            const freq_bounds b = front.shard(s).query_bounds(k);
            hi += scale[s] * b.upper;
            lo += scale[s] * b.lower;
          }
          return freq_bounds{hi, lo};
        }
        const std::size_t s = front.shard_of_key(k);
        const freq_bounds b = front.shard(s).query_bounds(k);
        return freq_bounds{scale[s] * b.upper, scale[s] * b.lower};
      },
      threshold, front.shard(0).sampling_compensation());
}

}  // namespace detail


/// Approximate window HHH set at threshold theta: the shared lattice walk
/// (solve_hhh) over the UNION of per-shard candidate sets, with the routed
/// bound oracle of query()/query_lower(). Thresholding is against the
/// global window; the sampling compensation is per-shard (all shards share
/// one geometry).
template <typename Sketch>
auto sharded<Sketch>::output(double theta) const
  requires(!flat_sketch<Sketch>)
{
  return detail::hhh_output(*this, theta, std::vector<double>(num_shards(), 1.0));
}

/// OUTPUT with the coverage-scaled detection bars of the ACCURACY.md drift
/// model: each routed bound is multiplied by coverage_scale(owner), so a
/// borderline prefix on an overloaded shard - whose window spans fewer
/// global packets than the nominal W - is judged against
/// theta * coverage(s) instead of a bar it systematically undershoots.
/// Summed keys scale per contributing shard.
template <typename Sketch>
auto sharded<Sketch>::output_coverage_scaled(double theta) const
  requires(!flat_sketch<Sketch>)
{
  std::vector<double> scale(num_shards());
  for (std::size_t s = 0; s < scale.size(); ++s) scale[s] = coverage_scale(s);
  return detail::hhh_output(*this, theta, scale);
}

}  // namespace memento
