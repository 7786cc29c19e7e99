// Skew-aware elastic rebalancing: the placement policy that closes the loop
// PR 3 opened and PR 4 enabled.
//
// PR 3's sharded frontend documents a systematic phase-drift penalty when the
// keyspace is skewed: a shard that owns an elephant flow is overloaded, its
// window covers fewer global packets (window_coverage(s) sinks below the
// ideal W), and borderline heavy hitters near a detection bar can slip.
// PR 4's snapshot_builder::reshard built the state-transport mechanism -
// re-bucket every piece of window state onto a new routing function without
// replaying the stream, moving estimates by at most one threshold unit per
// key. What was missing is the POLICY: something that looks at the live load
// picture and decides where the keyspace should go. This file is that
// policy.
//
// The mechanism stack, bottom to top:
//
//   shard_partitioner TABLE mode   key -> bucket (mix64 + fastrange64 over
//   (partitioner.hpp)              B = 64*N buckets) -> shard via a compact
//                                  assignment table; the uniform table routes
//                                  bit-identically to plain hashing.
//
//   snapshot_builder::reshard      moves a frontend's window state onto a
//   (snapshot/reshard.hpp)         new table: overflow counts carry exactly,
//                                  queue ages re-ring, in-frame counters
//                                  re-bucket (<= one threshold unit of
//                                  estimate movement per key - PR 4's bound).
//
//   coverage_rebalancer (here)     reads per-shard load/coverage and
//                                  per-bucket mass sampled from the live
//                                  candidate sets, plans a better table,
//                                  and drives the reshard.
//
// Load model. The policy needs per-BUCKET load, but the sketches only track
// per-FLOW state - and only for flows heavy enough to be candidates. That is
// exactly enough: per-bucket load splits into
//
//   * elephant mass: for each candidate flow x of shard s, the attributable
//     window mass max(0, query(x) - miss_baseline()) - the one-sided
//     estimate minus the 2T/tau slack every estimate carries - scaled by the
//     shard's realized update load n_s / W_s and credited to bucket_of(x).
//     Flows big enough to distort placement are by construction candidates
//     (anything above one block's worth of packets overflows), so nothing
//     that matters escapes this term.
//   * mouse residue: whatever share of n_s the candidates do not explain is
//     spread evenly over the buckets shard s currently owns - hashed mouse
//     traffic IS uniform per bucket, that is the partitioner's job.
//
// Placement. Buckets are ordered heaviest-first and greedily assigned to the
// least-loaded shard (the classic LPT makespan heuristic), with a
// STICKINESS band: a bucket stays with its current owner unless that owner
// is more than `headroom * ideal` above the currently lightest shard. The
// band is what bounds migration: on balanced traffic every bucket stays
// home, the planned table equals the current one, and rebalance() is a
// no-op - which is also why the uniform-table differential guarantees
// survive (nothing moves until skew is real). The whole plan is
// deterministic (stable ordering, index tie-breaks), so two replicas of the
// same state plan the same table - the property the threaded-pipeline
// differential tests lean on.
//
// Trigger. plan() returns nullopt (and rebalance() false) unless some
// shard's update load exceeds (1 + min_imbalance) of the ideal 1/N share -
// equivalently, unless some shard's window_coverage(s) has sunk below
// W / (1 + min_imbalance). Rebalancing a balanced deployment would churn
// sampler timelines for nothing.
//
// What a migration costs: the reshard transport rebuilds shard state in
// canonical form - per-key estimates move by at most one threshold unit
// (PR 4's bound, re-pinned for the weighted path by
// tests/rebalance_test.cpp), per-shard window clocks restart at the old
// deployment's average phase, and sampler sequences restart (continuation is
// deterministic but not bit-identical to any unrebalanced timeline - there
// is no such timeline). heavy_hitters recall across the move is pinned by
// the same tests; docs/ACCURACY.md derives the coverage-recovery claim.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "shard/partitioner.hpp"
#include "shard/sharded_memento.hpp"
#include "snapshot/reshard.hpp"

namespace memento {

/// max/min ratio of the per-shard packet counts accumulated since `since`
/// (per-shard stream lengths recorded earlier; empty = since construction):
/// the realized update-load balance over an ingest segment. 1.0 is perfect;
/// +infinity when a shard received nothing - a starved shard is the WORST
/// imbalance, never balance. Shared by the rebalance tests, the fig5
/// rebalance bench, and any operator dashboard.
template <typename Front>
[[nodiscard]] double shard_load_ratio(const Front& front,
                                      std::span<const std::uint64_t> since = {}) {
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const std::uint64_t base = since.empty() ? 0 : since[s];
    const double d = static_cast<double>(front.shard(s).stream_length() - base);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
}

/// max/min spread of window_coverage() across shards: 1.0 when every
/// shard's window spans the same amount of global time, growing with the
/// systematic phase drift the rebalancer exists to remove.
template <typename Front>
[[nodiscard]] double coverage_spread(const Front& front) {
  double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const double c = front.window_coverage(s);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return hi / lo;
}

/// Tuning knobs for coverage_rebalancer. The defaults are deliberately
/// conservative: act only on a clear imbalance, keep buckets home inside a
/// small band so balanced deployments never churn.
struct rebalance_config {
  /// Plan only when the worst shard's load exceeds (1 + min_imbalance) of
  /// the ideal 1/N share - i.e. its window coverage sank below
  /// W / (1 + min_imbalance).
  double min_imbalance = 0.10;
  /// Stickiness: a bucket stays with its current owner while that owner is
  /// within headroom * ideal of the lightest shard.
  double headroom = 0.05;
};

/// The skew-aware placement policy: plan() reads the live frontend and
/// proposes a bucket -> shard table; rebalance() plans and migrates through
/// the snapshot reshard path. Stateless apart from its config; all methods
/// are deterministic functions of the frontend's observable state.
class coverage_rebalancer {
 public:
  explicit coverage_rebalancer(rebalance_config config = {}) : config_(config) {}

  /// Per-bucket update-load estimate in packets (elephant mass from the live
  /// candidate sets + evenly spread mouse residue; see file comment).
  /// Normalized so each shard's modeled total equals its REALIZED load
  /// n_s = stream_length(s): one-sided estimates over-attribute under
  /// Space-Saving churn (low-skew mixes make every candidate look heavy),
  /// and without the normalization that churn would read as phantom
  /// imbalance. With it, the per-shard totals are exact and only the
  /// within-shard bucket breakdown leans on the (noisy, elephant-dominated)
  /// candidate signal - which is the part that matters for placement.
  /// Exposed for introspection, tests and the fig5 rebalance bench.
  template <typename Front>
  [[nodiscard]] static std::vector<double> bucket_loads(const Front& front) {
    const auto& part = front.partitioner();
    const std::size_t buckets = part.buckets();
    std::vector<double> load(buckets, 0.0);
    std::vector<std::size_t> owned(front.num_shards(), 0);
    for (std::size_t b = 0; b < buckets; ++b) ++owned[part.shard_of_bucket(b)];

    std::vector<double> residual(front.num_shards(), 0.0);
    std::vector<std::pair<std::size_t, double>> attributed;  // (bucket, window share)
    for (std::size_t s = 0; s < front.num_shards(); ++s) {
      const auto& shard = front.shard(s);
      const auto n_s = static_cast<double>(shard.stream_length());
      if (n_s <= 0.0) continue;
      // Estimates span the previous full frame PLUS the current partial one
      // (memento.hpp: the overflow ring retires entries k block rotations
      // after insertion), so the window share each estimate explains is
      // est / (W + M), not est / W. Dividing by W alone inflates every
      // share by up to 2x and can push `explained` past 1 on a hot shard -
      // which zeroes the mouse residue and leaves its light buckets
      // weightless (they would never migrate).
      const auto w_s = static_cast<double>(shard.window_size() + shard.window_phase());
      attributed.clear();
      double explained = 0.0;
      // The frontend picks the attribution units: flat fronts visit candidate
      // flows, hierarchical fronts visit ROUTE-pattern prefixes (which
      // partition the stream - each packet has exactly one), so a flow is
      // never credited once per lattice pattern. Bucket lookup goes through
      // the frontend too; keys with no single owning bucket fall through to
      // the mouse residue. Raw estimates, deliberately: for the flows heavy
      // enough to steer placement the +2T slack cancels the in-frame
      // truncation almost exactly, while subtracting the miss floor would
      // shift real elephant mass into the evenly-spread residue and
      // over-weight the hot shard's mouse buckets. Churn-inflated light
      // candidates can over-explain; the 1/explained normalization below
      // caps the damage, and balanced deployments never reach plan() at all.
      front.for_each_attributable(s, [&](const auto& key, double est) {
        const std::size_t b = front.bucket_of(key);
        if (b >= buckets) return;
        const double share = est / w_s;
        attributed.emplace_back(b, share);
        explained += share;
      });
      const double scale = explained > 1.0 ? 1.0 / explained : 1.0;
      for (const auto& [b, share] : attributed) load[b] += share * scale * n_s;
      residual[s] = n_s * std::max(0.0, 1.0 - explained);
    }
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t s = part.shard_of_bucket(b);
      if (owned[s] > 0) load[b] += residual[s] / static_cast<double>(owned[s]);
    }
    return load;
  }

  /// Plans a replacement table, or nullopt when the deployment is already
  /// balanced (trigger not met, or the sticky plan equals the current
  /// assignment). Pure: does not touch the frontend.
  template <typename Front>
  [[nodiscard]] std::optional<shard_table> plan(const Front& front) const {
    const auto& part = front.partitioner();
    const std::size_t shards = front.num_shards();
    const std::size_t buckets = part.buckets();
    if (shards < 2) return std::nullopt;

    const std::vector<double> load = bucket_loads(front);
    std::vector<double> current(shards, 0.0);
    for (std::size_t b = 0; b < buckets; ++b) current[part.shard_of_bucket(b)] += load[b];
    const double total = std::accumulate(current.begin(), current.end(), 0.0);
    if (total <= 0.0) return std::nullopt;
    const double ideal = total / static_cast<double>(shards);
    const double worst = *std::max_element(current.begin(), current.end());
    if (worst <= (1.0 + config_.min_imbalance) * ideal) return std::nullopt;

    // Heaviest-first, index tie-break: deterministic for identical state.
    std::vector<std::size_t> order(buckets);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return load[a] != load[b] ? load[a] > load[b] : a < b;
    });

    shard_table next;
    next.to_shard.resize(buckets);
    std::vector<double> assigned(shards, 0.0);
    const double band = config_.headroom * ideal;
    for (const std::size_t b : order) {
      const std::size_t home = part.shard_of_bucket(b);
      std::size_t lightest = 0;
      for (std::size_t s = 1; s < shards; ++s) {
        if (assigned[s] < assigned[lightest]) lightest = s;
      }
      const std::size_t pick = assigned[home] <= assigned[lightest] + band ? home : lightest;
      next.to_shard[b] = static_cast<std::uint32_t>(pick);
      assigned[pick] += load[b];
    }

    // A plan identical to the live routing (hash mode == the uniform table)
    // is a no-op; migrating onto it would churn timelines for nothing.
    const shard_table& live = part.table();
    if (live.to_shard.empty()) {
      if (next.is_uniform(shards)) return std::nullopt;
    } else if (next == live) {
      return std::nullopt;
    }
    return next;
  }

  /// Plan + migrate + swap: replaces `front` with a frontend routing through
  /// the planned table, its window state carried over by
  /// snapshot_builder::reshard (no stream replay, <= one threshold unit of
  /// estimate movement per key). True when a migration happened.
  template <typename Front>
  bool rebalance(Front& front) const {
    const auto table = plan(front);
    if (!table) return false;
    auto next = snapshot_builder::reshard(front, front.config_snapshot(), *table);
    if (!next) return false;
    front = std::move(*next);
    return true;
  }

  [[nodiscard]] const rebalance_config& config() const noexcept { return config_; }

 private:
  rebalance_config config_;
};

}  // namespace memento
