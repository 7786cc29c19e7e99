// Generic HHH-set computation: the lattice logic of Algorithms 2, 3 and 4.
//
// Every HHH algorithm in the paper - H-Memento, MST, RHHH, and the exact
// ground truth - shares the same output procedure: walk the prefix lattice
// bottom-up (fully specified first), compute each candidate's *conditioned*
// frequency with respect to the already-selected set, and admit it when that
// exceeds the threshold. The algorithms differ only in
//   (a) where candidate prefixes and their frequency bounds come from, and
//   (b) the additive sampling-compensation term (Alg. 2 line 8: 2 Z sqrt(VW)
//       for H-Memento, the analogous term for RHHH, zero for MST/exact).
// Centralizing the walk here means the subtle parts - G(q|P) maximality and
// the 2D inclusion-exclusion with glb guards - are implemented and tested
// once.
//
// Pruning. A poll monitors thousands of prefixes and admits a few dozen, so
// solve_hhh first bounds every candidate once and keeps only
//   - the *survivors*, upper + compensation >= threshold, and
//   - the candidates that strictly generalize a survivor,
// then walks the lattice over what is kept. The admitted set, its order and
// every double are those of the walk over all candidates:
//   - By induction over levels, every admitted prefix is a survivor or an
//     ancestor of one: with G(q|P) empty, admission is exactly the survivor
//     test; otherwise q strictly generalizes an admitted prefix.
//   - So a dropped candidate d has G(d|P) empty - any selected descendant
//     would make d an ancestor of a survivor - and its conditioned frequency
//     is upper + 0.0 + compensation, below the threshold: the full walk
//     never admits it either, and P evolves identically in both walks.
// This holds for any sign of the compensation and needs only that the bound
// oracle is a pure function of the prefix.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "trace/packet.hpp"
#include "util/flat_hash.hpp"

namespace memento {

/// Upper/lower bounds on a prefix's (window or interval) frequency.
struct freq_bounds {
  double upper = 0.0;  ///< f-hat-plus: never undercounts
  double lower = 0.0;  ///< f-hat-minus: never overcounts
};

/// One admitted HHH prefix with the estimate that admitted it.
template <typename Key>
struct hhh_entry {
  Key key{};
  double conditioned_frequency = 0.0;  ///< C_{q|P} at admission time
  double upper_estimate = 0.0;         ///< f-hat-plus of the prefix itself
};

/// Computes G(q|P) per Section 4.2: the subset of P strictly generalized by
/// q, keeping only maximal elements (no other member of P strictly between).
template <typename H>
[[nodiscard]] std::vector<typename H::key_type> closest_descendants(
    const typename H::key_type& q, const std::vector<typename H::key_type>& selected) {
  using key_type = typename H::key_type;
  std::vector<key_type> inside;
  for (const auto& h : selected) {
    if (H::strictly_generalizes(q, h)) inside.push_back(h);
  }
  std::vector<key_type> maximal;
  for (const auto& h : inside) {
    const bool dominated = std::any_of(inside.begin(), inside.end(), [&](const key_type& m) {
      return !(m == h) && H::strictly_generalizes(m, h);
    });
    if (!dominated) maximal.push_back(h);
  }
  return maximal;
}

/// calcPred for one dimension (Algorithm 3): subtract the lower-bound
/// frequency of every closest selected descendant.
template <typename H, typename Bounds>
[[nodiscard]] double calc_pred_1d(const std::vector<typename H::key_type>& g,
                                  const Bounds& bounds) {
  double r = 0.0;
  for (const auto& h : g) r -= bounds(h).lower;
  return r;
}

/// calcPred for two dimensions (Algorithm 4): subtract descendants, then add
/// back each pairwise glb (inclusion-exclusion) unless the glb generalizes a
/// third member of G(q|P) - in which case that mass is already accounted for.
template <typename H, typename Bounds>
[[nodiscard]] double calc_pred_2d(const std::vector<typename H::key_type>& g,
                                  const Bounds& bounds) {
  double r = 0.0;
  for (const auto& h : g) r -= bounds(h).lower;
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t j = i + 1; j < g.size(); ++j) {
      const auto common = prefix2::glb(g[i], g[j]);
      if (!common) continue;
      const bool covered_by_third =
          std::any_of(g.begin(), g.end(), [&](const prefix2d& h3) {
            return !(h3 == g[i]) && !(h3 == g[j]) && prefix2::generalizes(*common, h3);
          });
      if (!covered_by_third) r += bounds(*common).upper;
    }
  }
  return r;
}

namespace detail {

/// The pruning step of solve_hhh (see the file comment): reorders
/// `candidates` in place and erases every one the lattice walk cannot admit,
/// keeping the survivors and the candidates that strictly generalize one.
/// Calls `bounds` once per candidate. The kept order is unspecified.
template <typename H, typename Bounds>
void keep_admissible(std::vector<typename H::key_type>& candidates, const Bounds& bounds,
                     double threshold, double compensation) {
  using key_type = typename H::key_type;
  const auto survivors_end =
      std::partition(candidates.begin(), candidates.end(), [&](const key_type& k) {
        return bounds(k).upper + compensation >= threshold;
      });
  // The survivors' strict ancestors, deduplicated in a set that is flushed
  // - pulling the non-survivors it names forward into the kept prefix -
  // whenever it fills to n/8 keys, so it stays smaller than the candidates.
  // Survivors go most specific first: one already in the set is an
  // ancestor of an earlier survivor, so all its ancestors are in there too.
  std::sort(candidates.begin(), survivors_end, [](const key_type& a, const key_type& b) {
    return H::depth(a) < H::depth(b);
  });
  auto kept_end = survivors_end;
  const std::size_t cap = std::max(candidates.size() / 8, H::hierarchy_size);
  flat_hash<key_type, std::uint8_t> ancestors;
  const auto pull = [&] {
    kept_end = std::partition(kept_end, candidates.end(),
                              [&](const key_type& k) { return ancestors.contains(k); });
    ancestors.clear();
  };
  for (auto it = candidates.begin(); it != survivors_end && kept_end != candidates.end(); ++it) {
    if (ancestors.contains(*it)) continue;
    if (ancestors.size() + H::hierarchy_size > cap) pull();
    const packet member = H::representative(*it);
    for (std::size_t i = 0; i < H::hierarchy_size; ++i) {
      const key_type a = H::key_at(member, i);
      if (H::strictly_generalizes(a, *it)) (void)ancestors.find_or_emplace(a, 0);
    }
  }
  pull();
  candidates.erase(kept_end, candidates.end());
}

}  // namespace detail

/// Full HHH output walk (Algorithm 2 lines 3-10).
///
/// @param candidates    all monitored prefixes (any order, duplicates allowed).
/// @param bounds        frequency-bound oracle, freq_bounds(const key_type&);
///                      also queried for glb prefixes that may not be
///                      monitored (return {0, 0} slack there). Must be pure:
///                      the pruning step bounds each candidate once more.
/// @param threshold     admission threshold in packets (theta * W or theta * N).
/// @param compensation  additive slack on the conditioned frequency
///                      (Alg. 2 line 8); zero for deterministic algorithms.
template <typename H, typename Bounds>
[[nodiscard]] std::vector<hhh_entry<typename H::key_type>> solve_hhh(
    std::vector<typename H::key_type> candidates, const Bounds& bounds, double threshold,
    double compensation) {
  using key_type = typename H::key_type;
  detail::keep_admissible<H>(candidates, bounds, threshold, compensation);

  // Bottom-up by level, key order within a level; drop duplicates so a
  // prefix is considered once.
  std::sort(candidates.begin(), candidates.end(), [](const key_type& a, const key_type& b) {
    const std::size_t da = H::depth(a);
    const std::size_t db = H::depth(b);
    return da != db ? da < db : a < b;
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  std::vector<key_type> selected;
  std::vector<hhh_entry<key_type>> result;

  // Admissions within a level are relative to lower levels only: P is the
  // set selected at strictly lower levels plus earlier same-level picks,
  // exactly as the sequential loop of Algorithm 2 produces it.
  for (const auto& q : candidates) {
    const auto g = closest_descendants<H>(q, selected);
    const double upper = bounds(q).upper;
    double conditioned = upper;
    if constexpr (H::two_dimensional) {
      conditioned += calc_pred_2d<H>(g, bounds);
    } else {
      conditioned += calc_pred_1d<H>(g, bounds);
    }
    conditioned += compensation;
    if (conditioned >= threshold) {
      selected.push_back(q);
      result.push_back({q, conditioned, upper});
    }
  }
  return result;
}

}  // namespace memento
