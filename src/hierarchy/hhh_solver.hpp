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
// solve_hhh walks the lattice over only
//   - the *survivors*, upper + compensation >= threshold, and
//   - the candidates that strictly generalize a survivor,
// and the admitted set, its order and every double are those of the walk
// over all candidates:
//   - By induction over levels, every admitted prefix is a survivor or an
//     ancestor of one: with G(q|P) empty, admission is exactly the survivor
//     test; otherwise q strictly generalizes an admitted prefix.
//   - So a dropped candidate d has G(d|P) empty - any selected descendant
//     would make d an ancestor of a survivor - and its conditioned frequency
//     is upper + 0.0 + compensation, below the threshold: the full walk
//     never admits it either, and P evolves identically in both walks.
// This holds for any sign of the compensation and needs only that the bound
// oracle is a pure function of the prefix.
//
// The survivors come from a visitor that may skip a candidate without
// bounding it when the survivor test fails on a ceiling of its upper bound
// (memento_sketch::for_each_live_key). The test is the same expression,
// applied to the ceiling, and it is monotone under round-to-nearest, so a
// skipped candidate fails it on its own upper bound too: it is no survivor.
// The survivors' strict ancestors are collected once, deduplicated, and each
// that is not a survivor is resolved by a membership lookup - its bounds iff
// it is a candidate. Past the visitor's pass over its table, the cost
// follows the survivors, not the candidates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
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

namespace detail {

/// A candidate prefix with its bounds.
template <typename Key>
struct bounded_key {
  Key key{};
  freq_bounds bounds{};
};

/// The walk order: bottom-up by level (fully specified first), key order
/// within a level.
template <typename H>
[[nodiscard]] bool walk_order(const bounded_key<typename H::key_type>& a,
                              const bounded_key<typename H::key_type>& b) {
  const std::size_t da = H::depth(a.key);
  const std::size_t db = H::depth(b.key);
  return da != db ? da < db : a.key < b.key;
}

/// Algorithm 2 lines 3-10 over `kept` (distinct keys in walk_order) with
/// their bounds. `bounds` is queried only for 2-D glb prefixes.
///
/// Admissions within a level are relative to lower levels only: P is the
/// set selected at strictly lower levels plus earlier same-level picks,
/// exactly as the sequential loop of Algorithm 2 produces it. G(q|P) keeps
/// the maximal members of P that q strictly generalizes. Scanning P newest
/// first finds every member's strict generalizations before the member
/// itself (they sit at higher levels), and by transitivity a member is
/// non-maximal iff a maximal one found so far strictly generalizes it.
/// G(q|P) is then reversed into selection order, so calcPred (Algorithms 3
/// and 4) sums in the same order as over a selection-ordered G(q|P).
template <typename H, typename Bounds>
[[nodiscard]] std::vector<hhh_entry<typename H::key_type>> walk_lattice(
    const std::vector<bounded_key<typename H::key_type>>& kept, const Bounds& bounds,
    double threshold, double compensation) {
  using key_type = typename H::key_type;
  std::vector<hhh_entry<key_type>> result;
  std::vector<std::size_t> selected;  // indices into kept, in selection order
  std::vector<std::size_t> g;         // G(q|P), reused across candidates
  for (std::size_t qi = 0; qi < kept.size(); ++qi) {
    const key_type& q = kept[qi].key;
    g.clear();
    for (auto it = selected.rbegin(); it != selected.rend(); ++it) {
      const key_type& h = kept[*it].key;
      if (!H::strictly_generalizes(q, h)) continue;
      const bool dominated = std::any_of(g.begin(), g.end(), [&](std::size_t m) {
        return H::strictly_generalizes(kept[m].key, h);
      });
      if (!dominated) g.push_back(*it);
    }
    std::reverse(g.begin(), g.end());

    // calcPred: subtract the lower bound of every closest selected
    // descendant; in 2-D add back each pairwise glb unless it generalizes a
    // third member of G(q|P), whose mass is then already accounted for.
    double pred = 0.0;
    for (const std::size_t h : g) pred -= kept[h].bounds.lower;
    if constexpr (H::two_dimensional) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        for (std::size_t j = i + 1; j < g.size(); ++j) {
          const auto common = prefix2::glb(kept[g[i]].key, kept[g[j]].key);
          if (!common) continue;
          const bool covered_by_third = std::any_of(g.begin(), g.end(), [&](std::size_t h3) {
            return h3 != g[i] && h3 != g[j] && prefix2::generalizes(*common, kept[h3].key);
          });
          if (!covered_by_third) pred += bounds(*common).upper;
        }
      }
    }
    const double upper = kept[qi].bounds.upper;
    double conditioned = upper;
    conditioned += pred;
    conditioned += compensation;
    if (conditioned >= threshold) {
      selected.push_back(qi);
      result.push_back({q, conditioned, upper});
    }
  }
  return result;
}

}  // namespace detail

/// Full HHH output walk (Algorithm 2 lines 3-10) over a candidate set given
/// by a visitor and a lookup.
///
/// @param visit         visit(survives, emit): calls emit(key, freq_bounds)
///                      at most once per candidate, for at least every
///                      candidate with survives(upper); it may skip one whose
///                      upper bound provably fails the monotone survives().
/// @param lookup        std::optional<freq_bounds>(const key_type&): the
///                      key's bounds iff it is a candidate.
/// @param bounds        frequency-bound oracle, freq_bounds(const key_type&),
///                      for 2-D glb prefixes that may not be candidates
///                      (return {0, 0} slack there). All three must agree on
///                      a candidate's bounds and be pure.
/// @param threshold     admission threshold in packets (theta * W or theta * N).
/// @param compensation  additive slack on the conditioned frequency
///                      (Alg. 2 line 8); zero for deterministic algorithms.
template <typename H, typename Visit, typename Lookup, typename Bounds>
[[nodiscard]] std::vector<hhh_entry<typename H::key_type>> solve_hhh(
    const Visit& visit, const Lookup& lookup, const Bounds& bounds, double threshold,
    double compensation) {
  using key_type = typename H::key_type;
  const auto survives = [&](double upper) { return upper + compensation >= threshold; };
  std::vector<detail::bounded_key<key_type>> kept;
  visit(survives, [&](const key_type& k, const freq_bounds& b) {
    if (survives(b.upper)) kept.push_back({k, b});
  });
  std::sort(kept.begin(), kept.end(), detail::walk_order<H>);
  const auto survivors = static_cast<std::ptrdiff_t>(kept.size());

  // The survivors' strict ancestors, marked 1 when they are survivors
  // themselves. Survivors go most specific first: one already in the set
  // is an ancestor of an earlier survivor, so all its ancestors are in
  // there too, and no later survivor can add it. Most survivors are no
  // one's ancestor, so the set is sized for twice the survivors: a missing
  // key's linear probe runs ~8.5 slots at the 3/4 maximum load, under 2 at
  // 3/8.
  flat_hash<key_type, std::uint8_t> ancestors(2 * kept.size());
  for (auto it = kept.begin(); it != kept.begin() + survivors; ++it) {
    if (std::uint8_t* mark = ancestors.find(it->key)) {
      *mark = 1;
      continue;
    }
    const packet member = H::representative(it->key);
    for (std::size_t i = 0; i < H::hierarchy_size; ++i) {
      const key_type a = H::key_at(member, i);
      if (H::strictly_generalizes(a, it->key)) (void)ancestors.find_or_emplace(a, 0);
    }
  }
  ancestors.for_each([&](const key_type& a, std::uint8_t survivor) {
    if (survivor != 0) return;
    if (const std::optional<freq_bounds> b = lookup(a)) kept.push_back({a, *b});
  });
  std::sort(kept.begin() + survivors, kept.end(), detail::walk_order<H>);
  std::inplace_merge(kept.begin(), kept.begin() + survivors, kept.end(),
                     detail::walk_order<H>);
  return detail::walk_lattice<H>(kept, bounds, threshold, compensation);
}

/// solve_hhh over an explicit candidate list (any order, duplicates
/// allowed), with `bounds` as the oracle for every prefix. Must be pure: a
/// candidate that is a survivor's ancestor is bounded once more.
template <typename H, typename Bounds>
[[nodiscard]] std::vector<hhh_entry<typename H::key_type>> solve_hhh(
    std::vector<typename H::key_type> candidates, const Bounds& bounds, double threshold,
    double compensation) {
  using key_type = typename H::key_type;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return solve_hhh<H>(
      [&](const auto&, const auto& emit) {
        for (const key_type& k : candidates) emit(k, bounds(k));
      },
      [&](const key_type& k) {
        return std::binary_search(candidates.begin(), candidates.end(), k)
                   ? std::optional<freq_bounds>(bounds(k))
                   : std::nullopt;
      },
      bounds, threshold, compensation);
}

}  // namespace memento
