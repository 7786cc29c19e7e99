// Tests for the prefix lattices (1D / 2D), glb, G(q|P), and the shared HHH
// solver - the Algorithm 2/3/4 machinery, exercised on hand-computed cases
// and, for the solver's candidate pruning, against the unpruned walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/h_memento.hpp"
#include "hierarchy/hhh_solver.hpp"
#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "shard/sharded_h_memento.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"

namespace memento {
namespace {

// Address helper: 181.7.20.6 style constants.
constexpr std::uint32_t ip(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (a << 24) | (b << 16) | (c << 8) | d;
}

// --- 1D prefix arithmetic ----------------------------------------------------

TEST(Prefix1d, MasksPerDepth) {
  EXPECT_EQ(prefix1d::mask_for_depth(0), 0xffffffffu);
  EXPECT_EQ(prefix1d::mask_for_depth(1), 0xffffff00u);
  EXPECT_EQ(prefix1d::mask_for_depth(2), 0xffff0000u);
  EXPECT_EQ(prefix1d::mask_for_depth(3), 0xff000000u);
  EXPECT_EQ(prefix1d::mask_for_depth(4), 0u);
  // Total: every depth past the root masks every bit too.
  for (const std::size_t d : {std::size_t{5}, std::size_t{8}, std::size_t{64}, SIZE_MAX}) {
    EXPECT_EQ(prefix1d::mask_for_depth(d), 0u) << "depth " << d;
  }
}

// The table-driven mask against the shift it replaced: /32 - 8*depth bits,
// with depth 4 (the root) keeping no bit at all.
TEST(SimdPrefix, DepthMaskMatchesPrefix1dIncludingFullGeneralization) {
  for (std::size_t d = 0; d <= 4; ++d) {
    const unsigned bits = prefix1d::prefix_bits(d);
    const std::uint32_t shifted = bits == 0 ? 0u : ~0u << (32u - bits);
    EXPECT_EQ(prefix1d::mask_for_depth(d), shifted) << "depth " << d;
  }
  EXPECT_EQ(prefix1d::mask_for_depth(4), 0u) << "/0 must mask every bit";
}

TEST(Prefix1d, KeyEncodesMaskedAddressAndDepth) {
  const auto key = prefix1d::make_key(ip(181, 7, 20, 6), 2);
  EXPECT_EQ(prefix1d::key_addr(key), ip(181, 7, 0, 0));
  EXPECT_EQ(prefix1d::key_depth(key), 2u);
}

TEST(Prefix1d, EqualPrefixesEncodeIdentically) {
  EXPECT_EQ(prefix1d::make_key(ip(181, 7, 20, 6), 2), prefix1d::make_key(ip(181, 7, 99, 1), 2));
}

TEST(Prefix1d, GeneralizesFollowsThePaperExample) {
  // "181.7.20.* and 181.7.* generalize the (fully specified) 181.7.20.6".
  const auto full = prefix1d::make_key(ip(181, 7, 20, 6), 0);
  const auto p24 = prefix1d::make_key(ip(181, 7, 20, 0), 1);
  const auto p16 = prefix1d::make_key(ip(181, 7, 0, 0), 2);
  EXPECT_TRUE(prefix1d::generalizes(p24, full));
  EXPECT_TRUE(prefix1d::generalizes(p16, full));
  EXPECT_TRUE(prefix1d::generalizes(p16, p24));
  EXPECT_FALSE(prefix1d::generalizes(p24, p16));
  EXPECT_FALSE(prefix1d::generalizes(full, p24));
  EXPECT_TRUE(prefix1d::generalizes(full, full));
  EXPECT_FALSE(prefix1d::strictly_generalizes(full, full));
}

TEST(Prefix1d, RootGeneralizesEverything) {
  const auto root = prefix1d::make_key(0, 4);
  for (std::uint32_t addr : {0u, ip(1, 2, 3, 4), 0xffffffffu}) {
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_TRUE(prefix1d::generalizes(root, prefix1d::make_key(addr, d)));
    }
  }
}

TEST(Prefix1d, UnrelatedSubnetsDoNotGeneralize) {
  const auto a = prefix1d::make_key(ip(10, 0, 0, 0), 3);
  const auto b = prefix1d::make_key(ip(11, 5, 5, 5), 0);
  EXPECT_FALSE(prefix1d::generalizes(a, b));
}

TEST(Prefix1d, ParentIsOneLevelUp) {
  const auto full = prefix1d::make_key(ip(181, 7, 20, 6), 0);
  const auto parent = prefix1d::parent(full);
  EXPECT_EQ(prefix1d::key_depth(parent), 1u);
  EXPECT_EQ(prefix1d::key_addr(parent), ip(181, 7, 20, 0));
}

TEST(SourceHierarchy, KeyAtEnumeratesAllGeneralizations) {
  const packet p{ip(181, 7, 20, 6), 0};
  EXPECT_EQ(source_hierarchy::hierarchy_size, 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto key = source_hierarchy::key_at(p, i);
    EXPECT_EQ(source_hierarchy::depth(key), i);
    EXPECT_EQ(source_hierarchy::pattern_index(key), i);
    EXPECT_TRUE(source_hierarchy::generalizes(key, source_hierarchy::full_key(p)));
  }
}

TEST(SourceHierarchy, ToStringRendersCidr) {
  const packet p{ip(181, 7, 20, 6), 0};
  EXPECT_EQ(source_hierarchy::to_string(source_hierarchy::key_at(p, 0)), "181.7.20.6/32");
  EXPECT_EQ(source_hierarchy::to_string(source_hierarchy::key_at(p, 2)), "181.7.0.0/16");
  EXPECT_EQ(source_hierarchy::to_string(source_hierarchy::key_at(p, 4)), "0.0.0.0/0");
}

// --- 2D prefix arithmetic ----------------------------------------------------

TEST(Prefix2d, DepthIsSumOfDimensionDepths) {
  EXPECT_EQ(prefix2::depth(prefix2::make(1, 0, 2, 0)), 0u);
  EXPECT_EQ(prefix2::depth(prefix2::make(1, 2, 2, 3)), 5u);
  EXPECT_EQ(prefix2::depth(prefix2::make(1, 4, 2, 4)), 8u);
  EXPECT_EQ(two_dim_hierarchy::num_levels, 9u);
  EXPECT_EQ(two_dim_hierarchy::hierarchy_size, 25u);
}

TEST(Prefix2d, GeneralizesRequiresBothDimensions) {
  const auto full = prefix2::make(ip(181, 7, 20, 6), 0, ip(208, 67, 222, 222), 0);
  const auto src_gen = prefix2::make(ip(181, 7, 20, 0), 1, ip(208, 67, 222, 222), 0);
  const auto dst_gen = prefix2::make(ip(181, 7, 20, 6), 0, ip(208, 67, 222, 0), 1);
  const auto both = prefix2::make(ip(181, 7, 0, 0), 2, ip(208, 67, 0, 0), 2);
  EXPECT_TRUE(prefix2::generalizes(src_gen, full));
  EXPECT_TRUE(prefix2::generalizes(dst_gen, full));
  EXPECT_TRUE(prefix2::generalizes(both, full));
  EXPECT_FALSE(prefix2::generalizes(full, src_gen));
  // Incomparable pair: each generalizes a different dimension.
  EXPECT_FALSE(prefix2::generalizes(src_gen, dst_gen));
  EXPECT_FALSE(prefix2::generalizes(dst_gen, src_gen));
}

TEST(Prefix2d, PaperParentExample) {
  // (181.7.20.*, 208.67.222.222) and (181.7.20.6, 208.67.222.*) are both
  // parents of (181.7.20.6, 208.67.222.222).
  const auto child = prefix2::make(ip(181, 7, 20, 6), 0, ip(208, 67, 222, 222), 0);
  const auto parent_a = prefix2::make(ip(181, 7, 20, 0), 1, ip(208, 67, 222, 222), 0);
  const auto parent_b = prefix2::make(ip(181, 7, 20, 6), 0, ip(208, 67, 222, 0), 1);
  EXPECT_TRUE(prefix2::strictly_generalizes(parent_a, child));
  EXPECT_TRUE(prefix2::strictly_generalizes(parent_b, child));
  EXPECT_EQ(prefix2::depth(parent_a), 1u);
  EXPECT_EQ(prefix2::depth(parent_b), 1u);
}

TEST(Prefix2d, GlbOfComparablePairIsTheDeeperOne) {
  const auto shallow = prefix2::make(ip(10, 0, 0, 0), 3, ip(20, 0, 0, 0), 3);
  const auto deep = prefix2::make(ip(10, 1, 0, 0), 2, ip(20, 2, 0, 0), 2);
  const auto g = prefix2::glb(shallow, deep);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g, deep);
}

TEST(Prefix2d, GlbOfCrossPairMixesDimensions) {
  // h  = (10.1.*, 20.*)   h' = (10.*, 20.2.*)  ->  glb = (10.1.*, 20.2.*).
  const auto h = prefix2::make(ip(10, 1, 0, 0), 2, ip(20, 0, 0, 0), 3);
  const auto h2 = prefix2::make(ip(10, 0, 0, 0), 3, ip(20, 2, 0, 0), 2);
  const auto g = prefix2::glb(h, h2);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(*g, prefix2::make(ip(10, 1, 0, 0), 2, ip(20, 2, 0, 0), 2));
}

TEST(Prefix2d, GlbAbsentForDisjointSubnets) {
  const auto h = prefix2::make(ip(10, 1, 0, 0), 2, ip(20, 0, 0, 0), 3);
  const auto h2 = prefix2::make(ip(11, 2, 0, 0), 2, ip(20, 2, 0, 0), 2);
  EXPECT_FALSE(prefix2::glb(h, h2).has_value());
}

TEST(Prefix2d, GlbIsCommutative) {
  const auto h = prefix2::make(ip(10, 1, 0, 0), 2, ip(20, 0, 0, 0), 3);
  const auto h2 = prefix2::make(ip(10, 0, 0, 0), 3, ip(20, 2, 0, 0), 2);
  EXPECT_EQ(prefix2::glb(h, h2), prefix2::glb(h2, h));
}

TEST(TwoDimHierarchy, PatternIndexRoundTripsKeyAt) {
  const packet p{ip(1, 2, 3, 4), ip(5, 6, 7, 8)};
  for (std::size_t i = 0; i < 25; ++i) {
    const auto key = two_dim_hierarchy::key_at(p, i);
    EXPECT_EQ(two_dim_hierarchy::pattern_index(key), i);
    EXPECT_TRUE(two_dim_hierarchy::generalizes(key, two_dim_hierarchy::full_key(p)));
  }
}

TEST(TwoDimHierarchy, MaterializeKeysMatchesKeyAtOracle) {
  // The batch path's gathered materialization: idx repeats and skips
  // packets, and every one of the 25 levels occurs.
  xoshiro256 rng(66);
  constexpr std::size_t kN = 101;
  std::vector<packet> packets(kN);
  std::vector<std::uint32_t> idx(kN);
  std::vector<std::uint8_t> levels(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    packets[i] = {static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng())};
    idx[i] = static_cast<std::uint32_t>(rng() % kN);
    levels[i] = static_cast<std::uint8_t>(i % two_dim_hierarchy::hierarchy_size);
  }
  std::vector<prefix2d> out(kN, prefix2d{~0u, ~0u, 0xff, 0xff});
  two_dim_hierarchy::materialize_keys(packets.data(), idx.data(), levels.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], two_dim_hierarchy::key_at(packets[idx[i]], levels[i])) << "i=" << i;
  }
}

// --- G(q|P) -------------------------------------------------------------------
// The reference walk's own lattice helpers, written straight from Section 4.2
// and Algorithms 3 and 4 and independent of solve_hhh's walk.

/// G(q|P): the subset of P strictly generalized by q, keeping only maximal
/// elements (no other member of P strictly between).
template <typename H>
std::vector<typename H::key_type> closest_descendants(
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
double calc_pred_1d(const std::vector<typename H::key_type>& g, const Bounds& bounds) {
  double r = 0.0;
  for (const auto& h : g) r -= bounds(h).lower;
  return r;
}

/// calcPred for two dimensions (Algorithm 4): subtract descendants, then add
/// back each pairwise glb (inclusion-exclusion) unless the glb generalizes a
/// third member of G(q|P) - in which case that mass is already accounted for.
template <typename H, typename Bounds>
double calc_pred_2d(const std::vector<typename H::key_type>& g, const Bounds& bounds) {
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

TEST(ClosestDescendants, PaperExample) {
  // p = 142.14.*, P = {142.14.13.*, 142.14.13.14} -> G(p|P) = {142.14.13.*}.
  using H = source_hierarchy;
  const auto p = prefix1d::make_key(ip(142, 14, 0, 0), 2);
  const std::vector<std::uint64_t> selected = {
      prefix1d::make_key(ip(142, 14, 13, 0), 1),
      prefix1d::make_key(ip(142, 14, 13, 14), 0),
  };
  const auto g = closest_descendants<H>(p, selected);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0], selected[0]);
}

TEST(ClosestDescendants, KeepsIncomparableSiblings) {
  using H = source_hierarchy;
  const auto p = prefix1d::make_key(0, 4);  // root
  const std::vector<std::uint64_t> selected = {
      prefix1d::make_key(ip(10, 0, 0, 0), 3),
      prefix1d::make_key(ip(11, 0, 0, 0), 3),
  };
  EXPECT_EQ(closest_descendants<H>(p, selected).size(), 2u);
}

TEST(ClosestDescendants, IgnoresNonDescendants) {
  using H = source_hierarchy;
  const auto p = prefix1d::make_key(ip(10, 0, 0, 0), 3);
  const std::vector<std::uint64_t> selected = {
      prefix1d::make_key(ip(11, 1, 0, 0), 2),  // different /8
      prefix1d::make_key(0, 4),                // ancestor, not descendant
      p,                                       // itself: not strict
  };
  EXPECT_TRUE(closest_descendants<H>(p, selected).empty());
}

// --- solve_hhh on exact hand-computed inputs -----------------------------------

/// Bound oracle backed by a map (exact counts; missing = 0).
template <typename K>
std::function<freq_bounds(const K&)> exact_oracle(
    const std::unordered_map<K, double>& counts) {
  return [&counts](const K& k) {
    const auto it = counts.find(k);
    const double f = it == counts.end() ? 0.0 : it->second;
    return freq_bounds{f, f};
  };
}

TEST(SolveHhh1d, ConditionedFrequencySubtractsSelectedChildren) {
  using H = source_hierarchy;
  // Window of 100: host A = 40 packets, host B = 15, both in 10.1.1.0/24.
  // theta*W = 30: A qualifies alone; the /24 carries 60 total so its
  // conditioned frequency is 60 - 40 = 20 < 30 -> excluded; /16, /8 same;
  // root picks up 100 - 40 = 60 -> included.
  const auto hostA = prefix1d::make_key(ip(10, 1, 1, 1), 0);
  const auto hostB = prefix1d::make_key(ip(10, 1, 1, 2), 0);
  const auto net24 = prefix1d::make_key(ip(10, 1, 1, 0), 1);
  const auto net16 = prefix1d::make_key(ip(10, 1, 0, 0), 2);
  const auto net8 = prefix1d::make_key(ip(10, 0, 0, 0), 3);
  const auto root = prefix1d::make_key(0, 4);
  std::unordered_map<std::uint64_t, double> counts = {
      {hostA, 40}, {hostB, 15}, {net24, 60}, {net16, 60}, {net8, 60}, {root, 100},
  };
  const auto result = solve_hhh<H>({hostA, hostB, net24, net16, net8, root},
                                   exact_oracle(counts), 30.0, 0.0);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].key, hostA);
  EXPECT_EQ(result[1].key, root);
  EXPECT_DOUBLE_EQ(result[1].conditioned_frequency, 60.0);
}

TEST(SolveHhh1d, DeepSelectionShieldsAncestors) {
  using H = source_hierarchy;
  // One hot /24 with 80 of 100 packets spread over many hosts; every
  // ancestor's conditioned frequency collapses once the /24 is selected.
  const auto net24 = prefix1d::make_key(ip(10, 1, 1, 0), 1);
  const auto net16 = prefix1d::make_key(ip(10, 1, 0, 0), 2);
  const auto net8 = prefix1d::make_key(ip(10, 0, 0, 0), 3);
  const auto root = prefix1d::make_key(0, 4);
  std::unordered_map<std::uint64_t, double> counts = {
      {net24, 80}, {net16, 80}, {net8, 80}, {root, 100}};
  const auto result =
      solve_hhh<H>({net24, net16, net8, root}, exact_oracle(counts), 30.0, 0.0);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].key, net24);
}

TEST(SolveHhh1d, CompensationAdmitsBorderlinePrefixes) {
  using H = source_hierarchy;
  const auto host = prefix1d::make_key(ip(1, 2, 3, 4), 0);
  std::unordered_map<std::uint64_t, double> counts = {{host, 25}};
  EXPECT_TRUE(solve_hhh<H>({host}, exact_oracle(counts), 30.0, 0.0).empty());
  EXPECT_EQ(solve_hhh<H>({host}, exact_oracle(counts), 30.0, 10.0).size(), 1u);
}

TEST(SolveHhh1d, DuplicateCandidatesCountOnce) {
  using H = source_hierarchy;
  const auto host = prefix1d::make_key(ip(1, 2, 3, 4), 0);
  std::unordered_map<std::uint64_t, double> counts = {{host, 50}};
  const auto result = solve_hhh<H>({host, host, host}, exact_oracle(counts), 30.0, 0.0);
  EXPECT_EQ(result.size(), 1u);
}

TEST(SolveHhh2d, InclusionExclusionAddsBackGlb) {
  using H = two_dim_hierarchy;
  // Flows: (s1,d1)=40. Selected level-1 prefixes (s1,*d)=45 and (*s,d1)=45
  // both contain the 40. Their common parent q=(*s,*d) at level 2 has 100
  // packets; conditioned = 100 - 45 - 45 + glb(=(s1,d1) count 40) = 50.
  const std::uint32_t s1 = ip(10, 1, 1, 1);
  const std::uint32_t d1 = ip(20, 1, 1, 1);
  const auto full = prefix2::make(s1, 0, d1, 0);
  const auto src_side = prefix2::make(s1, 0, d1, 1);  // (s1, d1/24)
  const auto dst_side = prefix2::make(s1, 1, d1, 0);  // (s1/24, d1)
  const auto q = prefix2::make(s1, 1, d1, 1);         // (s1/24, d1/24)
  std::unordered_map<prefix2d, double> counts = {
      {full, 40}, {src_side, 45}, {dst_side, 45}, {q, 100}};
  // Threshold 42: `full` (40) misses; both level-1 prefixes (45) selected;
  // q's conditioned = 100 - 45 - 45 + 40 = 50 >= 42 -> selected.
  const auto result = solve_hhh<H>({full, src_side, dst_side, q}, exact_oracle(counts),
                                   42.0, 0.0);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[2].key, q);
  EXPECT_DOUBLE_EQ(result[2].conditioned_frequency, 50.0);
}

TEST(SolveHhh2d, InclusionExclusionExcludesCoveredParent) {
  using H = two_dim_hierarchy;
  // full=(s,d)=40 misses the bar (55); both level-1 sides carry 60 and are
  // selected; q's conditioned frequency is 100 - 60 - 60 + 40 = 20 < 55 ->
  // correctly excluded. Without the subtraction a pessimist would see 100
  // (false positive); without the glb add-back, -20 (nonsense).
  const std::uint32_t s1 = ip(10, 1, 1, 1);
  const std::uint32_t d1 = ip(20, 1, 1, 1);
  const auto full = prefix2::make(s1, 0, d1, 0);
  const auto src_side = prefix2::make(s1, 0, d1, 1);
  const auto dst_side = prefix2::make(s1, 1, d1, 0);
  const auto q = prefix2::make(s1, 1, d1, 1);
  std::unordered_map<prefix2d, double> counts = {
      {full, 40}, {src_side, 60}, {dst_side, 60}, {q, 100}};
  const auto result = solve_hhh<H>({full, src_side, dst_side, q}, exact_oracle(counts),
                                   55.0, 0.0);
  ASSERT_EQ(result.size(), 2u);  // only the two level-1 prefixes
  EXPECT_TRUE(result[0].key == src_side || result[0].key == dst_side);
  EXPECT_TRUE(result[1].key == src_side || result[1].key == dst_side);
}

TEST(SolveHhh2d, GlbCoveredByThirdSelectedIsSkipped) {
  using H = two_dim_hierarchy;
  // G(q|P) = {a, b, c} where glb(a, b) generalizes c: the add-back must be
  // skipped or c's mass is double counted (Algorithm 4 line 6 guard).
  const std::uint32_t s = ip(10, 1, 1, 1);
  const std::uint32_t d = ip(20, 1, 1, 1);
  const auto a = prefix2::make(s, 0, d, 2);  // (s, d/16)
  const auto b = prefix2::make(s, 2, d, 0);  // (s/16, d)
  const auto c = prefix2::make(s, 1, d, 1);  // (s/24, d/24) - glb(a,b)=(s,d)? no:
  // glb(a,b) = (s, d) fully specified; c=(s/24,d/24) is NOT generalized by
  // (s,d). Build instead: glb(a,b)=(s,d); use c=(s,d) itself as a selected
  // descendant via a deeper level - then the guard triggers.
  const auto full = prefix2::make(s, 0, d, 0);
  const auto q = prefix2::make(s, 2, d, 2);  // (s/16, d/16), level 4
  (void)c;
  std::unordered_map<prefix2d, double> counts = {
      {full, 50}, {a, 60}, {b, 60}, {q, 120}};
  // Levels: full(0) selected (50 >= 40); a,b at level 2: conditioned =
  // 60 - 50 = 10 < 40 -> NOT selected. So G(q|P)={full}; q conditioned =
  // 120 - 50 = 70 >= 40 -> selected.
  const auto result =
      solve_hhh<H>({full, a, b, q}, exact_oracle(counts), 40.0, 0.0);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].key, full);
  EXPECT_EQ(result[1].key, q);
  EXPECT_DOUBLE_EQ(result[1].conditioned_frequency, 70.0);
}

TEST(SolveHhh, EmptyCandidatesYieldEmptySet) {
  using H = source_hierarchy;
  std::unordered_map<std::uint64_t, double> counts;
  EXPECT_TRUE(solve_hhh<H>({}, exact_oracle(counts), 1.0, 0.0).empty());
}

// --- pruned walk vs the unpruned reference walk ---------------------------------

/// Algorithm 2's lattice walk over EVERY candidate, with no pruning: group
/// by level, sort and dedup each level, admit bottom-up. solve_hhh must
/// reproduce it entry for entry and bit for bit.
template <typename H>
std::vector<hhh_entry<typename H::key_type>> reference_walk(
    std::vector<typename H::key_type> candidates,
    const std::function<freq_bounds(const typename H::key_type&)>& bounds, double threshold,
    double compensation) {
  using key_type = typename H::key_type;
  std::vector<std::vector<key_type>> by_level(H::num_levels);
  for (const auto& k : candidates) by_level[H::depth(k)].push_back(k);

  std::vector<key_type> selected;
  std::vector<hhh_entry<key_type>> result;
  for (auto& level : by_level) {
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    for (const auto& q : level) {
      const auto g = closest_descendants<H>(q, selected);
      double conditioned = bounds(q).upper;
      if constexpr (H::two_dimensional) {
        conditioned += calc_pred_2d<H>(g, bounds);
      } else {
        conditioned += calc_pred_1d<H>(g, bounds);
      }
      conditioned += compensation;
      if (conditioned >= threshold) {
        selected.push_back(q);
        result.push_back({q, conditioned, bounds(q).upper});
      }
    }
  }
  return result;
}

/// Same entries, same order, the same doubles bit for bit.
template <typename Key>
void expect_bitwise_equal(const std::vector<hhh_entry<Key>>& got,
                          const std::vector<hhh_entry<Key>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].key == want[i].key) << "entry " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].conditioned_frequency),
              std::bit_cast<std::uint64_t>(want[i].conditioned_frequency))
        << "entry " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].upper_estimate),
              std::bit_cast<std::uint64_t>(want[i].upper_estimate))
        << "entry " << i;
  }
}

/// A packet from a small address pool, so random prefixes share ancestors.
packet clustered_packet(xoshiro256& rng) {
  const auto pick = [&](std::uint32_t base) {
    return base | static_cast<std::uint32_t>(rng.bounded(3)) << 16 |
           static_cast<std::uint32_t>(rng.bounded(3)) << 8 |
           static_cast<std::uint32_t>(rng.bounded(4));
  };
  return packet{pick(ip(10, 0, 0, 0)), pick(ip(20, 0, 0, 0))};
}

/// Randomized solve_hhh-vs-reference trials for one hierarchy. Each trial
/// draws clustered candidates (with duplicates and full ancestor chains), a
/// hash-seeded bound oracle, and a compensation below, at or above zero.
/// On the integer grid, upper + compensation == threshold ties are common.
/// calcPred can turn positive and admit a non-survivor - the walk must then
/// still see that candidate - through 2-D glb add-backs that exceed the
/// subtractions, or, unless `sound_lowers` keeps every lower bound in
/// [0, upper], through lower bounds that are negative or above the upper.
/// Returns how many admitted entries were not survivors.
template <typename H>
std::size_t run_pruned_walk_trials(std::uint64_t seed, bool sound_lowers) {
  using key_type = typename H::key_type;
  xoshiro256 rng(seed);
  std::size_t non_survivors_admitted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const bool integer_grid = trial % 2 == 0;
    const std::uint64_t salt = rng();
    const double threshold = 30.0;
    const double compensation = static_cast<double>(trial % 3) * 5.0 - 5.0;  // -5, 0, +5

    std::vector<key_type> candidates;
    const std::size_t n = 1 + rng.bounded(60);
    for (std::size_t i = 0; i < n; ++i) {
      const packet p = clustered_packet(rng);
      const auto level = static_cast<std::size_t>(rng.bounded(H::hierarchy_size));
      candidates.push_back(H::key_at(p, level));
      if (rng.bounded(4) == 0) candidates.push_back(candidates.back());  // duplicate
      if (rng.bounded(4) == 0) {  // the full chain, as a live sketch monitors it
        for (std::size_t j = 0; j < H::hierarchy_size; ++j) {
          candidates.push_back(H::key_at(p, j));
        }
      }
    }

    const std::function<freq_bounds(const key_type&)> bounds = [&](const key_type& k) {
      xoshiro256 roll(std::hash<key_type>{}(k) ^ salt);
      const double upper = integer_grid ? static_cast<double>(roll.bounded(45))
                                        : roll.uniform01() * 45.0;
      // Lower: in [0, upper], or 1 in 4 negative or above upper.
      const auto share = static_cast<double>(roll.bounded(sound_lowers ? 6 : 8) +
                                             (sound_lowers ? 2 : 0));
      const auto offset = static_cast<double>(roll.bounded(10));
      const double lower = share == 0.0   ? -offset
                           : share == 1.0 ? upper + offset
                                          : upper * (share - 2.0) / 5.0;
      return freq_bounds{upper, lower};
    };

    const auto want = reference_walk<H>(candidates, bounds, threshold, compensation);
    const auto got = solve_hhh<H>(candidates, bounds, threshold, compensation);
    expect_bitwise_equal(got, want);
    for (const auto& e : want) {
      if (bounds(e.key).upper + compensation < threshold) ++non_survivors_admitted;
    }
    if (::testing::Test::HasFailure()) break;
  }
  return non_survivors_admitted;
}

// Each hierarchy must also reach the case pruning can get wrong: an
// admitted prefix below the survivor bar (positive calcPred).
TEST(HhhSolver, PrunedWalkMatchesReferenceWalk) {
  EXPECT_GT(run_pruned_walk_trials<source_hierarchy>(11, false), 0u);
}

TEST(HhhSolver, PrunedWalkMatchesReferenceWalkTwoDim) {
  EXPECT_GT(run_pruned_walk_trials<two_dim_hierarchy>(13, false), 0u);
  // With sound lower bounds only the glb add-backs lift calcPred above 0.
  EXPECT_GT(run_pruned_walk_trials<two_dim_hierarchy>(14, true), 0u);
}

TEST(HhhSolver, PrunedWalkMatchesReferenceOnTiesAndEmptySets) {
  using H = source_hierarchy;
  const auto host = prefix1d::make_key(ip(1, 2, 3, 4), 0);
  const auto net24 = prefix1d::make_key(ip(1, 2, 3, 0), 1);
  const auto root = prefix1d::make_key(0, 4);
  std::unordered_map<std::uint64_t, double> counts = {{host, 25}, {net24, 26}, {root, 40}};
  const auto oracle = exact_oracle(counts);
  // 25 + 5 == 30 ties exactly: admitted by both walks.
  for (const double comp : {-15.0, 0.0, 5.0}) {
    SCOPED_TRACE("compensation=" + std::to_string(comp));
    const std::vector<std::uint64_t> cands = {root, net24, host, host};
    expect_bitwise_equal(solve_hhh<H>(cands, oracle, 30.0, comp),
                         reference_walk<H>(cands, oracle, 30.0, comp));
  }
  EXPECT_TRUE(solve_hhh<H>({root, net24, host}, oracle, 1000.0, 0.0).empty());
}

/// The reference walk over a sketch's candidates with its bounds computed
/// the two-call way (query, then query_lower).
template <typename H>
std::vector<hhh_entry<typename H::key_type>> reference_output(const h_memento<H>& h,
                                                              double theta) {
  return reference_walk<H>(
      h.inner().monitored_keys(),
      [&](const typename H::key_type& k) { return freq_bounds{h.query(k), h.query_lower(k)}; },
      theta * static_cast<double>(h.window_size()), h.sampling_compensation());
}

/// Operator polls every `stride` packets of a datacenter trace, each compared
/// with the reference walk over monitored_keys(). Returns the polls in which
/// a key with no overflow entry (estimate below tau^-1 3T) survived, i.e.
/// the visitor's Space-Saving-only pass ran and mattered.
template <typename H>
std::size_t run_poll_sequence(const h_memento_config& cfg, double theta, std::size_t packets,
                              std::size_t stride) {
  h_memento<H> h(cfg);
  const auto trace = make_trace(trace_kind::datacenter, packets, 1);
  const double threshold = theta * static_cast<double>(h.window_size());
  std::size_t polls = 0;
  std::size_t polls_with_y_only_survivors = 0;
  for (std::size_t at = 0; at < trace.size(); at += stride) {
    h.update_batch(trace.data() + at, std::min(stride, trace.size() - at));
    SCOPED_TRACE("poll " + std::to_string(polls));
    const auto got = h.output(theta);
    EXPECT_FALSE(got.empty());
    expect_bitwise_equal(got, reference_output(h, theta));
    const double y_only_bar = 1.5 * h.miss_baseline();
    for (const auto& k : h.inner().monitored_keys()) {
      const double upper = h.query(k);
      if (upper < y_only_bar && upper + h.sampling_compensation() >= threshold) {
        ++polls_with_y_only_survivors;
        break;
      }
    }
    ++polls;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(polls, (trace.size() + stride - 1) / stride);
  return polls_with_y_only_survivors;
}

TEST(HhhSolver, TwoDimPollSequenceMatchesReferenceWalk) {
  // The 2-D operator-poll geometry (W = 2^18, k = 4096, theta = 0.15, a
  // poll every 16384 packets) on a shortened datacenter trace, at the
  // poll's tau = 1/4 and at both ends of the sampling range. At 1/64 the
  // compensation exceeds the threshold, so every monitored key survives
  // (all of them have an entry in B there: the overflow threshold T is 1).
  using H = two_dim_hierarchy;
  constexpr std::uint64_t kWindow = std::uint64_t{1} << 18;
  EXPECT_EQ(run_poll_sequence<H>({kWindow, 4096, 0.25, 1e-3, 1}, 0.15, std::size_t{1} << 19,
                                 std::size_t{1} << 14),
            0u);
  (void)run_poll_sequence<H>({kWindow, 4096, 1.0, 1e-3, 1}, 0.15, std::size_t{1} << 19,
                             std::size_t{1} << 15);
  (void)run_poll_sequence<H>({kWindow, 4096, 1.0 / 64, 1e-3, 1}, 0.15, std::size_t{1} << 19,
                             std::size_t{1} << 16);
}

TEST(HhhSolver, OneDimPollSequenceMatchesReferenceWalk) {
  using H = source_hierarchy;
  constexpr std::uint64_t kWindow = std::uint64_t{1} << 16;
  for (const double tau : {1.0, 0.25, 1.0 / 64}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    (void)run_poll_sequence<H>({kWindow, 1024, tau, 1e-3, 1}, 0.15, std::size_t{1} << 18,
                               std::size_t{1} << 13);
  }
  // theta = 0.02 at tau = 1: keys with only in-frame counts clear the
  // visitor's ceiling and survive.
  EXPECT_GT(run_poll_sequence<H>({kWindow, 1024, 1.0, 1e-3, 1}, 0.02, std::size_t{1} << 18,
                                 std::size_t{1} << 13),
            0u);
}

TEST(HhhSolver, ShardedOutputMatchesReferenceWalk) {
  using H = two_dim_hierarchy;
  using key_type = H::key_type;
  const h_memento_config cfg{std::uint64_t{1} << 16, 2048, 0.25, 1e-3, 3};
  sharded_h_memento<H> front(hhh_shard_config{cfg, 2});
  const auto trace = make_trace(trace_kind::datacenter, std::size_t{1} << 18, 2);
  front.update_batch(trace.data(), trace.size());

  std::vector<key_type> candidates;
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const auto keys = front.shard(s).inner().monitored_keys();
    candidates.insert(candidates.end(), keys.begin(), keys.end());
  }
  const auto bounds = [&](const key_type& k) {
    if (!shard_routing<h_memento<H>>::routable(k)) {
      double hi = 0.0, lo = 0.0;
      for (std::size_t s = 0; s < front.num_shards(); ++s) {
        hi += 1.0 * front.shard(s).query(k);
        lo += 1.0 * front.shard(s).query_lower(k);
      }
      return freq_bounds{hi, lo};
    }
    const auto& shard = front.shard(front.shard_of_key(k));
    return freq_bounds{1.0 * shard.query(k), 1.0 * shard.query_lower(k)};
  };
  const double theta = 0.1;
  const auto got = front.output(theta);
  ASSERT_FALSE(got.empty());
  expect_bitwise_equal(got, reference_walk<H>(candidates, bounds,
                                              theta * static_cast<double>(front.window_size()),
                                              front.shard(0).sampling_compensation()));
}

}  // namespace
}  // namespace memento
