// util/simd.hpp: runtime dispatch semantics and kernel differentials.
//
// Every vectorized kernel has a scalar twin that is the behavioral oracle;
// these tests drive the SAME binary through every tier the host supports
// (simd::scoped_tier) and require identical results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "trace/packet.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"

namespace memento {
namespace {

/// Every tier this host can actually run (ascending, scalar first).
std::vector<simd::tier> host_tiers() {
  std::vector<simd::tier> out{simd::tier::scalar};
  if (simd::detect() >= simd::tier::avx2) out.push_back(simd::tier::avx2);
  return out;
}

TEST(SimdDispatch, DetectIsStableAndAtLeastScalar) {
  const simd::tier a = simd::detect();
  EXPECT_GE(a, simd::tier::scalar);
  EXPECT_EQ(simd::detect(), a) << "detect() must be idempotent";
#if defined(__AVX2__)
  // An AVX2 build only runs on AVX2 hosts; detection can report less only
  // when the MEMENTO_ISA environment clamp asked for it.
  if (std::getenv("MEMENTO_ISA") == nullptr) {
    EXPECT_EQ(a, simd::tier::avx2);
  }
#endif
}

TEST(SimdDispatch, ForceClampsToHostAndClears) {
  simd::force(simd::tier::scalar);
  EXPECT_EQ(simd::active(), simd::tier::scalar);
  // Forcing above the host's capability clamps down, never up.
  simd::force(simd::tier::avx2);
  EXPECT_LE(simd::active(), simd::detect());
  simd::clear_force();
  EXPECT_EQ(simd::active(), simd::detect());
}

TEST(SimdDispatch, ScopedTierRestoresThePreviousOverride) {
  simd::force(simd::tier::scalar);
  {
    simd::scoped_tier inner(simd::detect());
    EXPECT_EQ(simd::active(), simd::detect());
  }
  EXPECT_EQ(simd::active(), simd::tier::scalar) << "outer override lost";
  simd::clear_force();
}

TEST(SimdDispatch, TierNamesAreStable) {
  EXPECT_STREQ(simd::tier_name(simd::tier::scalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::tier::avx2), "avx2");
}

// --- prefix masking kernels: the HHH batch hot path ---------------------------

TEST(SimdPrefix, DepthMaskMatchesPrefix1dIncludingFullGeneralization) {
  for (std::uint8_t d = 0; d <= 4; ++d) {
    EXPECT_EQ(simd::detail::depth_mask_scalar(d), prefix1d::mask_for_depth(d)) << "depth " << +d;
  }
  EXPECT_EQ(simd::detail::depth_mask_scalar(4), 0u) << "/0 must mask every bit";
}

TEST(SimdPrefix, MaskAddrByDepthMatchesScalarOracleOnEveryTier) {
  xoshiro256 rng(44);
  // Sizes straddle the AVX2 8-lane width (tails, exact multiples, n < 8
  // which the dispatcher routes straight to scalar).
  for (const std::size_t n : {0ul, 1ul, 5ul, 7ul, 8ul, 9ul, 31ul, 32ul, 100ul}) {
    std::vector<std::uint32_t> addrs(n);
    std::vector<std::uint8_t> depths(n);
    for (std::size_t i = 0; i < n; ++i) {
      addrs[i] = static_cast<std::uint32_t>(rng());
      depths[i] = static_cast<std::uint8_t>(rng() % 5);  // 0..4 incl. full mask-out
    }
    std::vector<std::uint32_t> expect(n), got(n);
    simd::detail::mask_addr_by_depth_scalar(addrs.data(), depths.data(), expect.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(expect[i], addrs[i] & prefix1d::mask_for_depth(depths[i]))
          << "scalar twin diverged from prefix1d at i=" << i;
    }
    for (const simd::tier t : host_tiers()) {
      simd::scoped_tier guard(t);
      std::fill(got.begin(), got.end(), 0xDEADBEEFu);
      simd::mask_addr_by_depth(addrs.data(), depths.data(), got.data(), n);
      EXPECT_EQ(got, expect) << "tier " << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SimdPrefix, MakePrefixKeysMatchesMakeKeyOnEveryTier) {
  xoshiro256 rng(55);
  for (const std::size_t n : {1ul, 3ul, 4ul, 6ul, 16ul, 33ul}) {
    std::vector<std::uint32_t> addrs(n);
    std::vector<std::uint8_t> depths(n);
    for (std::size_t i = 0; i < n; ++i) {
      addrs[i] = static_cast<std::uint32_t>(rng());
      depths[i] = static_cast<std::uint8_t>(rng() % 5);
    }
    std::vector<std::uint64_t> expect(n), got(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = prefix1d::make_key(addrs[i], depths[i]);
    for (const simd::tier t : host_tiers()) {
      simd::scoped_tier guard(t);
      std::fill(got.begin(), got.end(), ~0ull);
      simd::make_prefix_keys(addrs.data(), depths.data(), got.data(), n);
      EXPECT_EQ(got, expect) << "tier " << simd::tier_name(t) << " n=" << n;
    }
  }
}

TEST(SimdPrefix, MaterializeKeysMatchesKeyAtOracleForBothHierarchies) {
  xoshiro256 rng(66);
  constexpr std::size_t kN = 101;  // odd, spans several 32-key blocks
  std::vector<packet> packets(kN);
  std::vector<std::uint32_t> idx(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    packets[i] = {static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng())};
    idx[i] = static_cast<std::uint32_t>(rng() % kN);  // gathers, repeats allowed
  }
  auto check = [&](auto tag) {
    using hierarchy = decltype(tag);
    std::vector<std::uint8_t> levels(kN);
    for (auto& l : levels) l = static_cast<std::uint8_t>(rng() % hierarchy::hierarchy_size);
    std::vector<typename hierarchy::key_type> out(kN);
    for (const simd::tier t : host_tiers()) {
      simd::scoped_tier guard(t);
      hierarchy::materialize_keys(packets.data(), idx.data(), levels.data(), out.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out[i], hierarchy::key_at(packets[idx[i]], levels[i]))
            << "tier " << simd::tier_name(t) << " i=" << i;
      }
    }
  };
  check(source_hierarchy{});
  check(two_dim_hierarchy{});
}

}  // namespace
}  // namespace memento
