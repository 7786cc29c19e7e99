// Runtime ISA dispatch and the SIMD prefix-mask kernels of the hierarchical batch path.
//
// Everything vectorized in this repository funnels through this header so
// that exactly one mechanism decides which instruction set runs:
//
//   * `detect()` probes the host once (AVX2 via cpuid; every other host runs
//     the scalar kernels) and can be *clamped down* with the MEMENTO_ISA
//     environment variable (scalar|avx2; any other value is ignored) - the
//     CI scalar-dispatch leg runs the full differential suites with
//     MEMENTO_ISA=scalar and zero rebuilds;
//   * `force()` / `scoped_tier` override the dispatch programmatically (never
//     above what the host supports) so differential tests can drive the SAME
//     binary through every kernel family and compare save() bytes;
//   * builds with -march=native / -mavx2 (MEMENTO_NATIVE) statically know
//     AVX2 is available and skip the cpuid, but still honor overrides - the
//     widest path is the default, not the only path.
//
// The kernels themselves are the prefix-mask kernels (variable-shift netmask +
// key packing) of the hierarchical batch path: H-Memento materializes one
// sampled generalization per packet, which is a data-parallel AND with a
// per-level mask (prefix1d::mask_for_depth) - vectorized with sllv, whose
// shift-past-width-yields-zero semantics encode the /0 root mask for free.
//
// Every kernel has a scalar twin here with identical observable behavior
// (the same output bits); the differential suites in tests/simd_test.cpp and
// tests/batch_test.cpp pin the equivalence per dispatch tier, down to save()
// byte identity.
//
// AVX2 bodies carry __attribute__((target("avx2"))) so this header compiles
// - and the scalar tier keeps working - on baseline x86-64 builds; the
// attribute is dropped when the TU is already compiled with AVX2 enabled so
// the kernels can inline into MEMENTO_NATIVE builds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define MEMENTO_SIMD_X86 1
#include <immintrin.h>
#else
#define MEMENTO_SIMD_X86 0
#endif

#if MEMENTO_SIMD_X86 && !defined(__AVX2__)
#define MEMENTO_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define MEMENTO_TARGET_AVX2
#endif

namespace memento::simd {

/// Kernel families, widest last. A tier implies every tier below it, so
/// comparisons read naturally: `active() >= tier::avx2`. (No kernel has an
/// SSE2 body, so an x86-64 host without AVX2 runs - and reports - scalar.)
enum class tier : int { scalar = 0, avx2 = 2 };

[[nodiscard]] constexpr const char* tier_name(tier t) noexcept {
  switch (t) {
    case tier::scalar: return "scalar";
    case tier::avx2: return "avx2";
  }
  return "scalar";
}

namespace detail {

inline std::atomic<int> g_detected{-1};  ///< lazily computed, idempotent
inline std::atomic<int> g_forced{-1};    ///< -1: no override

[[nodiscard]] inline tier detect_host() noexcept {
#if MEMENTO_SIMD_X86
#if defined(__AVX2__)
  tier host = tier::avx2;  // the build already requires it (MEMENTO_NATIVE)
#else
  tier host = __builtin_cpu_supports("avx2") ? tier::avx2 : tier::scalar;
#endif
#else
  tier host = tier::scalar;
#endif
  // MEMENTO_ISA clamps the detected tier DOWN (never up - running AVX2 code
  // on a host without it would fault). Unknown values are ignored.
  if (const char* env = std::getenv("MEMENTO_ISA")) {
    tier cap = host;
    if (std::strcmp(env, "scalar") == 0) cap = tier::scalar;
    if (std::strcmp(env, "avx2") == 0) cap = tier::avx2;
    if (cap < host) host = cap;
  }
  return host;
}

}  // namespace detail

/// Widest tier this host (and MEMENTO_ISA) allows. Computed once.
[[nodiscard]] inline tier detect() noexcept {
  int d = detail::g_detected.load(std::memory_order_relaxed);
  if (d < 0) {
    d = static_cast<int>(detail::detect_host());
    detail::g_detected.store(d, std::memory_order_relaxed);
  }
  return static_cast<tier>(d);
}

/// The tier hot paths dispatch on: the forced override if set, else detect().
[[nodiscard]] inline tier active() noexcept {
  const int f = detail::g_forced.load(std::memory_order_relaxed);
  return f >= 0 ? static_cast<tier>(f) : detect();
}

/// Forces dispatch to `t` (clamped to what the host supports). Test hook.
inline void force(tier t) noexcept {
  if (t > detect()) t = detect();
  detail::g_forced.store(static_cast<int>(t), std::memory_order_relaxed);
}

/// Removes the force() override; dispatch returns to detect().
inline void clear_force() noexcept {
  detail::g_forced.store(-1, std::memory_order_relaxed);
}

/// RAII dispatch override for differential tests: force a tier for one
/// scope, restore the previous override on exit.
class scoped_tier {
 public:
  explicit scoped_tier(tier t) noexcept
      : previous_(detail::g_forced.load(std::memory_order_relaxed)) {
    force(t);
  }
  ~scoped_tier() { detail::g_forced.store(previous_, std::memory_order_relaxed); }
  scoped_tier(const scoped_tier&) = delete;
  scoped_tier& operator=(const scoped_tier&) = delete;

 private:
  int previous_;
};

// --- prefix masking ----------------------------------------------------------
// The 1-D prefix encoding is (depth << 32) | (addr & mask_for_depth(depth))
// with mask_for_depth(d) = d >= 4 ? 0 : ~0u << 8d (prefix1d.hpp). Both
// kernels below compute the mask arithmetically as (~0 << 8d) so the root
// case needs no branch: a variable shift by >= the lane width yields zero
// under sllv, which IS the /0 mask. Depths must be <= 4 (byte-granularity
// generalizations); the scalar twins are the oracles.

/// out[i] = addrs[i] & mask_for_depth(depths[i]): one masked address per
/// lane. The 2-D lattice masks src and dst columns independently with this.
inline void mask_addr_by_depth(const std::uint32_t* addrs, const std::uint8_t* depths,
                               std::uint32_t* out, std::size_t n);

/// keys[i] = (depths[i] << 32) | (addrs[i] & mask_for_depth(depths[i])):
/// the full 1-D prefix key (prefix1d::make_key) materialized per lane.
inline void make_prefix_keys(const std::uint32_t* addrs, const std::uint8_t* depths,
                             std::uint64_t* keys, std::size_t n);

namespace detail {

/// mask_for_depth as branch-free arithmetic: (~0 << 8d) truncated to 32
/// bits, so d == 4 shifts the whole mask out. Matches prefix1d exactly.
[[nodiscard]] constexpr std::uint32_t depth_mask_scalar(std::uint8_t depth) noexcept {
  return static_cast<std::uint32_t>(~std::uint64_t{0} << (8u * depth));
}

inline void mask_addr_by_depth_scalar(const std::uint32_t* addrs, const std::uint8_t* depths,
                                      std::uint32_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = addrs[i] & depth_mask_scalar(depths[i]);
}

inline void make_prefix_keys_scalar(const std::uint32_t* addrs, const std::uint8_t* depths,
                                    std::uint64_t* keys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = (static_cast<std::uint64_t>(depths[i]) << 32) |
              (addrs[i] & depth_mask_scalar(depths[i]));
  }
}

#if MEMENTO_SIMD_X86

MEMENTO_TARGET_AVX2 inline void mask_addr_by_depth_avx2(const std::uint32_t* addrs,
                                                        const std::uint8_t* depths,
                                                        std::uint32_t* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i addr = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(addrs + i));
    const __m128i d8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(depths + i));
    const __m256i shift = _mm256_slli_epi32(_mm256_cvtepu8_epi32(d8), 3);  // 8 * depth
    // sllv: a shift count >= 32 produces 0, which is exactly the /0 mask.
    const __m256i mask = _mm256_sllv_epi32(_mm256_set1_epi32(-1), shift);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_and_si256(addr, mask));
  }
  mask_addr_by_depth_scalar(addrs + i, depths + i, out + i, n - i);
}

MEMENTO_TARGET_AVX2 inline void make_prefix_keys_avx2(const std::uint32_t* addrs,
                                                      const std::uint8_t* depths,
                                                      std::uint64_t* keys, std::size_t n) {
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i addr =
        _mm256_cvtepu32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(addrs + i)));
    std::uint32_t d4 = 0;
    std::memcpy(&d4, depths + i, 4);
    const __m256i dep = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(d4)));
    const __m256i shift = _mm256_slli_epi64(dep, 3);  // 8 * depth, in [0, 32]
    // (0xFFFFFFFF << 8d) & 0xFFFFFFFF == mask_for_depth(d) for d in [0, 4].
    const __m256i mask = _mm256_and_si256(_mm256_sllv_epi64(lo32, shift), lo32);
    const __m256i key =
        _mm256_or_si256(_mm256_slli_epi64(dep, 32), _mm256_and_si256(addr, mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(keys + i), key);
  }
  make_prefix_keys_scalar(addrs + i, depths + i, keys + i, n - i);
}

#endif  // MEMENTO_SIMD_X86

}  // namespace detail

inline void mask_addr_by_depth(const std::uint32_t* addrs, const std::uint8_t* depths,
                               std::uint32_t* out, std::size_t n) {
#if MEMENTO_SIMD_X86
  if (active() >= tier::avx2 && n >= 8) {
    detail::mask_addr_by_depth_avx2(addrs, depths, out, n);
    return;
  }
#endif
  detail::mask_addr_by_depth_scalar(addrs, depths, out, n);
}

inline void make_prefix_keys(const std::uint32_t* addrs, const std::uint8_t* depths,
                             std::uint64_t* keys, std::size_t n) {
#if MEMENTO_SIMD_X86
  if (active() >= tier::avx2 && n >= 4) {
    detail::make_prefix_keys_avx2(addrs, depths, keys, n);
    return;
  }
#endif
  detail::make_prefix_keys_scalar(addrs, depths, keys, n);
}

}  // namespace memento::simd
