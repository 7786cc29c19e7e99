// Two-dimensional (source, destination) hierarchy at byte granularity.
//
// Section 4.2: "prefixes" are now pairs; a pair is generalized dimension-wise,
// every non-root pair has up to two parents, and the lattice supports a
// greatest lower bound (Definition 4.3) used by the inclusion-exclusion
// conditioned-frequency computation (Algorithm 4). With byte granularity in
// both dimensions there are H = 5 x 5 = 25 prefix patterns and L + 1 = 9
// levels (combined depth 0..8), matching the paper's "in 2D byte-hierarchies
// H = 25 and L = 9".
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "hierarchy/prefix1d.hpp"
#include "trace/packet.hpp"
#include "util/simd.hpp"
#include "util/wire.hpp"

namespace memento {

/// A (src, dst) prefix pair. Addresses are stored masked; depths are byte
/// steps (0 = /32 fully specified ... 4 = /0).
struct prefix2d {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint8_t src_depth = 0;
  std::uint8_t dst_depth = 0;

  // Equality plus a (src, dst, src_depth, dst_depth) lexicographic order -
  // no lattice meaning, but the snapshot/reshard layer needs a total order
  // for canonical (deterministic) state rebuilds.
  friend auto operator<=>(const prefix2d&, const prefix2d&) = default;
};

namespace prefix2 {

inline constexpr std::size_t kHierarchySize = 25;  ///< H = 5 * 5 patterns
inline constexpr std::size_t kNumLevels = 9;       ///< combined depths 0..8

[[nodiscard]] constexpr prefix2d make(std::uint32_t src, std::size_t sd,
                                      std::uint32_t dst, std::size_t dd) noexcept {
  return {src & prefix1d::mask_for_depth(sd), dst & prefix1d::mask_for_depth(dd),
          static_cast<std::uint8_t>(sd), static_cast<std::uint8_t>(dd)};
}

/// Combined lattice depth: number of byte-generalization steps from fully
/// specified. Level 0 is (/32,/32); level 8 is (*,*).
[[nodiscard]] constexpr std::size_t depth(const prefix2d& p) noexcept {
  return static_cast<std::size_t>(p.src_depth) + p.dst_depth;
}

/// `a` generalizes `b` when it does so in both dimensions (Definition 4.1).
[[nodiscard]] constexpr bool generalizes(const prefix2d& a, const prefix2d& b) noexcept {
  if (a.src_depth < b.src_depth || a.dst_depth < b.dst_depth) return false;
  return a.src == (b.src & prefix1d::mask_for_depth(a.src_depth)) &&
         a.dst == (b.dst & prefix1d::mask_for_depth(a.dst_depth));
}

[[nodiscard]] constexpr bool strictly_generalizes(const prefix2d& a,
                                                  const prefix2d& b) noexcept {
  return !(a == b) && generalizes(a, b);
}

/// Greatest lower bound (Definition 4.3): the most general common descendant.
/// For byte-granularity pairs it exists iff, in each dimension, one operand
/// generalizes the other; the glb then takes the more specific prefix per
/// dimension. Returns nullopt when the operands have no common descendant
/// (the paper's "glb(h, h') = 0").
[[nodiscard]] constexpr std::optional<prefix2d> glb(const prefix2d& a,
                                                    const prefix2d& b) noexcept {
  // Per-dimension: pick the deeper (more specific) side, but only if the
  // shallower side actually contains it.
  const bool src_a_deeper = a.src_depth <= b.src_depth;  // depth 0 = most specific
  const std::uint32_t src = src_a_deeper ? a.src : b.src;
  const std::uint8_t src_depth = src_a_deeper ? a.src_depth : b.src_depth;
  const std::uint8_t src_shallow = src_a_deeper ? b.src_depth : a.src_depth;
  const std::uint32_t src_other = src_a_deeper ? b.src : a.src;
  if ((src & prefix1d::mask_for_depth(src_shallow)) != src_other) return std::nullopt;

  const bool dst_a_deeper = a.dst_depth <= b.dst_depth;
  const std::uint32_t dst = dst_a_deeper ? a.dst : b.dst;
  const std::uint8_t dst_depth = dst_a_deeper ? a.dst_depth : b.dst_depth;
  const std::uint8_t dst_shallow = dst_a_deeper ? b.dst_depth : a.dst_depth;
  const std::uint32_t dst_other = dst_a_deeper ? b.dst : a.dst;
  if ((dst & prefix1d::mask_for_depth(dst_shallow)) != dst_other) return std::nullopt;

  return prefix2d{src, dst, src_depth, dst_depth};
}

}  // namespace prefix2

/// Hierarchy traits for the 2D experiments (H = 25).
struct two_dim_hierarchy {
  using key_type = prefix2d;

  static constexpr std::size_t hierarchy_size = prefix2::kHierarchySize;
  static constexpr std::size_t num_levels = prefix2::kNumLevels;
  static constexpr bool two_dimensional = true;

  /// The i'th of the 25 generalizations: i enumerates (src_depth, dst_depth)
  /// row-major, i = src_depth * 5 + dst_depth.
  [[nodiscard]] static constexpr key_type key_at(const packet& p, std::size_t i) noexcept {
    return prefix2::make(p.src, i / 5, p.dst, i % 5);
  }

  [[nodiscard]] static constexpr key_type full_key(const packet& p) noexcept {
    return prefix2::make(p.src, 0, p.dst, 0);
  }

  /// A packet the prefix covers: key_at over it enumerates every
  /// generalization of k, k's strict ancestors among them.
  [[nodiscard]] static constexpr packet representative(const key_type& k) noexcept {
    return packet{k.src, k.dst};
  }

  [[nodiscard]] static constexpr std::size_t depth(const key_type& k) noexcept {
    return prefix2::depth(k);
  }

  /// Inverse of key_at: which of the 25 patterns produced this key.
  [[nodiscard]] static constexpr std::size_t pattern_index(const key_type& k) noexcept {
    return static_cast<std::size_t>(k.src_depth) * 5 + k.dst_depth;
  }

  [[nodiscard]] static constexpr bool generalizes(const key_type& a,
                                                  const key_type& b) noexcept {
    return prefix2::generalizes(a, b);
  }

  [[nodiscard]] static constexpr bool strictly_generalizes(const key_type& a,
                                                           const key_type& b) noexcept {
    return prefix2::strictly_generalizes(a, b);
  }

  [[nodiscard]] static std::string to_string(const key_type& k) {
    std::string out = "(";
    out.append(format_ipv4(k.src))
        .append("/")
        .append(std::to_string(prefix1d::prefix_bits(k.src_depth)))
        .append(", ")
        .append(format_ipv4(k.dst))
        .append("/")
        .append(std::to_string(prefix1d::prefix_bits(k.dst_depth)))
        .append(")");
    return out;
  }

  /// Batch key materialization, 2-D: out[t] = key_at(ps[idx[t]], levels[t]).
  /// The lattice pattern i splits into per-dimension depths (i/5, i%5); the
  /// src and dst columns are then masked independently through the same
  /// vectorized kernel the 1-D path uses, and the prefix2d structs assembled
  /// from the masked columns - per 32-key block, so everything stays in L1.
  static void materialize_keys(const packet* ps, const std::uint32_t* idx,
                               const std::uint8_t* levels, key_type* out, std::size_t n) {
    constexpr std::size_t kBlock = 32;
    std::uint32_t src[kBlock], dst[kBlock], msrc[kBlock], mdst[kBlock];
    std::uint8_t sd[kBlock], dd[kBlock];
    for (std::size_t i = 0; i < n; i += kBlock) {
      const std::size_t m = std::min(kBlock, n - i);
      for (std::size_t j = 0; j < m; ++j) {
        const packet& p = ps[idx[i + j]];
        src[j] = p.src;
        dst[j] = p.dst;
        sd[j] = static_cast<std::uint8_t>(levels[i + j] / 5);
        dd[j] = static_cast<std::uint8_t>(levels[i + j] % 5);
      }
      simd::mask_addr_by_depth(src, sd, msrc, m);
      simd::mask_addr_by_depth(dst, dd, mdst, m);
      for (std::size_t j = 0; j < m; ++j) {
        out[i + j] = prefix2d{msrc[j], mdst[j], sd[j], dd[j]};
      }
    }
  }
};

namespace wire {

/// Key codec for 2-D prefix pairs: a prefix2d needs 70 bits (two 32-bit
/// addresses + two depths), so it crosses the wire as two words - word 0 =
/// src << 32 | dst, word 1 = src_depth << 8 | dst_depth - each shipped as
/// its own FoR column by the key-column helpers (util/compress.hpp). Reads
/// are validated against the lattice invariants - depths inside the
/// 5-level hierarchy and addresses stored MASKED - so corrupt words cannot
/// materialize keys no update path could have produced.
template <>
struct codec<memento::prefix2d> {
  static constexpr std::size_t words = 2;
  using word_array = std::array<std::uint64_t, words>;

  [[nodiscard]] static word_array to_u64(const memento::prefix2d& v) noexcept {
    return {static_cast<std::uint64_t>(v.src) << 32 | v.dst,
            static_cast<std::uint64_t>(v.src_depth) << 8 | v.dst_depth};
  }

  [[nodiscard]] static bool from_u64(const word_array& w, memento::prefix2d& v) noexcept {
    if (w[1] > 0xFFFF) return false;
    v.src = static_cast<std::uint32_t>(w[0] >> 32);
    v.dst = static_cast<std::uint32_t>(w[0]);
    v.src_depth = static_cast<std::uint8_t>(w[1] >> 8);
    v.dst_depth = static_cast<std::uint8_t>(w[1]);
    if (v.src_depth >= memento::prefix1d::kNumLevels ||
        v.dst_depth >= memento::prefix1d::kNumLevels) {
      return false;
    }
    return v.src == (v.src & memento::prefix1d::mask_for_depth(v.src_depth)) &&
           v.dst == (v.dst & memento::prefix1d::mask_for_depth(v.dst_depth));
  }
};

}  // namespace wire
}  // namespace memento

template <>
struct std::hash<memento::prefix2d> {
  std::size_t operator()(const memento::prefix2d& p) const noexcept {
    std::uint64_t z = (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
    z ^= (static_cast<std::uint64_t>(p.src_depth) << 3 | p.dst_depth) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};
