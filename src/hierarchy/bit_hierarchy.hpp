// Bit-granularity source hierarchy: H = 33 (prefix lengths /32 down to /0).
//
// The paper's evaluation uses byte granularity (H = 5), but its algorithms
// and analysis are generic in H - bit-granularity hierarchies appear across
// the HHH literature it builds on ([17], [19], [54]). Providing this traits
// class demonstrates that genericity concretely: it plugs unchanged into
// h_memento, mst, rhhh, the HHH solver and the exact oracle, with the error
// and sampling bounds scaling by the larger H exactly as Theorems 5.3 / 5.5
// predict.
//
// Keys reuse the (depth << 32 | masked address) encoding of prefix1d, with
// depth now counting BITS generalized (0..32).
#pragma once

#include <cstdint>
#include <string>

#include "trace/packet.hpp"

namespace memento {

namespace prefixbit {

inline constexpr std::size_t kHierarchySize = 33;
inline constexpr std::size_t kNumLevels = 33;

/// Netmask with `depth` host bits wildcarded (depth 0 -> /32, 32 -> /0).
[[nodiscard]] constexpr std::uint32_t mask_for_depth(std::size_t depth) noexcept {
  return depth >= 32 ? 0u : ~0u << depth;
}

[[nodiscard]] constexpr std::uint64_t make_key(std::uint32_t addr, std::size_t depth) noexcept {
  return (static_cast<std::uint64_t>(depth) << 32) | (addr & mask_for_depth(depth));
}

[[nodiscard]] constexpr std::uint32_t key_addr(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key);
}

[[nodiscard]] constexpr std::size_t key_depth(std::uint64_t key) noexcept {
  return static_cast<std::size_t>(key >> 32);
}

[[nodiscard]] constexpr bool generalizes(std::uint64_t a, std::uint64_t b) noexcept {
  const std::size_t da = key_depth(a);
  if (da < key_depth(b)) return false;
  return key_addr(a) == (key_addr(b) & mask_for_depth(da));
}

}  // namespace prefixbit

/// Hierarchy traits: drop-in alternative to source_hierarchy with H = 33.
struct bit_source_hierarchy {
  using key_type = std::uint64_t;

  static constexpr std::size_t hierarchy_size = prefixbit::kHierarchySize;
  static constexpr std::size_t num_levels = prefixbit::kNumLevels;
  static constexpr bool two_dimensional = false;

  [[nodiscard]] static constexpr key_type key_at(const packet& p, std::size_t i) noexcept {
    return prefixbit::make_key(p.src, i);
  }

  [[nodiscard]] static constexpr key_type full_key(const packet& p) noexcept {
    return prefixbit::make_key(p.src, 0);
  }

  /// A packet the prefix covers (see source_hierarchy::representative).
  [[nodiscard]] static constexpr packet representative(key_type k) noexcept {
    return packet{prefixbit::key_addr(k), 0};
  }

  [[nodiscard]] static constexpr std::size_t depth(key_type k) noexcept {
    return prefixbit::key_depth(k);
  }

  [[nodiscard]] static constexpr std::size_t pattern_index(key_type k) noexcept {
    return prefixbit::key_depth(k);
  }

  [[nodiscard]] static constexpr bool generalizes(key_type a, key_type b) noexcept {
    return prefixbit::generalizes(a, b);
  }

  [[nodiscard]] static constexpr bool strictly_generalizes(key_type a, key_type b) noexcept {
    return a != b && prefixbit::generalizes(a, b);
  }

  [[nodiscard]] static std::string to_string(key_type k) {
    return format_ipv4(prefixbit::key_addr(k)) + "/" +
           std::to_string(32 - prefixbit::key_depth(k));
  }
};

}  // namespace memento
