// One-dimensional source-IP hierarchy at byte granularity (Section 4.2).
//
// The paper's 1D yardstick tracks the 5 byte-granularity generalizations of a
// source address: /32 (fully specified), /24, /16, /8 and /0, so H = 5 and
// the level structure is depth 0 (fully specified) .. depth 4 (the root *).
//
// A prefix is encoded as a single uint64_t key - (depth << 32) | masked
// address - so the hot path (H-Memento feeding prefixes into one Memento
// instance) hashes and compares plain integers (Per.16: compact data).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "trace/packet.hpp"

namespace memento {

namespace prefix1d {

/// Number of byte-granularity generalizations of an IPv4 address, incl. /0.
inline constexpr std::size_t kHierarchySize = 5;
/// Number of lattice levels (depths 0..4).
inline constexpr std::size_t kNumLevels = 5;

inline constexpr std::array<std::uint32_t, kNumLevels> kDepthMasks = {
    ~0u, ~0u << 8, ~0u << 16, ~0u << 24, 0u};

/// Netmask for a given depth: depth 0 -> /32, depth 4 (or deeper) -> /0.
/// Branch-free and total: a clamp and one table load, which ran the batch
/// key loops faster than computing the mask as a shift.
[[nodiscard]] constexpr std::uint32_t mask_for_depth(std::size_t depth) noexcept {
  return kDepthMasks[std::min<std::size_t>(depth, 4)];
}

/// Prefix length in bits for a depth (32, 24, 16, 8, 0).
[[nodiscard]] constexpr unsigned prefix_bits(std::size_t depth) noexcept {
  return depth >= 4 ? 0u : 32u - 8u * static_cast<unsigned>(depth);
}

/// Encodes (address, depth) into the canonical key. The address is masked so
/// equal prefixes always encode identically.
[[nodiscard]] constexpr std::uint64_t make_key(std::uint32_t addr, std::size_t depth) noexcept {
  return (static_cast<std::uint64_t>(depth) << 32) |
         (addr & mask_for_depth(depth));
}

[[nodiscard]] constexpr std::uint32_t key_addr(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(key);
}

[[nodiscard]] constexpr std::size_t key_depth(std::uint64_t key) noexcept {
  return static_cast<std::size_t>(key >> 32);
}

/// True when `a` generalizes `b` (a is an ancestor of, or equal to, b):
/// a's depth is >= b's and b's address falls inside a's subnet.
[[nodiscard]] constexpr bool generalizes(std::uint64_t a, std::uint64_t b) noexcept {
  const std::size_t da = key_depth(a);
  const std::size_t db = key_depth(b);
  if (da < db) return false;
  return key_addr(a) == (key_addr(b) & mask_for_depth(da));
}

/// Strict generalization: a generalizes b and a != b.
[[nodiscard]] constexpr bool strictly_generalizes(std::uint64_t a, std::uint64_t b) noexcept {
  return a != b && generalizes(a, b);
}

/// The parent (one level more general); the root /0 is its own fixpoint and
/// must not be asked for a parent.
[[nodiscard]] constexpr std::uint64_t parent(std::uint64_t key) noexcept {
  const std::size_t d = key_depth(key);
  return make_key(key_addr(key), d + 1);
}

}  // namespace prefix1d

/// Hierarchy traits consumed by H-Memento, MST, RHHH and the HHH solver.
/// Static-only: prefix arithmetic is pure and stateless.
struct source_hierarchy {
  using key_type = std::uint64_t;

  static constexpr std::size_t hierarchy_size = prefix1d::kHierarchySize;  ///< H
  static constexpr std::size_t num_levels = prefix1d::kNumLevels;          ///< L + 1
  static constexpr bool two_dimensional = false;

  /// The i'th generalization of the packet, i in [0, H): i == depth.
  [[nodiscard]] static constexpr key_type key_at(const packet& p, std::size_t i) noexcept {
    return prefix1d::make_key(p.src, i);
  }

  /// The fully-specified key of a packet (depth 0).
  [[nodiscard]] static constexpr key_type full_key(const packet& p) noexcept {
    return prefix1d::make_key(p.src, 0);
  }

  /// A packet the prefix covers: key_at over it enumerates every
  /// generalization of k, k's strict ancestors among them.
  [[nodiscard]] static constexpr packet representative(key_type k) noexcept {
    return packet{prefix1d::key_addr(k), 0};
  }

  [[nodiscard]] static constexpr std::size_t depth(key_type k) noexcept {
    return prefix1d::key_depth(k);
  }

  /// Inverse of key_at: which of the H patterns produced this key.
  /// In one dimension the pattern index is exactly the depth.
  [[nodiscard]] static constexpr std::size_t pattern_index(key_type k) noexcept {
    return prefix1d::key_depth(k);
  }

  [[nodiscard]] static constexpr bool generalizes(key_type a, key_type b) noexcept {
    return prefix1d::generalizes(a, b);
  }

  [[nodiscard]] static constexpr bool strictly_generalizes(key_type a, key_type b) noexcept {
    return prefix1d::strictly_generalizes(a, b);
  }

  /// Human-readable rendering, e.g. "181.7.0.0/16".
  [[nodiscard]] static std::string to_string(key_type k) {
    return format_ipv4(prefix1d::key_addr(k)) + "/" +
           std::to_string(prefix1d::prefix_bits(prefix1d::key_depth(k)));
  }
};

}  // namespace memento
