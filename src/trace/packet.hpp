// Packet model shared by every algorithm in the repository.
//
// The paper's algorithms only consume flow identifiers: a source IPv4 address
// for one-dimensional hierarchies (H = 5 byte-granularity levels) and a
// (source, destination) pair for two-dimensional hierarchies (H = 25).
// We therefore model a packet as exactly those two 32-bit ids - compact
// (Per.16) and trivially copyable so traces can be pre-materialized into
// contiguous vectors and replayed with predictable memory access (Per.19).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace memento {

/// A single packet as seen by the measurement algorithms.
struct packet {
  std::uint32_t src = 0;  ///< source IPv4 address, host byte order
  std::uint32_t dst = 0;  ///< destination IPv4 address, host byte order

  friend bool operator==(const packet&, const packet&) = default;
};

/// Flow identifier for plain (non-hierarchical) heavy hitters: the 64-bit
/// (src, dst) pair. One-dimensional users typically key on `src` alone.
[[nodiscard]] constexpr std::uint64_t flow_id(const packet& p) noexcept {
  return (static_cast<std::uint64_t>(p.src) << 32) | p.dst;
}

/// Inverse of flow_id: the packet whose flow key is `id`. Key-only streams
/// ride the packet pipeline this way.
[[nodiscard]] constexpr packet packet_of(std::uint64_t id) noexcept {
  return packet{static_cast<std::uint32_t>(id >> 32), static_cast<std::uint32_t>(id)};
}

/// Renders an address as dotted-quad for logs and example output.
[[nodiscard]] inline std::string format_ipv4(std::uint32_t addr) {
  return std::to_string((addr >> 24) & 0xff) + '.' + std::to_string((addr >> 16) & 0xff) +
         '.' + std::to_string((addr >> 8) & 0xff) + '.' + std::to_string(addr & 0xff);
}

}  // namespace memento

template <>
struct std::hash<memento::packet> {
  std::size_t operator()(const memento::packet& p) const noexcept {
    // splitmix64-style finalizer over the packed pair.
    std::uint64_t z = memento::flow_id(p) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};
