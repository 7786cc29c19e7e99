// Snapshot envelope: the byte-level entry point of the snapshot layer.
//
// Every serializable object in this repository (space_saving,
// memento_sketch, h_memento, sharded_memento, sharded_h_memento,
// window_summary) writes itself as one CRC-protected wire section through a
// wire::sink and rebuilds itself from one through a wire::source,
// rejecting malformed input with nullopt (docs/WIRE_FORMAT.md is the
// byte-level spec). This header adds the outermost framing a snapshot needs
// to live OUTSIDE a process - on disk, in an object store, or on a control
// channel: a magic number (so a reader can cheaply reject files that are
// not snapshots at all) and a no-trailing-garbage rule (so a concatenation
// bug cannot silently truncate state).
//
//   auto bytes  = snapshot::save(sketch);                    // std::vector<uint8_t>
//   auto copy   = snapshot::restore<memento_sketch<>>(bytes) // std::optional
//
// There is one format. save()/restore() are its buffer form; stream_save()
// and stream_restore() move the same bytes through a chunked sink/source,
// so a controller thread can checkpoint a live 1M-counter sharded frontend
// holding one chunk (64 KB by default), not an O(state) temporary.
//
// A restored object answers every query bit-identically to the original
// and, fed the same subsequent stream, continues bit-identically - the
// round-trip contract pinned by tests/snapshot_test.cpp. Typical uses:
// failover checkpoints, shard migration (snapshot on the old owner,
// restore on the new one), and the reshard path in snapshot/reshard.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/wire.hpp"

namespace memento::snapshot {

/// First four bytes of every snapshot ("MEMO", little-endian).
inline constexpr std::uint32_t kMagic = 0x4f4d454d;

/// Streams `object` into `s` as a self-contained snapshot and finishes the
/// sink (flushing the tail chunk). Returns false if the sink failed - a
/// refused write callback, or an unbalanced section (a bug, not an input).
template <typename T>
[[nodiscard]] bool stream_save(const T& object, wire::sink& s) {
  s.u32(kMagic);
  object.save(s);
  return s.finish();
}

/// Rebuilds a T from a streamed snapshot. nullopt - never a crash or a
/// partial object - on a wrong magic, a type/version mismatch, a CRC
/// mismatch, any structural corruption, or trailing bytes after the object.
template <typename T>
[[nodiscard]] std::optional<T> stream_restore(wire::source& s) {
  std::uint32_t magic = 0;
  if (!s.u32(magic) || magic != kMagic) return std::nullopt;
  auto out = T::restore(s);
  if (!out || !s.done()) return std::nullopt;
  return out;
}

/// Serializes `object` into a self-contained snapshot buffer (a sink over a
/// vector). Returns an EMPTY buffer if the sink failed; an empty buffer
/// never restores, so the failure cannot be mistaken for a usable
/// checkpoint.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> save(const T& object) {
  std::vector<std::uint8_t> out;
  wire::sink s(out);
  if (!stream_save(object, s)) return {};
  return out;
}

/// Same as save(); kept for callers written against the streamed name.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> save_streamed(const T& object) { return save(object); }

/// Rebuilds a T from a snapshot buffer (a source over the span).
template <typename T>
[[nodiscard]] std::optional<T> restore(std::span<const std::uint8_t> bytes) {
  wire::source s(bytes);
  return stream_restore<T>(s);
}

}  // namespace memento::snapshot
