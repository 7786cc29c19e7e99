// Column codecs for the snapshot wire format: the in-repo answer to
// "snapshots are mostly small integers stored wide".
//
// Four column shapes cover everything the sketches serialize:
//
//   * put_u64_array / get_u64_array - general unsigned columns (link
//     indices, table entries). Frame-of-reference per block of up to
//     kPackBlock values: `varint base | u8 bits | bit-packed (v - base)`,
//     so a column of nearby values (link indices bounded by k) costs
//     bit_width(max - min) bits per value instead of 8 bytes. bits == 0
//     encodes a constant block in two bytes.
//   * put_key_column / get_key_column - sketch keys through their
//     wire::codec: per block of up to kPackBlock keys, one FoR block per
//     codec word (one for integral keys, so a 1-D key column is exactly a
//     u64 array; two for 2-D prefix pairs). Every decoded key is validated
//     by the codec before the consumer sees it.
//   * put_ascending_u64 / get_ascending_u64 - strictly ascending sequences
//     (flat_hash slot positions). Delta-minus-one transform first, then the
//     same FoR blocks; the decoder re-validates strict ascent, so the
//     sortedness the readers rely on cannot be forged.
//   * put_zigzag_u64 / get_zigzag_u64 - counter-like columns serialized in
//     near-sorted order (bucket counts ascending along the list). Zig-zag
//     varints of consecutive differences, exact for any u64 sequence via
//     mod-2^64 arithmetic.
//
// All writers take a generator (called once per value, in order) and all
// readers a consumer (returning false to reject a value), so neither side
// ever materializes the column: one block of scratch per codec word (on
// the stack) is the whole memory footprint, which is what lets a sink
// checkpoint a 1M-counter deployment in bounded memory.
//
// Readers validate everything - bits <= 64, base + delta not wrapping - and
// the enclosing section's CRC32 (wire::sink/source) catches what per-value
// validation cannot: a bit flip inside a packed block that still decodes to
// plausible values.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "util/wire.hpp"

namespace memento::wire {

/// Values per frame-of-reference block; bounds the codec scratch.
inline constexpr std::size_t kPackBlock = 1024;

/// Codec-flags byte at the head of each section that carries FoR columns:
/// bit 0 = FoR bit-packing. Writers always pack, and readers reject any
/// other value (unknown bits would change the byte layout).
inline constexpr std::uint8_t kCodecPacked = 0x01;

/// Reads a section's codec-flags byte; false unless it is kCodecPacked.
[[nodiscard]] inline bool get_codec_flags(source& s) noexcept {
  std::uint8_t flags = 0;
  return s.u8(flags) && flags == kCodecPacked;
}

namespace detail {

/// Scratch bytes past a packed block's payload: the word-at-a-time kernels
/// below load and store whole 64-bit words (plus one byte on the unpack
/// side), so block buffers carry this much padding and no access ever
/// leaves them.
inline constexpr std::size_t kPackPad = 16;

/// Packs m values of `bits` bits each (bits in [1, 64], every value below
/// 2^bits), LSB-first, into out[0, (m * bits + 7) / 8) - a 64-bit
/// accumulator flushed one whole word at a time. out needs kPackPad bytes
/// of room past the payload; the bytes written there are scratch.
inline void pack_bits(const std::uint64_t* v, std::size_t m, unsigned bits,
                      std::uint8_t* out) noexcept {
  std::uint64_t acc = 0;
  unsigned fill = 0;
  for (std::size_t i = 0; i < m; ++i) {
    acc |= v[i] << fill;
    fill += bits;
    if (fill >= 64) {
      store_le(out, acc);
      out += 8;
      fill -= 64;
      acc = fill == 0 ? 0 : v[i] >> (bits - fill);
    }
  }
  if (fill > 0) store_le(out, acc);
}

/// Unpacks m values of `bits` bits (in [1, 64]) written by pack_bits: one
/// unaligned 64-bit load per value, plus a ninth byte when the value
/// straddles it. `in` needs kPackPad readable bytes past the payload.
inline void unpack_bits(const std::uint8_t* in, std::size_t m, unsigned bits,
                        std::uint64_t* out) noexcept {
  const std::uint64_t mask = bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < m; ++i, bitpos += bits) {
    const std::uint8_t* p = in + (bitpos >> 3);
    const unsigned off = bitpos & 7;
    std::uint64_t d = load_le<std::uint64_t>(p) >> off;
    if (off + bits > 64) d |= static_cast<std::uint64_t>(p[8]) << (64 - off);
    out[i] = d & mask;
  }
}

[[nodiscard]] inline std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t zigzag_decode(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Writes one FoR block of m (<= kPackBlock) values; clobbers v.
inline void put_for_block(sink& s, std::uint64_t* v, std::size_t m) {
  std::uint8_t bytes[kPackBlock * 8 + kPackPad];
  const auto [lo, hi] = std::minmax_element(v, v + m);
  const std::uint64_t base = *lo;
  const auto bits = static_cast<unsigned>(std::bit_width(*hi - base));
  s.varint(base);
  s.u8(static_cast<std::uint8_t>(bits));
  if (bits == 0) return;
  for (std::size_t i = 0; i < m; ++i) v[i] -= base;
  pack_bits(v, m, bits, bytes);
  s.bytes(std::span<const std::uint8_t>(bytes, (m * bits + 7) / 8));
}

/// Reads one FoR block of m (<= kPackBlock) values into out; false on
/// truncation, bits > 64, or a wrapping base + delta.
[[nodiscard]] inline bool get_for_block(source& s, std::size_t m, std::uint64_t* out) {
  std::uint8_t bytes[kPackBlock * 8 + kPackPad];
  std::uint64_t base = 0;
  std::uint8_t bits = 0;
  if (!s.varint(base) || !s.u8(bits) || bits > 64) return false;
  if (bits == 0) {
    std::fill(out, out + m, base);
    return true;
  }
  const std::size_t nbytes = (m * bits + 7) / 8;
  if (!s.read(bytes, nbytes)) return false;
  std::memset(bytes + nbytes, 0, kPackPad);
  unpack_bits(bytes, m, bits, out);
  // base + d must not wrap: every delta stays within ~base.
  const std::uint64_t room = ~std::uint64_t{0} - base;
  for (std::size_t i = 0; i < m; ++i) {
    if (out[i] > room) return false;
    out[i] += base;
  }
  return true;
}

}  // namespace detail

/// Writes n values (pulled from next(), in order) as FoR blocks.
template <typename NextFn>
void put_u64_array(sink& s, std::size_t n, NextFn&& next) {
  std::uint64_t buf[kPackBlock];
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kPackBlock, n - done);
    for (std::size_t i = 0; i < m; ++i) buf[i] = next();
    detail::put_for_block(s, buf, m);
    done += m;
  }
}

/// Reads n values written by put_u64_array, passing each to put(v) in
/// order; false on a malformed block or put() rejecting a value.
template <typename PutFn>
[[nodiscard]] bool get_u64_array(source& s, std::size_t n, PutFn&& put) {
  std::uint64_t buf[kPackBlock];
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kPackBlock, n - done);
    if (!detail::get_for_block(s, m, buf)) return false;
    for (std::size_t i = 0; i < m; ++i) {
      if (!put(buf[i])) return false;
    }
    done += m;
  }
  return true;
}

/// Writes n keys (pulled from next(), in order) through wire::codec<Key>:
/// per block of up to kPackBlock keys, one FoR block per codec word.
template <typename Key, typename NextFn>
void put_key_column(sink& s, std::size_t n, NextFn&& next) {
  using kc = codec<Key>;
  std::uint64_t cols[kc::words][kPackBlock];
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kPackBlock, n - done);
    for (std::size_t i = 0; i < m; ++i) {
      const auto w = kc::to_u64(next());
      for (std::size_t c = 0; c < kc::words; ++c) cols[c][i] = w[c];
    }
    for (std::size_t c = 0; c < kc::words; ++c) detail::put_for_block(s, cols[c], m);
    done += m;
  }
}

/// Reads n keys written by put_key_column, passing each to put(key) in
/// order; false on a malformed block, a word tuple the codec rejects, or
/// put() rejecting a key.
template <typename Key, typename PutFn>
[[nodiscard]] bool get_key_column(source& s, std::size_t n, PutFn&& put) {
  using kc = codec<Key>;
  std::uint64_t cols[kc::words][kPackBlock];
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(kPackBlock, n - done);
    for (std::size_t c = 0; c < kc::words; ++c) {
      if (!detail::get_for_block(s, m, cols[c])) return false;
    }
    for (std::size_t i = 0; i < m; ++i) {
      typename kc::word_array w;
      for (std::size_t c = 0; c < kc::words; ++c) w[c] = cols[c][i];
      Key key{};
      if (!kc::from_u64(w, key) || !put(key)) return false;
    }
    done += m;
  }
  return true;
}

/// Strictly ascending sequences: delta-minus-one transform over
/// put_u64_array, so dense position arrays pack to a few bits per entry.
template <typename NextFn>
void put_ascending_u64(sink& s, std::size_t n, NextFn&& next) {
  std::uint64_t prev = 0;
  bool first = true;
  put_u64_array(s, n, [&] {
    const std::uint64_t v = next();
    const std::uint64_t d = first ? v : v - prev - 1;
    first = false;
    prev = v;
    return d;
  });
}

/// Inverse of put_ascending_u64; the reconstruction enforces strict ascent
/// (a wrapping prev + d + 1 is a decode failure), so consumers keep the
/// sortedness invariant even from forged bytes.
template <typename PutFn>
[[nodiscard]] bool get_ascending_u64(source& s, std::size_t n, PutFn&& put) {
  std::uint64_t prev = 0;
  bool first = true;
  return get_u64_array(s, n, [&](std::uint64_t d) {
    std::uint64_t v = 0;
    if (first) {
      first = false;
      v = d;
    } else {
      if (d >= ~std::uint64_t{0} - prev) return false;  // prev + d + 1 wraps
      v = prev + d + 1;
    }
    prev = v;
    return put(v);
  });
}

/// Counter-like columns: zig-zag varints of consecutive differences
/// (mod-2^64, so exact for any sequence; near-sorted input costs 1-2 bytes
/// per value).
template <typename NextFn>
void put_zigzag_u64(sink& s, std::size_t n, NextFn&& next) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = next();
    s.varint(detail::zigzag_encode(static_cast<std::int64_t>(v - prev)));
    prev = v;
  }
}

/// Inverse of put_zigzag_u64.
template <typename PutFn>
[[nodiscard]] bool get_zigzag_u64(source& s, std::size_t n, PutFn&& put) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t z = 0;
    if (!s.varint(z)) return false;
    const auto v = prev + static_cast<std::uint64_t>(detail::zigzag_decode(z));
    prev = v;
    if (!put(v)) return false;
  }
  return true;
}

}  // namespace memento::wire
