// Shared wire primitives for everything this repository serializes, all on
// one streamed `sink`/`source` pair: the snapshot layer (snapshot/*.hpp,
// plus the save()/restore() members on the sketches themselves) in
// sections, and the netwide sample-report codec (netwide/codec.hpp) as a
// fixed-layout payload outside any section.
//
// Design rules, enforced here once so every consumer inherits them:
//
//   * fixed-width integers are little-endian with no padding - the byte
//     layout is the contract, identical across platforms;
//   * varints are LEB128 (7 bits per byte, low group first), capped at 10
//     bytes so a malformed stream cannot spin the decoder;
//   * every read is bounds-checked and returns false instead of touching
//     out-of-range memory - a decoder built on `source` can be fed ANY
//     byte garbage and must only ever answer "no" (the fuzz tests in
//     tests/codec_test.cpp, tests/snapshot_test.cpp and tests/stream_test.cpp
//     hold it to that).
//
// A source over a span reads it in place; a sink buffers at most one chunk.
//
// Sections: composite objects frame themselves through `sink`/`source` as
// `u16 tag | u16 version | u32 kStreamLength`, a self-delimiting body, and a
// trailing CRC32 of the body bytes. The sentinel length means no section
// ever needs its body in memory to backpatch a length, and the CRC is what
// keeps the nullopt-on-anything-wrong contract for compressed payloads: a
// bit flip inside a bit-packed array can decode to structurally valid but
// wrong state, so structure validation alone is not enough. A sink produces
// the same bytes whatever the chunk size - and the same bytes whether it
// flushes to a callback or fills one buffer - so chunked and buffered saves
// are byte-identical by construction.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace memento::wire {

/// Body-length field of every section: a sink cannot backpatch a length it
/// has already flushed, so it declares the body self-delimiting instead;
/// a source rejects any other value.
inline constexpr std::uint32_t kStreamLength = 0xFFFFFFFFu;

/// Little-endian loads and stores of the low `sizeof(T)` bytes at an
/// unaligned address: the word-at-a-time primitives under the streamed
/// codecs (sink/source fast paths, CRC slicing, FoR packing).
template <typename T>
[[nodiscard]] constexpr T to_le(T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::big && sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (std::endian::native == std::endian::big && sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else if constexpr (std::endian::native == std::endian::big && sizeof(T) == 8) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

template <typename T>
[[nodiscard]] inline T load_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  return to_le(v);
}

template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  v = to_le(v);
  std::memcpy(p, &v, sizeof v);
}

/// Incremental CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the
/// per-section integrity check of every section. Slicing-by-8: eight
/// 256-entry tables (built once per process) fold eight input bytes per
/// step; the tail runs the classic one-table loop. The value does not
/// depend on how the input is split across update() calls.
class crc32 {
 public:
  void update(const std::uint8_t* p, std::size_t n) noexcept {
    const auto& t = tables();
    std::uint32_t c = state_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
      const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    state_ = c;
  }

  [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

 private:
  using table_set = std::array<std::array<std::uint32_t, 256>, 8>;

  static const table_set& tables() noexcept {
    static const table_set t = [] {
      table_set out{};
      for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        out[0][i] = c;
      }
      for (std::size_t k = 1; k < out.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
          out[k][i] = (out[k - 1][i] >> 8) ^ out[0][out[k - 1][i] & 0xFF];
        }
      }
      return out;
    }();
    return t;
  }

  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// Chunked serializer: bytes leave through a backend callback every
/// `chunk_bytes`, so serializing any amount of state holds at most one
/// chunk in memory. Sections (kStreamLength sentinel + trailing CRC32 of the
/// body) nest LIFO, each byte feeding exactly one CRC: a section's body
/// bytes feed its own, its header and trailing CRC bytes feed its parent's.
/// Backend failure or writing past finish() poisons the sink (ok() goes
/// false) instead of losing bytes silently.
///
/// Puts land straight in the chunk buffer; the CRC is not stepped per put
/// but caught up lazily over the span written since its last sync - at
/// every flush, section open and section close - so it covers exactly the
/// section's bytes, in order, whatever the chunk size.
class sink {
 public:
  using write_fn = std::function<bool(std::span<const std::uint8_t>)>;

  static constexpr std::size_t kDefaultChunk = 64 * 1024;

  explicit sink(write_fn out, std::size_t chunk_bytes = kDefaultChunk)
      : out_(std::move(out)),
        chunk_(chunk_bytes > 0 ? chunk_bytes : 1),
        buf_(std::make_unique_for_overwrite<std::uint8_t[]>(chunk_ + kSlack)) {}

  /// Buffer convenience: appends everything to `out` (identical bytes to the
  /// callback form - chunking only decides when flushes happen).
  explicit sink(std::vector<std::uint8_t>& out, std::size_t chunk_bytes = kDefaultChunk)
      : sink(
            [&out](std::span<const std::uint8_t> b) {
              out.insert(out.end(), b.begin(), b.end());
              return true;
            },
            chunk_bytes) {}

  void u8(std::uint8_t v) { put_le(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// LEB128, encoded in place (a varint is at most 10 bytes, which the
  /// buffer's slack past the chunk always has room for).
  void varint(std::uint64_t v) {
    if (!writable()) return;
    std::uint8_t* p = buf_.get() + len_;
    std::size_t n = 0;
    while (v >= 0x80) {
      p[n++] = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    p[n++] = static_cast<std::uint8_t>(v);
    advance(n);
  }

  /// Copies a span in chunk-sized runs, flushing between them.
  void bytes(std::span<const std::uint8_t> b) {
    if (!writable()) return;
    const std::uint8_t* p = b.data();
    for (std::size_t n = b.size(); n > 0;) {
      const std::size_t run = std::min(n, chunk_ - len_);
      std::memcpy(buf_.get() + len_, p, run);
      p += run;
      n -= run;
      advance(run);
    }
  }

  /// Opens a section: `u16 tag | u16 version | u32 kStreamLength`.
  /// No token - sections close innermost-first by construction.
  void begin_section(std::uint16_t tag, std::uint16_t version) {
    u16(tag);
    u16(version);
    u32(kStreamLength);
    sync_crc();  // the header belongs to the parent
    crcs_.emplace_back();
  }

  /// Closes the innermost open section, appending the CRC32 of its body.
  void end_section() {
    if (crcs_.empty()) {
      failed_ = true;
      return;
    }
    sync_crc();
    const std::uint32_t c = crcs_.back().value();
    crcs_.pop_back();
    u32(c);  // the trailing CRC belongs to the parent
  }

  /// Flushes buffered bytes and seals the stream; sections still open or a
  /// backend failure leave the sink not ok(). Idempotent.
  bool finish() {
    if (!finished_) {
      if (!crcs_.empty()) failed_ = true;
      flush();
      finished_ = true;
    }
    return ok();
  }

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  /// Total bytes put so far (buffered + flushed).
  [[nodiscard]] std::size_t bytes_written() const noexcept { return flushed_ + len_; }
  /// High-water mark of the internal buffer: the bounded-memory evidence a
  /// checkpointing caller can assert on (< chunk + one fixed-width put).
  [[nodiscard]] std::size_t peak_buffered() const noexcept { return std::max(peak_, len_); }

 private:
  /// Room past the chunk for the largest in-place put (a 10-byte varint):
  /// the buffer is flushed as soon as it reaches the chunk, so a put always
  /// starts below it.
  static constexpr std::size_t kSlack = 16;

  /// False (and poisoned) once finished; a failed backend keeps accepting
  /// puts into the buffer, which flush() then discards.
  [[nodiscard]] bool writable() noexcept {
    if (finished_) failed_ = true;
    return !finished_;
  }

  template <typename T>
  void put_le(T v) {
    if (!writable()) return;
    store_le(buf_.get() + len_, v);
    advance(sizeof v);
  }

  void advance(std::size_t n) {
    len_ += n;
    if (len_ >= chunk_) flush();
  }

  /// Catches the innermost open section's CRC up to the buffer end.
  void sync_crc() noexcept {
    if (!crcs_.empty()) crcs_.back().update(buf_.get() + crc_from_, len_ - crc_from_);
    crc_from_ = len_;
  }

  void flush() {
    sync_crc();
    crc_from_ = 0;
    if (len_ == 0) return;
    if (!failed_ && !out_(std::span<const std::uint8_t>(buf_.get(), len_))) failed_ = true;
    peak_ = std::max(peak_, len_);
    flushed_ += len_;
    len_ = 0;
  }

  write_fn out_;
  std::size_t chunk_;
  std::unique_ptr<std::uint8_t[]> buf_;  ///< chunk_ + kSlack bytes, [0, len_) pending
  std::vector<crc32> crcs_;  ///< one per open section, innermost last
  std::size_t len_ = 0;
  std::size_t crc_from_ = 0;  ///< buffer offset the innermost CRC has consumed up to
  std::size_t flushed_ = 0;
  std::size_t peak_ = 0;
  bool failed_ = false;
  bool finished_ = false;
};

/// Validating pull-stream deserializer for sections: refills an internal
/// window from a backend callback (or walks a borrowed span without
/// copying), mirrors the sink's CRC stack, and latches failure on the first
/// short read, bad frame, or CRC mismatch - after which every getter
/// answers false, so decoders keep their chain-of-ifs shape.
///
/// Getters decode straight out of the window when the value lies wholly
/// inside it, and fall back to a bounds-checked byte path only at a window
/// edge. Like the sink, the CRC is caught up lazily over the consumed span
/// - at every refill, section open and section close.
class source {
 public:
  /// Backend: fill up to `n` bytes at `dst`, return how many (0 = EOF).
  using read_fn = std::function<std::size_t(std::uint8_t*, std::size_t)>;

  explicit source(read_fn in, std::size_t chunk_bytes = sink::kDefaultChunk)
      : in_(std::move(in)), chunk_(chunk_bytes > 0 ? chunk_bytes : 1) {}

  /// Buffer mode: reads walk `in` directly (no copy, no refills).
  explicit source(std::span<const std::uint8_t> in) noexcept : view_(in), buffered_(true) {}

  [[nodiscard]] bool u8(std::uint8_t& v) noexcept { return get_le(v); }
  [[nodiscard]] bool u16(std::uint16_t& v) noexcept { return get_le(v); }
  [[nodiscard]] bool u32(std::uint32_t& v) noexcept { return get_le(v); }
  [[nodiscard]] bool u64(std::uint64_t& v) noexcept { return get_le(v); }

  [[nodiscard]] bool f64(double& v) noexcept {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  /// LEB128 decode; rejects encodings running past 10 bytes (the 64-bit
  /// max) or overflowing 64 bits, so garbage cannot spin or wrap the
  /// decoder.
  [[nodiscard]] bool varint(std::uint64_t& v) noexcept {
    if (view_.size() - pos_ >= 10) {  // the longest legal varint is in the window
      const std::uint8_t* p = view_.data() + pos_;
      std::uint64_t acc = 0;
      for (unsigned i = 0; i < 10; ++i) {
        const std::uint8_t byte = p[i];
        if (i == 9 && (byte & 0xFE)) return fail();  // would overflow 64 bits
        acc |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
        if (!(byte & 0x80)) {
          pos_ += i + 1;
          v = acc;
          return true;
        }
      }
      return fail();  // runs past 10 bytes
    }
    v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      std::uint8_t byte = 0;
      if (!take(&byte, 1)) return false;
      if (shift == 63 && (byte & 0xFE)) return fail();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) return true;
    }
    return fail();
  }

  /// Copies the next n bytes into dst; false (latching) on truncation.
  [[nodiscard]] bool read(std::uint8_t* dst, std::size_t n) noexcept { return take(dst, n); }

  /// Opens a section: checks the tag and the kStreamLength
  /// sentinel, surfaces the version, starts the body CRC.
  [[nodiscard]] bool open_section(std::uint16_t expected_tag, std::uint16_t& version) noexcept {
    std::uint16_t tag = 0;
    std::uint32_t len = 0;
    if (!u16(tag) || !u16(version) || !u32(len)) return false;
    if (tag != expected_tag || len != kStreamLength) return fail();
    sync_crc();  // the header belongs to the parent
    crcs_.emplace_back();
    return true;
  }

  /// Closes the innermost open section: reads the stored CRC32 and compares
  /// it against the computed one. Any mismatch is a decode failure - this is
  /// what turns every bit flip in a section body into a deterministic
  /// nullopt instead of a silently wrong decode.
  [[nodiscard]] bool close_section() noexcept {
    if (crcs_.empty()) return fail();
    sync_crc();
    const std::uint32_t computed = crcs_.back().value();
    crcs_.pop_back();
    std::uint32_t stored = 0;  // the trailing CRC belongs to the parent
    if (!u32(stored)) return false;
    if (stored != computed) return fail();
    return true;
  }

  /// Total bytes consumed from the backend / span so far.
  [[nodiscard]] std::size_t consumed() const noexcept { return base_ + pos_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// True when the stream is exhausted: nothing buffered and the backend has
  /// no more bytes. Buffer mode: the span fully consumed. May pull one
  /// refill to find out; a failed source is never done.
  [[nodiscard]] bool done() noexcept {
    if (failed_) return false;
    if (pos_ < view_.size()) return false;
    return !refill();
  }

 private:
  /// Latches failure and empties the window, so every later fast path
  /// falls through to take(), which answers false.
  [[nodiscard]] bool fail() noexcept {
    failed_ = true;
    base_ += pos_;
    view_ = {};
    pos_ = 0;
    crc_from_ = 0;
    return false;
  }

  template <typename T>
  [[nodiscard]] bool get_le(T& v) noexcept {
    if (view_.size() - pos_ >= sizeof v) {
      v = load_le<T>(view_.data() + pos_);
      pos_ += sizeof v;
      return true;
    }
    std::uint8_t tmp[sizeof v];
    if (!take(tmp, sizeof v)) return false;
    v = load_le<T>(tmp);
    return true;
  }

  /// The bounds-checked path: copies across window edges, refilling as
  /// needed.
  bool take(std::uint8_t* dst, std::size_t n) noexcept {
    if (failed_) return false;
    while (n > 0) {
      if (pos_ == view_.size() && !refill()) return fail();
      const std::size_t run = std::min(n, view_.size() - pos_);
      std::memcpy(dst, view_.data() + pos_, run);
      pos_ += run;
      dst += run;
      n -= run;
    }
    return true;
  }

  /// Catches the innermost open section's CRC up to the read position.
  void sync_crc() noexcept {
    if (!crcs_.empty() && pos_ > crc_from_) {
      crcs_.back().update(view_.data() + crc_from_, pos_ - crc_from_);
    }
    crc_from_ = pos_;
  }

  /// Stream mode only: pulls the next chunk from the backend. False at EOF.
  bool refill() noexcept {
    if (buffered_ || !in_) return false;
    sync_crc();
    if (!buf_) buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(chunk_);
    const std::size_t got = in_(buf_.get(), chunk_);
    if (got == 0) return false;
    base_ += view_.size();
    view_ = std::span<const std::uint8_t>(buf_.get(), std::min(got, chunk_));
    pos_ = 0;
    crc_from_ = 0;
    return true;
  }

  read_fn in_;
  std::unique_ptr<std::uint8_t[]> buf_;  ///< stream mode: the refill window
  std::span<const std::uint8_t> view_;   ///< current readable bytes
  std::vector<crc32> crcs_;              ///< one per open section, innermost last
  std::size_t pos_ = 0;
  std::size_t crc_from_ = 0;  ///< view offset the innermost CRC has consumed up to
  std::size_t base_ = 0;      ///< bytes consumed before the current view
  std::size_t chunk_ = 0;
  bool buffered_ = false;
  bool failed_ = false;
};

/// Key codec used by the templated sketch save()/restore() members: a key
/// crosses the wire as `words` u64 values, and the key-column helpers
/// (util/compress.hpp) ship each word as its own FoR column. The default
/// covers the integral keys every 1-D sketch in this repository uses (u32
/// addresses, u64 flow ids / prefix keys) in one word; other key types opt
/// in by specializing with the same three members.
template <typename T>
struct codec {
  static_assert(std::is_integral_v<T> && sizeof(T) <= 8,
                "specialize memento::wire::codec<T> for non-integral keys");

  static constexpr std::size_t words = 1;
  using word_array = std::array<std::uint64_t, words>;

  [[nodiscard]] static word_array to_u64(const T& v) noexcept {
    return {static_cast<std::uint64_t>(static_cast<std::make_unsigned_t<T>>(v))};
  }

  /// Inverse of to_u64; false when the word does not fit T.
  [[nodiscard]] static bool from_u64(const word_array& w, T& v) noexcept {
    if constexpr (sizeof(T) < 8) {
      if (w[0] > static_cast<std::uint64_t>(std::make_unsigned_t<T>(-1))) return false;
    }
    v = static_cast<T>(w[0]);
    return true;
  }
};

}  // namespace memento::wire
