// Streamed-wire suite: section codecs (FoR / ascending-delta / zig-zag),
// chunked sink/source framing, streamed-vs-monolithic equivalence for every
// serializable type, v1 backward compatibility through the dispatching
// restore, and CRC/truncation hardening of the v2 format.
//
// The load-bearing invariants (ISSUE acceptance criteria):
//   * a streamed (v2) save restores to an object whose v1 re-save is
//     BYTE-IDENTICAL to the original's v1 save - for space_saving,
//     memento_sketch, h_memento, sharded_memento and window_summary, both
//     packed and unpacked;
//   * v1 images still restore through the same entry points (dispatch on
//     the section version), and v2 images restore through the buffered
//     snapshot::restore<T>() path;
//   * the sink's buffered working set stays at chunk scale regardless of
//     image size, and chunk size never changes the bytes produced;
//   * every truncation of a streamed image is rejected with nullopt and
//     every single-byte corruption is rejected (header checks + section
//     CRCs) - run under ASan in CI via the `snapshot` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/h_memento.hpp"
#include "core/memento.hpp"
#include "hierarchy/prefix1d.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/space_saving.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/summary.hpp"
#include "trace/trace_generator.hpp"
#include "util/compress.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace memento {
namespace {

using sketch = memento_sketch<std::uint64_t>;
using sharded = sharded_memento<std::uint64_t>;
using summary = window_summary<std::uint64_t>;
using bytes_t = std::vector<std::uint8_t>;

std::vector<std::uint64_t> skewed_ids(std::size_t n, double alpha, std::uint64_t seed,
                                      std::size_t universe = 1u << 12) {
  trace_generator gen(trace_config{universe, alpha, seed, 0});
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(flow_id(gen.next()));
  return ids;
}

std::vector<packet> trace_packets(std::size_t n, std::uint64_t seed) {
  trace_generator gen(trace_kind::backbone, seed);
  std::vector<packet> ps;
  ps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ps.push_back(gen.next());
  return ps;
}

// --- section codecs ---------------------------------------------------------

/// Round-trips `values` through put/get_u64_array at the given packing and
/// checks exact recovery.
void roundtrip_for(const std::vector<std::uint64_t>& values, bool packed) {
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_u64_array(s, values.size(), packed, [&] { return values[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(wire::get_u64_array(src, values.size(), packed, [&](std::uint64_t v) {
    got.push_back(v);
    return true;
  }));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(values, got);
}

TEST(StreamCodec, ForRoundTripsMixedMagnitudes) {
  std::vector<std::uint64_t> values;
  std::uint64_t z = 7;
  for (std::size_t i = 0; i < 2 * wire::kPackBlock + 321; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    // Mix tiny, medium and full-width values so frames see every bit width.
    switch (i % 4) {
      case 0: values.push_back(z & 0xFF); break;
      case 1: values.push_back(z & 0xFFFFFF); break;
      case 2: values.push_back(z); break;
      default: values.push_back(i); break;
    }
  }
  values[0] = 0;
  values[1] = ~0ull;
  roundtrip_for(values, /*packed=*/true);
  roundtrip_for(values, /*packed=*/false);
}

TEST(StreamCodec, ForHandlesDegenerateShapes) {
  roundtrip_for({}, true);
  roundtrip_for({}, false);
  roundtrip_for({42}, true);
  roundtrip_for(std::vector<std::uint64_t>(wire::kPackBlock, 0x1234567890ULL), true);  // bits = 0
  roundtrip_for({0, ~0ull}, true);  // full 64-bit range in one frame
}

TEST(StreamCodec, AscendingRoundTripsWithGaps) {
  std::vector<std::uint64_t> values;
  std::uint64_t v = 0;
  std::uint64_t z = 11;
  for (std::size_t i = 0; i < wire::kPackBlock + 77; ++i) {
    values.push_back(v);
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    v += 1 + (z & 0xFFFF) * ((z >> 60) == 0 ? 1u << 20 : 1u);  // occasional huge gaps
  }
  for (const bool packed : {true, false}) {
    bytes_t buf;
    wire::sink s(buf);
    std::size_t i = 0;
    wire::put_ascending_u64(s, values.size(), packed, [&] { return values[i++]; });
    ASSERT_TRUE(s.finish());
    wire::source src{std::span<const std::uint8_t>(buf)};
    std::vector<std::uint64_t> got;
    ASSERT_TRUE(wire::get_ascending_u64(src, values.size(), packed, [&](std::uint64_t x) {
      got.push_back(x);
      return true;
    }));
    EXPECT_EQ(values, got);
  }
}

TEST(StreamCodec, AscendingRejectsWraparound) {
  // first = 2^64 - 1, then any positive delta wraps past zero; the decoder
  // must reject rather than emit a non-ascending value.
  bytes_t buf;
  wire::sink s(buf);
  s.varint(~0ull);
  s.varint(4);  // delta-minus-one of the second element
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  EXPECT_FALSE(
      wire::get_ascending_u64(src, 2, /*packed=*/false, [](std::uint64_t) { return true; }));
}

TEST(StreamCodec, ZigzagRoundTripsExtremes) {
  const std::vector<std::uint64_t> values = {0, 1, 2, ~0ull, ~0ull - 1, 1ull << 63,
                                             0x8000000000000001ULL, 5, 4, 3};
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_zigzag_u64(s, values.size(), [&] { return values[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(wire::get_zigzag_u64(src, values.size(), [&](std::uint64_t v) {
    got.push_back(v);
    return true;
  }));
  EXPECT_EQ(values, got);
}

TEST(StreamCodec, PackedFrameRejectsAbsurdBitWidth) {
  // A frame header claiming 65-bit packed values is unconstructible by any
  // honest encoder; the decoder must fail before touching the payload.
  bytes_t buf;
  wire::sink s(buf);
  s.varint(0);  // frame base
  s.u8(65);     // bits per value: impossible
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  EXPECT_FALSE(wire::get_u64_array(src, 1, /*packed=*/true, [](std::uint64_t) { return true; }));
}

TEST(StreamCodec, ConsumerVetoStopsDecoding) {
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_u64_array(s, 8, /*packed=*/true, [&] { return std::uint64_t{100} + i++; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::size_t seen = 0;
  EXPECT_FALSE(
      wire::get_u64_array(src, 8, /*packed=*/true, [&](std::uint64_t) { return ++seen < 3; }));
  EXPECT_EQ(seen, 3u);
}

// --- chunked framing --------------------------------------------------------

TEST(StreamFraming, SinkBuffersAtChunkScaleAndChunkSizeIsInvisible) {
  sketch s(20'000, 64, 0.5, 3);
  const auto ids = skewed_ids(60'000, 1.0, 17);
  s.update_batch(ids.data(), ids.size());

  const bytes_t reference = snapshot::save_streamed(s);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
    bytes_t out;
    std::size_t writes = 0;
    wire::sink sink(
        [&](std::span<const std::uint8_t> b) {
          out.insert(out.end(), b.begin(), b.end());
          ++writes;
          return true;
        },
        chunk);
    ASSERT_TRUE(snapshot::stream_save(s, sink));
    // Chunking must not change the bytes, only how they are handed over.
    EXPECT_EQ(out, reference) << "chunk " << chunk;
    // A flush hands over everything buffered (>= chunk when not final), so
    // an image bigger than one chunk must arrive across several writes.
    if (out.size() > chunk) {
      EXPECT_GT(writes, 1u) << "chunk " << chunk;
    }
    // The working set is one chunk plus the largest single append (a packed
    // frame), never proportional to the image.
    EXPECT_LE(sink.peak_buffered(), chunk + 16 * 1024) << "chunk " << chunk;
  }
}

/// Restores `image` through a callback source that hands over at most
/// `chunk` bytes per read - so every multi-byte field, varint, packed block
/// and lazily updated CRC span can straddle a refill. With `flip`, one bit
/// of the byte in the middle of chunk 3 (the last byte for shorter images)
/// is inverted on its way in.
template <typename T>
std::optional<T> restore_in_chunks(const bytes_t& image, std::size_t chunk, bool flip = false) {
  const std::size_t flip_at = std::min(3 * chunk + chunk / 2, image.size() - 1);
  std::size_t cursor = 0;
  wire::source src(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min({want, chunk, image.size() - cursor});
        std::memcpy(dst, image.data() + cursor, n);
        if (flip && flip_at >= cursor && flip_at < cursor + n) dst[flip_at - cursor] ^= 0x10;
        cursor += n;
        return n;
      },
      chunk);
  return snapshot::stream_restore<T>(src);
}

/// Every chunk size restores `object`'s streamed image to a byte-identical
/// object (v1 and v2 re-saves), and a bit flip in chunk 3 is rejected.
template <typename T>
void expect_chunked_restores(const T& object) {
  const bytes_t image = snapshot::save_streamed(object);
  const bytes_t v1 = snapshot::save(object);
  ASSERT_FALSE(image.empty());
  for (const std::size_t chunk : {1, 3, 7, 64, 4096}) {
    SCOPED_TRACE(testing::Message() << "chunk " << chunk << ", image " << image.size());
    const auto back = restore_in_chunks<T>(image, chunk);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(v1, snapshot::save(*back));
    EXPECT_EQ(image, snapshot::save_streamed(*back));
    EXPECT_FALSE(restore_in_chunks<T>(image, chunk, /*flip=*/true).has_value());
  }
}

TEST(StreamFraming, TinyChunkSourceRestoresIdentically) {
  // Down to 1 byte per read callback - the slowest possible socket - for
  // every streamed type.
  sketch s(10'000, 32, 0.5, 5);
  const auto ids = skewed_ids(30'000, 1.0, 19);
  s.update_batch(ids.data(), ids.size());
  expect_chunked_restores(s);

  space_saving<std::uint64_t> ss(96);
  for (const auto id : ids) ss.add(id);
  expect_chunked_restores(ss);

  h_memento<source_hierarchy> hm(6'000, 96, 0.5, 1e-3, 13);
  const auto ps = trace_packets(25'000, 41);
  hm.update_batch(ps.data(), ps.size());
  expect_chunked_restores(hm);

  sharded sh(shard_config{6'000, 48, 1.0, 4, 4});
  sh.update_batch(ids.data(), ids.size());
  expect_chunked_restores(sh);

  sharded_h_memento<source_hierarchy> shm(h_memento_config{8'000, 120, 0.5, 1e-3, 23}, 3);
  shm.update_batch(ps.data(), ps.size());
  expect_chunked_restores(shm);

  expect_chunked_restores(summary::from(s));
}

TEST(StreamFraming, SinkWriteFailurePropagates) {
  sketch s(5'000, 16, 1.0, 7);
  const auto ids = skewed_ids(10'000, 1.0, 23);
  s.update_batch(ids.data(), ids.size());
  wire::sink sink([](std::span<const std::uint8_t>) { return false; }, 512);
  EXPECT_FALSE(snapshot::stream_save(s, sink));
  EXPECT_FALSE(sink.ok());
}

TEST(StreamFraming, SourceShortReadRejects) {
  sketch s(5'000, 16, 1.0, 7);
  const auto ids = skewed_ids(10'000, 1.0, 29);
  s.update_batch(ids.data(), ids.size());
  const bytes_t image = snapshot::save_streamed(s);
  const std::size_t stop = image.size() / 2;
  std::size_t cursor = 0;
  wire::source src(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min(want, stop - std::min(cursor, stop));
        std::memcpy(dst, image.data() + cursor, n);
        cursor += n;
        return n;
      },
      4096);
  EXPECT_FALSE(snapshot::stream_restore<sketch>(src).has_value());
}

// --- streamed vs monolithic, per type ---------------------------------------

/// The cross-format contract: a v2 (streamed) image of `object`, packed or
/// not, restores - through BOTH the source path and the buffered dispatch
/// path - to an object whose v1 re-save is byte-identical to the original's
/// v1 save. And the v1 image itself still restores post-dispatch.
template <typename T>
void expect_stream_equivalence(const T& object, bool expect_smaller = true) {
  const bytes_t v1 = snapshot::save(object);
  for (const bool packed : {true, false}) {
    const bytes_t v2 = snapshot::save_streamed(object, packed);
    ASSERT_FALSE(v2.empty());
    // Fixed framing overhead (CRCs, frame headers) can exceed the packing
    // gain on near-empty objects; callers with trivial payloads opt out.
    if (packed && expect_smaller) {
      EXPECT_LT(v2.size(), v1.size()) << "packed v2 should be smaller";
    }

    wire::source src{std::span<const std::uint8_t>(v2)};
    const auto from_stream = snapshot::stream_restore<T>(src);
    ASSERT_TRUE(from_stream.has_value()) << "packed=" << packed;
    EXPECT_EQ(v1, snapshot::save(*from_stream)) << "packed=" << packed;

    const auto from_buffer = snapshot::restore<T>(v2);  // dispatch on section version
    ASSERT_TRUE(from_buffer.has_value()) << "packed=" << packed;
    EXPECT_EQ(v1, snapshot::save(*from_buffer)) << "packed=" << packed;
  }
  const auto from_v1 = snapshot::restore<T>(v1);
  ASSERT_TRUE(from_v1.has_value());
  EXPECT_EQ(v1, snapshot::save(*from_v1));
}

TEST(StreamEquivalence, SpaceSaving) {
  space_saving<std::uint64_t> s(96);
  const auto ids = skewed_ids(30'000, 1.0, 31);
  for (const auto id : ids) s.add(id);
  expect_stream_equivalence(s);
}

TEST(StreamEquivalence, SpaceSavingCold) {
  // Partially filled (free counters, short bucket list) and empty-adjacent
  // shapes take different wire paths than the saturated steady state.
  space_saving<std::uint64_t> s(64);
  for (std::uint64_t k = 0; k < 10; ++k) s.add(k);
  expect_stream_equivalence(s, /*expect_smaller=*/false);
  space_saving<std::uint64_t> fresh(8);
  expect_stream_equivalence(fresh, /*expect_smaller=*/false);
}

TEST(StreamEquivalence, Memento) {
  sketch s(8'000, 48, 0.5, 11);
  const auto ids = skewed_ids(40'000, 1.0, 37);
  s.update_batch(ids.data(), ids.size());
  expect_stream_equivalence(s);
}

TEST(StreamEquivalence, HMemento) {
  h_memento<source_hierarchy> s(6'000, 96, 0.5, 1e-3, 13);
  const auto ps = trace_packets(25'000, 41);
  s.update_batch(ps.data(), ps.size());
  expect_stream_equivalence(s);
}

TEST(StreamEquivalence, Sharded) {
  sharded s(shard_config{6'000, 48, 1.0, 4, 4});
  const auto ids = skewed_ids(25'000, 1.0, 43);
  s.update_batch(ids.data(), ids.size());
  expect_stream_equivalence(s);
}

TEST(StreamEquivalence, Summary) {
  // A sketch-derived summary has only a handful of candidates, so size
  // parity is all the framing overhead allows there; a controller-scale
  // summary (built through the delta channel's upsert) shows the packing.
  sketch s(8'000, 48, 1.0, 17);
  const auto ids = skewed_ids(30'000, 1.0, 47);
  s.update_batch(ids.data(), ids.size());
  expect_stream_equivalence(summary::from(s), /*expect_smaller=*/false);

  summary big;
  big.set_scalars(100'000, 500'000, 12.5, 3.0);
  std::uint64_t z = 77;
  for (std::size_t i = 0; i < 2'000; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    big.upsert((z >> 30) & 0xFFFFF, static_cast<double>(1000 + (z & 0x3FF)));
  }
  expect_stream_equivalence(big);
}

// --- seeded round trips at the ring's edge cases ----------------------------

/// Checkpoints `object` both ways and asserts the restore contract at this
/// point of its stream: restore then re-save is byte-identical in v1 and
/// v2 (whichever image it came from), and 10k more packets leave every
/// restored copy state-identical to the original.
template <typename T, typename Feed>
void expect_round_trip(const T& object, Feed&& feed_more) {
  const bytes_t v1 = snapshot::save(object);
  const bytes_t v2 = snapshot::save_streamed(object);
  T original = object;
  feed_more(original);
  const bytes_t continued = snapshot::save(original);
  for (const bytes_t* image : {&v1, &v2}) {
    SCOPED_TRACE(image == &v1 ? "from v1" : "from v2");
    auto back = snapshot::restore<T>(*image);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(v1, snapshot::save(*back));
    EXPECT_EQ(v2, snapshot::save_streamed(*back));
    feed_more(*back);
    EXPECT_EQ(continued, snapshot::save(*back));
  }
}

TEST(StreamRoundTrip, SeededCheckpointsAtFrameFlushRingWrapAndMultiOverflowBlocks) {
  const double taus[] = {1.0, 0.5, 0.125, 1.0 / 64};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    xoshiro256 rng(seed);
    const std::size_t k = 2 + static_cast<std::size_t>(rng.bounded(63));
    const double tau = taus[rng.bounded(4)];
    // At least 16 sampled packets per block, so blocks can hold several
    // overflows at every tau.
    const std::uint64_t block = static_cast<std::uint64_t>(16 / tau) * (1 + rng.bounded(4));
    const std::size_t shards = 1 + static_cast<std::size_t>(rng.bounded(4));
    SCOPED_TRACE(testing::Message() << "seed " << seed << ": k " << k << ", tau " << tau
                                    << ", block " << block << ", shards " << shards);
    const auto more = skewed_ids(10'000, 1.0, 1000 + seed);
    const auto feed_more = [&](auto& x) { x.update_batch(more.data(), more.size()); };

    sketch s(k * block, k, tau, seed);
    std::uint64_t next_id = 0;
    // Round-robin over 8 keys: their counts cross each threshold multiple
    // within a few packets of each other, so overflows bunch into blocks.
    const auto feed_round_robin = [&](std::uint64_t n) {
      std::vector<std::uint64_t> xs(n);
      for (auto& x : xs) x = 1 + next_id++ % 8;
      s.update_batch(xs.data(), xs.size());
    };

    feed_round_robin(s.window_size());  // the last packet flushes the frame
    ASSERT_EQ(s.window_phase(), 0u);
    ASSERT_GT(s.overflow_entries(), 0u);
    expect_round_trip(s, feed_more);

    feed_round_robin(s.block_length());  // (k+1) blocks: the head is back at slot 0
    ASSERT_EQ(s.stream_length(), (k + 1) * s.block_length());
    expect_round_trip(s, feed_more);

    feed_round_robin(s.window_size() / 3 + rng.bounded(s.block_length()));
    for (std::uint64_t n = 0; s.block_overflow_appends() < 2; ++n) {
      ASSERT_LT(n, 4 * s.window_size()) << "no block collected several overflows";
      feed_round_robin(1);
    }
    expect_round_trip(s, feed_more);
    EXPECT_EQ(s.forced_drains(), 0u);

    sharded front(shard_config{k * block * shards, k * shards, tau, seed, shards});
    const auto ids = skewed_ids(static_cast<std::size_t>(2 * k * block * shards + rng.bounded(k * block)),
                                1.0, seed);
    front.update_batch(ids.data(), ids.size());
    expect_round_trip(front, feed_more);
  }
}

// --- corruption hardening ---------------------------------------------------

/// Every prefix of a streamed image must restore to nullopt; every
/// single-byte corruption must be REJECTED outright - unlike v1 (where a
/// key-byte flip can decode to a different valid object), the v2 format
/// CRCs every section, so nothing corrupt survives. Both the source path
/// and the buffered dispatch path are exercised; ASan (ctest label
/// `snapshot`) turns any out-of-bounds touch into a hard failure.
template <typename T>
void fuzz_streamed(const bytes_t& valid) {
  ASSERT_FALSE(valid.empty());
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    wire::source src{std::span<const std::uint8_t>(valid.data(), cut)};
    EXPECT_FALSE(snapshot::stream_restore<T>(src).has_value())
        << "accepted truncation at " << cut << "/" << valid.size();
  }
  bytes_t mutated = valid;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      mutated[i] = valid[i] ^ flip;
      wire::source src{std::span<const std::uint8_t>(mutated)};
      EXPECT_FALSE(snapshot::stream_restore<T>(src).has_value())
          << "accepted corruption at byte " << i << " flip " << int(flip);
      EXPECT_FALSE(snapshot::restore<T>(mutated).has_value())
          << "buffered path accepted corruption at byte " << i << " flip " << int(flip);
    }
    mutated[i] = valid[i];
  }
  // Trailing garbage after an intact payload is rejected too.
  mutated.push_back(0x5A);
  wire::source src{std::span<const std::uint8_t>(mutated)};
  EXPECT_FALSE(snapshot::stream_restore<T>(src).has_value());
}

TEST(StreamFuzz, SpaceSavingRejectsAllCorruption) {
  space_saving<std::uint64_t> s(48);
  const auto ids = skewed_ids(20'000, 1.0, 51);
  for (const auto id : ids) s.add(id);
  fuzz_streamed<space_saving<std::uint64_t>>(snapshot::save_streamed(s));
}

TEST(StreamFuzz, MementoRejectsAllCorruption) {
  sketch s(5'000, 32, 0.5, 2);
  const auto ids = skewed_ids(20'000, 1.0, 53);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<sketch>(snapshot::save_streamed(s));
}

TEST(StreamFuzz, HMementoRejectsAllCorruption) {
  h_memento<source_hierarchy> s(5'000, 64, 0.5, 1e-3, 3);
  const auto ps = trace_packets(12'000, 5);
  s.update_batch(ps.data(), ps.size());
  fuzz_streamed<h_memento<source_hierarchy>>(snapshot::save_streamed(s));
}

TEST(StreamFuzz, ShardedRejectsAllCorruption) {
  sharded s(shard_config{4'000, 32, 1.0, 3, 3});
  const auto ids = skewed_ids(12'000, 1.0, 57);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<sharded>(snapshot::save_streamed(s));
}

TEST(StreamFuzz, SummaryRejectsAllCorruption) {
  sketch s(5'000, 32, 1.0, 2);
  const auto ids = skewed_ids(20'000, 1.0, 59);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<summary>(snapshot::save_streamed(summary::from(s)));
}

TEST(StreamFuzz, UnpackedImagesAreCrcProtectedToo) {
  // The CRC is a property of the framing, not the codec: unpacked sections
  // must reject corruption just as hard.
  space_saving<std::uint64_t> s(32);
  const auto ids = skewed_ids(8'000, 1.0, 61);
  for (const auto id : ids) s.add(id);
  fuzz_streamed<space_saving<std::uint64_t>>(snapshot::save_streamed(s, /*packed=*/false));
}

TEST(StreamFuzz, RejectsUnknownCodecFlags) {
  // Codec negotiation is a byte inside the CRC'd section, so a flipped flag
  // alone dies on CRC; a future-flag payload must die on the flag check.
  // Hand-build a space_saving v2 section with an unknown flag bit and a
  // recomputed CRC; there is no public CRC hook, so instead assert the
  // known-mask contract on honest images: the flags byte of every streamed
  // save has no bits outside kCodecKnownMask (so any set unknown bit in a
  // payload is by definition dishonest, and the decoders reject it).
  space_saving<std::uint64_t> s(16);
  s.add(1);
  const bytes_t packed = snapshot::save_streamed(s, true);
  const bytes_t plain = snapshot::save_streamed(s, false);
  // magic(4) + tag(2) + version(2) + sentinel(4) = offset 12 is the flags byte.
  ASSERT_GT(packed.size(), 12u);
  EXPECT_EQ(packed[12] & ~wire::kCodecKnownMask, 0);
  EXPECT_EQ(plain[12] & ~wire::kCodecKnownMask, 0);
  EXPECT_NE(packed[12], plain[12]);
}

}  // namespace
}  // namespace memento
