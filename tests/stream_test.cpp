// Streamed-wire suite: column codecs (FoR / key columns / ascending-delta /
// zig-zag), chunked sink/source framing, buffer-vs-chunked equivalence for
// every serializable type, and CRC/truncation hardening of the format.
//
// The load-bearing invariants:
//   * an image restores - through the chunked source path AND the buffered
//     snapshot::restore<T>() path - to an object whose re-save is
//     BYTE-IDENTICAL to the original's save, for space_saving,
//     memento_sketch, h_memento, sharded_memento, sharded_h_memento (1-D
//     and 2-D keys) and window_summary;
//   * the sink's buffered working set stays at chunk scale regardless of
//     image size, and chunk size never changes the bytes produced;
//   * every truncation of an image is rejected with nullopt and every
//     single-byte corruption is rejected (header checks + section CRCs) -
//     run under ASan in CI via the `snapshot` ctest label.
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
#include "hierarchy/prefix2d.hpp"
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

/// Round-trips `values` through put/get_u64_array and checks exact
/// recovery.
void roundtrip_for(const std::vector<std::uint64_t>& values) {
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_u64_array(s, values.size(), [&] { return values[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(wire::get_u64_array(src, values.size(), [&](std::uint64_t v) {
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
  roundtrip_for(values);
}

TEST(StreamCodec, ForHandlesDegenerateShapes) {
  roundtrip_for({});
  roundtrip_for({42});
  roundtrip_for(std::vector<std::uint64_t>(wire::kPackBlock, 0x1234567890ULL));  // bits = 0
  roundtrip_for({0, ~0ull});  // full 64-bit range in one frame
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
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_ascending_u64(s, values.size(), [&] { return values[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(wire::get_ascending_u64(src, values.size(), [&](std::uint64_t x) {
    got.push_back(x);
    return true;
  }));
  EXPECT_EQ(values, got);
}

TEST(StreamCodec, AscendingRejectsWraparound) {
  // first = 2^64 - 1, then any positive delta wraps past zero; the decoder
  // must reject rather than emit a non-ascending value.
  const std::uint64_t deltas[] = {~0ull, 4};  // 4: delta-minus-one of the second element
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_u64_array(s, 2, [&] { return deltas[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  EXPECT_FALSE(wire::get_ascending_u64(src, 2, [](std::uint64_t) { return true; }));
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
  EXPECT_FALSE(wire::get_u64_array(src, 1, [](std::uint64_t) { return true; }));
}

TEST(StreamCodec, ConsumerVetoStopsDecoding) {
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_u64_array(s, 8, [&] { return std::uint64_t{100} + i++; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::size_t seen = 0;
  EXPECT_FALSE(wire::get_u64_array(src, 8, [&](std::uint64_t) { return ++seen < 3; }));
  EXPECT_EQ(seen, 3u);
}

TEST(StreamCodec, OneWordKeyColumnIsAU64Array) {
  // Integral keys are one codec word, so their key column is byte for byte
  // the u64 array of the same values - the layout 1-D images have always
  // had.
  std::vector<std::uint64_t> keys;
  std::uint64_t z = 5;
  for (std::size_t i = 0; i < wire::kPackBlock + 99; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    keys.push_back(z >> (i % 40));
  }
  bytes_t as_keys, as_array;
  {
    wire::sink s(as_keys);
    std::size_t i = 0;
    wire::put_key_column<std::uint64_t>(s, keys.size(), [&]() -> const std::uint64_t& {
      return keys[i++];
    });
    ASSERT_TRUE(s.finish());
  }
  {
    wire::sink s(as_array);
    std::size_t i = 0;
    wire::put_u64_array(s, keys.size(), [&] { return keys[i++]; });
    ASSERT_TRUE(s.finish());
  }
  EXPECT_EQ(as_keys, as_array);
  wire::source src{std::span<const std::uint8_t>(as_keys)};
  std::vector<std::uint64_t> got;
  ASSERT_TRUE(wire::get_key_column<std::uint64_t>(src, keys.size(), [&](std::uint64_t k) {
    got.push_back(k);
    return true;
  }));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(got, keys);
}

TEST(StreamCodec, NarrowKeysRejectOutOfRangeWords) {
  using kc = wire::codec<std::uint32_t>;
  std::uint32_t v = 0;
  EXPECT_TRUE(kc::from_u64({0xFFFFFFFFull}, v));
  EXPECT_EQ(v, 0xFFFFFFFFu);
  EXPECT_FALSE(kc::from_u64({0x100000000ull}, v));
}

TEST(StreamCodec, TwoDimKeyColumnRoundTripsEveryLatticePattern) {
  // prefix2d is two codec words (src<<32|dst, src_depth<<8|dst_depth), each
  // its own FoR column per block; every one of the 25 lattice patterns
  // survives, across more than one block.
  std::vector<prefix2d> keys;
  std::uint64_t z = 9;
  for (std::size_t i = 0; i < wire::kPackBlock + 500; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    keys.push_back(prefix2::make(static_cast<std::uint32_t>(z >> 32), i % 5,
                                 static_cast<std::uint32_t>(z), (i / 5) % 5));
  }
  bytes_t buf;
  wire::sink s(buf);
  std::size_t i = 0;
  wire::put_key_column<prefix2d>(s, keys.size(), [&]() -> const prefix2d& { return keys[i++]; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  std::vector<prefix2d> got;
  ASSERT_TRUE(wire::get_key_column<prefix2d>(src, keys.size(), [&](const prefix2d& k) {
    got.push_back(k);
    return true;
  }));
  EXPECT_TRUE(src.done());
  EXPECT_EQ(got, keys);
}

TEST(StreamCodec, TwoDimCodecRejectsDepthFiveAndUnmaskedAddresses) {
  using kc = wire::codec<prefix2d>;
  prefix2d v;
  // Honest words decode, including the all-wildcard root.
  EXPECT_TRUE(kc::from_u64(kc::to_u64(prefix2::make(0x0A0B0C0D, 1, 0x01020304, 3)), v));
  EXPECT_EQ(v, prefix2::make(0x0A0B0C0D, 1, 0x01020304, 3));
  EXPECT_TRUE(kc::from_u64({0, 4u << 8 | 4u}, v));
  // Depth 5 is outside the 5-level hierarchy, in either dimension.
  EXPECT_FALSE(kc::from_u64({0, 5u << 8 | 0u}, v));
  EXPECT_FALSE(kc::from_u64({0, 0u << 8 | 5u}, v));
  // Depth bytes beyond the 16-bit word 1 layout.
  EXPECT_FALSE(kc::from_u64({0, std::uint64_t{1} << 16}, v));
  // Addresses must be stored masked to their depth: a /24 source (depth 1)
  // with its low byte set, a /0 destination (depth 4) with any bit set.
  EXPECT_FALSE(kc::from_u64({std::uint64_t{0x0A0B0C0D} << 32, 1u << 8 | 0u}, v));
  EXPECT_TRUE(kc::from_u64({std::uint64_t{0x0A0B0C00} << 32, 1u << 8 | 0u}, v));
  EXPECT_FALSE(kc::from_u64({0x00000001, 0u << 8 | 4u}, v));
  // A column carrying a rejected word pair fails the whole decode.
  bytes_t buf;
  wire::sink s(buf);
  const std::uint64_t word0 = 0, word1 = 5u << 8;
  wire::put_u64_array(s, 1, [&] { return word0; });
  wire::put_u64_array(s, 1, [&] { return word1; });
  ASSERT_TRUE(s.finish());
  wire::source src{std::span<const std::uint8_t>(buf)};
  EXPECT_FALSE(wire::get_key_column<prefix2d>(src, 1, [](const prefix2d&) { return true; }));
}

// --- chunked framing --------------------------------------------------------

TEST(StreamFraming, SinkBuffersAtChunkScaleAndChunkSizeIsInvisible) {
  sketch s(20'000, 64, 0.5, 3);
  const auto ids = skewed_ids(60'000, 1.0, 17);
  s.update_batch(ids.data(), ids.size());

  const bytes_t reference = snapshot::save(s);
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

/// Every chunk size restores `object`'s image to a byte-identical object,
/// and a bit flip in chunk 3 is rejected.
template <typename T>
void expect_chunked_restores(const T& object) {
  const bytes_t image = snapshot::save(object);
  ASSERT_FALSE(image.empty());
  for (const std::size_t chunk : {1, 3, 7, 64, 4096}) {
    SCOPED_TRACE(testing::Message() << "chunk " << chunk << ", image " << image.size());
    const auto back = restore_in_chunks<T>(image, chunk);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(image, snapshot::save(*back));
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

  sharded_h_memento<source_hierarchy> shm(hhh_shard_config{{8'000, 120, 0.5, 1e-3, 23}, 3});
  shm.update_batch(ps.data(), ps.size());
  expect_chunked_restores(shm);

  sharded_h_memento<two_dim_hierarchy> two_dim(hhh_shard_config{{8'000, 300, 0.5, 1e-3, 29}, 2});
  two_dim.update_batch(ps.data(), ps.size());
  expect_chunked_restores(two_dim);

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
  const bytes_t image = snapshot::save(s);
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

// --- buffer vs chunked stream, per type ------------------------------------

/// The buffer/stream contract: the buffered image of `object` equals the
/// one a chunked callback sink produces, and it restores - through a
/// chunked callback source AND the buffered snapshot::restore<T>() path -
/// to an object whose re-save is byte-identical to the original's save.
template <typename T>
void expect_stream_equivalence(const T& object) {
  const bytes_t image = snapshot::save(object);
  ASSERT_FALSE(image.empty());
  bytes_t chunked;
  wire::sink sink(
      [&](std::span<const std::uint8_t> b) {
        chunked.insert(chunked.end(), b.begin(), b.end());
        return true;
      },
      512);
  ASSERT_TRUE(snapshot::stream_save(object, sink));
  EXPECT_EQ(chunked, image);

  const auto from_stream = restore_in_chunks<T>(image, 512);
  ASSERT_TRUE(from_stream.has_value());
  EXPECT_EQ(image, snapshot::save(*from_stream));

  const auto from_buffer = snapshot::restore<T>(image);
  ASSERT_TRUE(from_buffer.has_value());
  EXPECT_EQ(image, snapshot::save(*from_buffer));
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
  expect_stream_equivalence(s);
  space_saving<std::uint64_t> fresh(8);
  expect_stream_equivalence(fresh);
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
  // A sketch-derived summary has only a handful of candidates; a
  // controller-scale summary (built through the delta channel's upsert)
  // spans several key-column blocks.
  sketch s(8'000, 48, 1.0, 17);
  const auto ids = skewed_ids(30'000, 1.0, 47);
  s.update_batch(ids.data(), ids.size());
  expect_stream_equivalence(summary::from(s));

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

/// Checkpoints `object` and asserts the restore contract at this point of
/// its stream: restore then re-save is byte-identical, and 10k more packets
/// leave the restored copy state-identical to the original.
template <typename T, typename Feed>
void expect_round_trip(const T& object, Feed&& feed_more) {
  const bytes_t image = snapshot::save(object);
  T original = object;
  feed_more(original);
  const bytes_t continued = snapshot::save(original);
  auto back = snapshot::restore<T>(image);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(image, snapshot::save(*back));
  feed_more(*back);
  EXPECT_EQ(continued, snapshot::save(*back));
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

/// Every prefix of an image must restore to nullopt; every single-byte
/// corruption must be REJECTED outright - the format CRCs every section,
/// so even a key-byte flip that would decode to a different valid object
/// does not survive. Both the source path and the buffered path are
/// exercised; ASan (ctest label `snapshot`) turns any out-of-bounds touch
/// into a hard failure.
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
  fuzz_streamed<space_saving<std::uint64_t>>(snapshot::save(s));
}

TEST(StreamFuzz, MementoRejectsAllCorruption) {
  sketch s(5'000, 32, 0.5, 2);
  const auto ids = skewed_ids(20'000, 1.0, 53);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<sketch>(snapshot::save(s));
}

TEST(StreamFuzz, HMementoRejectsAllCorruption) {
  h_memento<source_hierarchy> s(5'000, 64, 0.5, 1e-3, 3);
  const auto ps = trace_packets(12'000, 5);
  s.update_batch(ps.data(), ps.size());
  fuzz_streamed<h_memento<source_hierarchy>>(snapshot::save(s));
}

TEST(StreamFuzz, ShardedRejectsAllCorruption) {
  sharded s(shard_config{4'000, 32, 1.0, 3, 3});
  const auto ids = skewed_ids(12'000, 1.0, 57);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<sharded>(snapshot::save(s));
}

TEST(StreamFuzz, SummaryRejectsAllCorruption) {
  sketch s(5'000, 32, 1.0, 2);
  const auto ids = skewed_ids(20'000, 1.0, 59);
  s.update_batch(ids.data(), ids.size());
  fuzz_streamed<summary>(snapshot::save(summary::from(s)));
}

TEST(StreamFuzz, RejectsUnknownCodecFlags) {
  // Writers always FoR-pack: the flags byte of every honest image is
  // exactly kCodecPacked (magic(4) + tag(2) + version(2) + sentinel(4) =
  // offset 12 for every type that carries one at its top level).
  sketch m(2'000, 16, 1.0, 3);
  const auto ids = skewed_ids(6'000, 1.0, 67);
  m.update_batch(ids.data(), ids.size());
  space_saving<std::uint64_t> ss(16);
  for (const auto id : ids) ss.add(id);
  sharded sh(shard_config{4'000, 32, 1.0, 3, 2});
  sh.update_batch(ids.data(), ids.size());
  sharded_h_memento<source_hierarchy> shm(hhh_shard_config{{2'000, 48, 0.5, 1e-3, 7}, 2});
  const auto ps = trace_packets(4'000, 69);
  shm.update_batch(ps.data(), ps.size());
  for (const bytes_t& image : {snapshot::save(m), snapshot::save(ss), snapshot::save(sh),
                               snapshot::save(shm), snapshot::save(summary::from(m))}) {
    ASSERT_GT(image.size(), 12u);
    EXPECT_EQ(image[12], wire::kCodecPacked);
  }

  // A flipped flag alone dies on the CRC; a forged image with any other
  // flags byte and a recomputed CRC must die on the flag check. space_saving
  // is one section, so its CRC covers [12, size - 4).
  const bytes_t honest = snapshot::save(ss);
  for (const std::uint8_t flags : {std::uint8_t{0x00}, std::uint8_t{0x03}, std::uint8_t{0x81}}) {
    bytes_t forged = honest;
    forged[12] = flags;
    wire::crc32 crc;
    crc.update(forged.data() + 12, forged.size() - 16);
    wire::store_le(forged.data() + forged.size() - 4, crc.value());
    EXPECT_FALSE(snapshot::restore<space_saving<std::uint64_t>>(forged).has_value())
        << "flags " << int(flags);
  }
  // The same recomputation on the honest flags byte reproduces the image,
  // so the rejections above come from the flag check, not the CRC.
  bytes_t resealed = honest;
  wire::crc32 crc;
  crc.update(resealed.data() + 12, resealed.size() - 16);
  wire::store_le(resealed.data() + resealed.size() - 4, crc.value());
  EXPECT_EQ(resealed, honest);
}

}  // namespace
}  // namespace memento
