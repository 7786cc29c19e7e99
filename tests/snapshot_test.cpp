// Snapshot-layer suite: wire primitives, restore-then-continue determinism
// for every serializable type, mergeable summaries, elastic reshard, and
// malformed-input hardening.
//
// The load-bearing invariants (ISSUE acceptance criteria):
//   * restore(save(s)) is QUERY-identical and - fed the same suffix -
//     CONTINUATION-bit-identical for space_saving, memento_sketch,
//     h_memento and sharded_memento;
//   * merging a sharded frontend's per-shard summaries reproduces the
//     frontend's heavy_hitters/top/candidate answers exactly (disjoint
//     keyspaces);
//   * an N -> M reshard preserves the Zipf recall/precision behavior the
//     shard suite pins for the live frontend;
//   * every decoder rejects truncated input with nullopt and survives
//     arbitrary corruption without crashing (run under ASan in CI via the
//     `snapshot` ctest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/h_memento.hpp"
#include "core/memento.hpp"
#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/exact_window.hpp"
#include "sketch/space_saving.hpp"
#include "snapshot/reshard.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/summary.hpp"
#include "trace/trace_generator.hpp"
#include "util/compress.hpp"
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

/// Full observable-state equality between two memento instances.
void expect_identical(const sketch& a, const sketch& b) {
  ASSERT_EQ(a.stream_length(), b.stream_length());
  ASSERT_EQ(a.forced_drains(), b.forced_drains());
  ASSERT_EQ(a.overflow_entries(), b.overflow_entries());
  ASSERT_EQ(a.window_phase(), b.window_phase());
  const auto keys_a = a.monitored_keys();
  ASSERT_EQ(keys_a, b.monitored_keys());
  for (const auto& k : keys_a) {
    ASSERT_DOUBLE_EQ(a.query(k), b.query(k)) << "key " << k;
    ASSERT_DOUBLE_EQ(a.query_lower(k), b.query_lower(k)) << "key " << k;
  }
  const auto ha = a.heavy_hitters(0.005);
  const auto hb = b.heavy_hitters(0.005);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].key, hb[i].key);
    EXPECT_DOUBLE_EQ(ha[i].estimate, hb[i].estimate);
  }
}

// --- wire primitives --------------------------------------------------------

TEST(Wire, FixedWidthRoundTripsLittleEndian) {
  bytes_t buf;
  wire::sink w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(-1234.5e-3);
  ASSERT_TRUE(w.finish());
  // Little-endian layout is the contract, byte for byte.
  ASSERT_EQ(buf.size(), 1u + 2 + 4 + 8 + 8);
  EXPECT_EQ(buf[0], 0xAB);
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(buf[2], 0x12);
  EXPECT_EQ(buf[3], 0xEF);
  EXPECT_EQ(buf[6], 0xDE);

  wire::source r(buf);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  double e = 0;
  ASSERT_TRUE(r.u8(a) && r.u16(b) && r.u32(c) && r.u64(d) && r.f64(e));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, 0xDEADBEEFu);
  EXPECT_EQ(d, 0x0123456789ABCDEFULL);
  EXPECT_EQ(e, -1234.5e-3);
  EXPECT_TRUE(r.done());
}

TEST(Wire, VarintRoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,       1,        127,        128,
                                 16383,   16384,    (1u << 21) - 1,
                                 1u << 21, 1ull << 35, 1ull << 56,
                                 ~0ull - 1, ~0ull};
  for (const std::uint64_t v : cases) {
    bytes_t buf;
    wire::sink w(buf);
    w.varint(v);
    ASSERT_TRUE(w.finish());
    wire::source r{std::span<const std::uint8_t>(buf)};
    std::uint64_t back = 0;
    ASSERT_TRUE(r.varint(back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Wire, VarintRejectsOverflowAndRunaway) {
  // 11 continuation bytes: runs past the 10-byte cap.
  const bytes_t runaway(11, 0x80);
  wire::source r1{std::span<const std::uint8_t>(runaway)};
  std::uint64_t v = 0;
  EXPECT_FALSE(r1.varint(v));
  // 10 bytes whose last group overflows 64 bits.
  bytes_t overflow(10, 0x80);
  overflow[9] = 0x02;
  wire::source r2{std::span<const std::uint8_t>(overflow)};
  EXPECT_FALSE(r2.varint(v));
  // The same bytes one per read: the window-edge path keeps both caps.
  const bytes_t* const bad_inputs[] = {&runaway, &overflow};
  for (const bytes_t* bad : bad_inputs) {
    std::size_t at = 0;
    wire::source trickle(
        [&](std::uint8_t* dst, std::size_t) {
          if (at == bad->size()) return std::size_t{0};
          *dst = (*bad)[at++];
          return std::size_t{1};
        },
        1);
    EXPECT_FALSE(trickle.varint(v));
  }
  // Truncated mid-varint.
  const bytes_t cut = {0x80};
  wire::source r3{std::span<const std::uint8_t>(cut)};
  EXPECT_FALSE(r3.varint(v));
}

TEST(Wire, SectionsFrameAndRejectMismatches) {
  bytes_t buf;
  wire::sink w(buf);
  w.begin_section(0xABCD, 3);
  w.u32(42);
  w.end_section();
  w.u8(0x77);  // trailing data after the section
  ASSERT_TRUE(w.finish());
  // tag | version | kStreamLength | body | CRC32(body) | trailing byte
  ASSERT_EQ(buf.size(), 8u + 4 + 4 + 1);
  EXPECT_EQ(wire::load_le<std::uint32_t>(buf.data() + 4), wire::kStreamLength);

  wire::source r{std::span<const std::uint8_t>(buf)};
  std::uint16_t version = 0;
  ASSERT_TRUE(r.open_section(0xABCD, version));
  EXPECT_EQ(version, 3);
  std::uint32_t v = 0;
  ASSERT_TRUE(r.u32(v));
  EXPECT_EQ(v, 42u);
  ASSERT_TRUE(r.close_section());
  std::uint8_t tail = 0;
  ASSERT_TRUE(r.u8(tail));
  EXPECT_EQ(tail, 0x77);
  EXPECT_TRUE(r.done());

  wire::source wrong{std::span<const std::uint8_t>(buf)};
  EXPECT_FALSE(wrong.open_section(0x1111, version));  // tag mismatch

  // Any length field but the sentinel is a decode failure.
  bytes_t lying = buf;
  lying[4] = 0x04;
  wire::source r2{std::span<const std::uint8_t>(lying)};
  EXPECT_FALSE(r2.open_section(0xABCD, version));

  // A body byte that no longer matches the trailing CRC fails the close.
  bytes_t flipped = buf;
  flipped[8] ^= 0x01;
  wire::source r3{std::span<const std::uint8_t>(flipped)};
  ASSERT_TRUE(r3.open_section(0xABCD, version));
  ASSERT_TRUE(r3.u32(v));
  EXPECT_FALSE(r3.close_section());
}

// --- space_saving round trip ------------------------------------------------

TEST(SnapshotSpaceSaving, RestoreContinuesBitIdentically) {
  space_saving<std::uint64_t> a(64);
  const auto ids = skewed_ids(30000, 1.0, 17);
  for (std::size_t i = 0; i < 20000; ++i) a.add(ids[i]);

  const auto buf = snapshot::save(a);
  auto b = snapshot::restore<space_saving<std::uint64_t>>(buf);
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(b->size(), a.size());
  ASSERT_EQ(b->stream_length(), a.stream_length());
  ASSERT_EQ(b->min_count(), a.min_count());

  // Continuation is the hard part: evictions depend on bucket-chain order,
  // so byte-level structure preservation is what this asserts.
  for (std::size_t i = 20000; i < ids.size(); ++i) {
    ASSERT_EQ(a.add(ids[i]), b->add(ids[i])) << "diverged at " << i;
  }
  const auto ea = a.entries();
  const auto eb = b->entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].key, eb[i].key);
    EXPECT_EQ(ea[i].count, eb[i].count);
    EXPECT_EQ(ea[i].overestimate, eb[i].overestimate);
  }
}

// --- memento round trip -----------------------------------------------------

class SnapshotMemento : public ::testing::TestWithParam<double> {};

TEST_P(SnapshotMemento, RestoreThenContinueIsBitIdentical) {
  const double tau = GetParam();
  sketch a(50000, 128, tau, 9);
  const auto ids = skewed_ids(150000, 0.9, 23);
  // Mixed scalar/batch prefix so the snapshot lands mid-frame, mid-block.
  for (std::size_t i = 0; i < 5000; ++i) a.update(ids[i]);
  a.update_batch(ids.data() + 5000, 85000);

  const auto buf = snapshot::save(a);
  auto b = snapshot::restore<sketch>(buf);
  ASSERT_TRUE(b.has_value());
  ASSERT_NO_FATAL_FAILURE(expect_identical(a, *b));

  // Same suffix, mixed ingest modes on both: every sampled decision, block
  // rotation and retirement must replay identically.
  for (std::size_t i = 90000; i < 100000; ++i) {
    a.update(ids[i]);
    b->update(ids[i]);
  }
  a.update_batch(ids.data() + 100000, 50000);
  b->update_batch(ids.data() + 100000, 50000);
  ASSERT_NO_FATAL_FAILURE(expect_identical(a, *b));

  const auto ta = a.top(10);
  const auto tb = b->top(10);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_DOUBLE_EQ(ta[i].estimate, tb[i].estimate);
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, SnapshotMemento, ::testing::Values(1.0, 0.25, 1.0 / 64),
                         [](const auto& info) {
                           return info.param == 1.0    ? "tau1"
                                  : info.param == 0.25 ? "tau4th"
                                                       : "tau64th";
                         });

// --- h_memento round trip ---------------------------------------------------

TEST(SnapshotHMemento, RestoreThenContinueIsBitIdentical) {
  h_memento<source_hierarchy> a(40000, 512, 0.5, 1e-3, 5);
  const auto ps = trace_packets(120000, 7);
  a.update_batch(ps.data(), 70000);

  const auto buf = snapshot::save(a);
  auto b = snapshot::restore<h_memento<source_hierarchy>>(buf);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->window_size(), a.window_size());
  EXPECT_EQ(b->stream_length(), a.stream_length());

  // Continuation exercises both the Bernoulli sampler AND the
  // generalization-choice PRNG - the restored instance must pick the same
  // prefixes for the same packets.
  for (std::size_t i = 70000; i < 80000; ++i) {
    a.update(ps[i]);
    b->update(ps[i]);
  }
  a.update_batch(ps.data() + 80000, 40000);
  b->update_batch(ps.data() + 80000, 40000);
  ASSERT_EQ(a.stream_length(), b->stream_length());
  const auto oa = a.output(0.01);
  const auto ob = b->output(0.01);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].key, ob[i].key);
    EXPECT_DOUBLE_EQ(oa[i].upper_estimate, ob[i].upper_estimate);
    EXPECT_DOUBLE_EQ(oa[i].conditioned_frequency, ob[i].conditioned_frequency);
  }
  for (const auto& p : ps) {
    const auto key = source_hierarchy::key_at(p, 1);
    ASSERT_DOUBLE_EQ(a.query(key), b->query(key));
  }
}

// --- sharded round trip -----------------------------------------------------

TEST(SnapshotSharded, RestoreThenContinueIsBitIdentical) {
  shard_config cfg{100000, 256, 0.5, 13, 4};
  sharded a(cfg);
  const auto ids = skewed_ids(250000, 1.0, 21, 1u << 14);
  a.update_batch(ids.data(), 180000);

  const auto buf = snapshot::save(a);
  auto b = snapshot::restore<sharded>(buf);
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(b->num_shards(), a.num_shards());

  // Routing is derived state: every key must land on the same shard.
  for (std::uint64_t k = 0; k < 2000; ++k) ASSERT_EQ(a.shard_of(k), b->shard_of(k));

  a.update_batch(ids.data() + 180000, 70000);
  b->update_batch(ids.data() + 180000, 70000);
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    ASSERT_NO_FATAL_FAILURE(expect_identical(a.shard(s), b->shard(s)));
  }
  const auto ha = a.heavy_hitters(0.005);
  const auto hb = b->heavy_hitters(0.005);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].key, hb[i].key);
    EXPECT_DOUBLE_EQ(ha[i].estimate, hb[i].estimate);
  }
}

// --- sharded HHH round trip --------------------------------------------------

TEST(SnapshotShardedHMemento, RestoreThenContinueIsBitIdentical) {
  // Weighted (TABLE-mode) routing: migrate two buckets so the snapshot must
  // carry a non-uniform table, then round-trip through the buffer and
  // through a chunked sink. Continuation after restore must be
  // byte-identical to the original continuing through the same stream -
  // routing, per-shard sampler/PRNG timelines and window state included.
  const h_memento_config cfg{20000, 240, 0.5, 1e-3, 23};
  shard_table table = shard_table::uniform(3);
  table.to_shard[0] = 2;
  table.to_shard[77] = 0;
  sharded_h_memento<source_hierarchy> a(hhh_shard_config{cfg, 3}, table);
  const auto ps = trace_packets(60000, 11);
  a.update_batch(ps.data(), 40000);

  for (const bool chunked : {false, true}) {
    SCOPED_TRACE(chunked ? "chunked sink" : "buffer");
    bytes_t buf;
    if (chunked) {
      wire::sink sink(
          [&](std::span<const std::uint8_t> b) {
            buf.insert(buf.end(), b.begin(), b.end());
            return true;
          },
          256);
      ASSERT_TRUE(snapshot::stream_save(a, sink));
    } else {
      buf = snapshot::save(a);
    }
    ASSERT_FALSE(buf.empty());
    auto b = snapshot::restore<sharded_h_memento<source_hierarchy>>(buf);
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(b->num_shards(), a.num_shards());

    // Routing is carried state here (the table is not uniform): every
    // packet must land on the same shard after the round trip.
    trace_generator probe(trace_kind::backbone, 99);
    for (int i = 0; i < 2000; ++i) {
      const packet p = probe.next();
      ASSERT_EQ(a.shard_of(p), b->shard_of(p));
    }

    sharded_h_memento<source_hierarchy> cont = a;
    cont.update_batch(ps.data() + 40000, 20000);
    b->update_batch(ps.data() + 40000, 20000);
    EXPECT_EQ(snapshot::save(cont), snapshot::save(*b));
    const auto oa = cont.output(0.02);
    const auto ob = b->output(0.02);
    ASSERT_EQ(oa.size(), ob.size());
    for (std::size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].key, ob[i].key);
      EXPECT_DOUBLE_EQ(oa[i].conditioned_frequency, ob[i].conditioned_frequency);
    }
  }
}

TEST(SnapshotShardedHMemento, TwoDimFrontendRoundTrips) {
  // The 2-D lattice exercises the two-word prefix2d key codec through every
  // key column of the section stack (counters, overflow table, block ring).
  sharded_h_memento<two_dim_hierarchy> a(hhh_shard_config{{8000, 300, 0.5, 1e-3, 29}, 3});
  const auto ps = trace_packets(30000, 17);
  a.update_batch(ps.data(), 20000);
  ASSERT_GT(a.shard(0).inner().overflow_entries(), 0u);

  const auto buf = snapshot::save(a);
  auto b = snapshot::restore<sharded_h_memento<two_dim_hierarchy>>(buf);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(snapshot::save(*b), buf);
  sharded_h_memento<two_dim_hierarchy> cont = a;
  cont.update_batch(ps.data() + 20000, 10000);
  b->update_batch(ps.data() + 20000, 10000);
  EXPECT_EQ(snapshot::save(cont), snapshot::save(*b));
  const auto oa = cont.output(0.02);
  const auto ob = b->output(0.02);
  ASSERT_EQ(oa.size(), ob.size());
  for (std::size_t i = 0; i < oa.size(); ++i) {
    EXPECT_EQ(oa[i].key, ob[i].key);
    EXPECT_DOUBLE_EQ(oa[i].conditioned_frequency, ob[i].conditioned_frequency);
  }
}

// --- mergeable summaries ----------------------------------------------------

TEST(SnapshotSummary, MergedShardSummariesEqualShardedFrontendAnswers) {
  shard_config cfg{100000, 256, 1.0, 31, 4};
  sharded front(cfg);
  const auto ids = skewed_ids(300000, 1.0, 37, 1u << 14);
  front.update_batch(ids.data(), ids.size());

  // Merge the per-shard summaries in shard order, as a controller gathering
  // M disjoint-keyspace snapshots would.
  summary merged;
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    merged.merge(summary::from(front.shard(s)));
  }
  ASSERT_EQ(merged.window_size(), front.window_size());
  ASSERT_EQ(merged.stream_length(), front.stream_length());
  ASSERT_EQ(merged.size(), front.candidate_count());

  // The one-shot factory is the same merge.
  const summary direct = summary::from(front);
  ASSERT_EQ(direct.size(), merged.size());

  // heavy_hitters / top reproduce the frontend bit-for-bit (same candidate
  // sequence, same comparator, same bar).
  for (const double theta : {0.002, 0.01, 0.05}) {
    const auto hf = front.heavy_hitters(theta);
    const auto hm = merged.heavy_hitters(theta);
    ASSERT_EQ(hf.size(), hm.size()) << theta;
    for (std::size_t i = 0; i < hf.size(); ++i) {
      EXPECT_EQ(hf[i].key, hm[i].key);
      EXPECT_DOUBLE_EQ(hf[i].estimate, hm[i].estimate);
    }
  }
  const auto tf = front.top(25);
  const auto tm = merged.top(25);
  ASSERT_EQ(tf.size(), tm.size());
  for (std::size_t i = 0; i < tf.size(); ++i) {
    EXPECT_EQ(tf[i].key, tm[i].key);
    EXPECT_DOUBLE_EQ(tf[i].estimate, tm[i].estimate);
  }

  // Candidate point queries route-free equal the frontend's routed answers.
  merged.for_each([&](const std::uint64_t& key, double est) {
    ASSERT_DOUBLE_EQ(est, front.query(key));
  });
  // Absent keys answer the summed miss bound - one-sided, and documented to
  // grow with the number of merged sources.
  const std::uint64_t absent = ~0ull - 7;
  ASSERT_FALSE(merged.contains(absent));
  EXPECT_GE(merged.query(absent), front.query(absent));
}

TEST(SnapshotSummary, MergeIsOneSidedAgainstExactWindow) {
  shard_config cfg{60000, 256, 1.0, 41, 3};
  sharded front(cfg);
  exact_window<std::uint64_t> oracle(cfg.window_size);
  const auto ids = skewed_ids(200000, 1.1, 43, 1u << 13);
  for (const auto id : ids) {
    front.update(id);
    oracle.add(id);
  }
  const summary merged = summary::from(front);
  // Every key - candidate or not - must answer at least its owning shard's
  // view; candidates must dominate the exact per-shard window count.
  std::size_t checked = 0;
  merged.for_each([&](const std::uint64_t& key, double est) {
    EXPECT_GE(est + 1e-9, front.query(key));
    ++checked;
  });
  ASSERT_GT(checked, 0u);
  // Overlapping-keys merge: folding a summary into itself doubles estimates
  // (documented one-sided error growth), never loses keys.
  summary doubled = merged;
  doubled.merge(merged);
  ASSERT_EQ(doubled.size(), merged.size());
  merged.for_each([&](const std::uint64_t& key, double est) {
    ASSERT_DOUBLE_EQ(doubled.query(key), 2.0 * est);
  });
}

TEST(SnapshotSummary, WireRoundTripPreservesEverything) {
  sketch a(30000, 128, 0.5, 3);
  const auto ids = skewed_ids(90000, 1.0, 47);
  a.update_batch(ids.data(), ids.size());
  const summary s = summary::from(a);
  const auto buf = snapshot::save(s);
  auto back = snapshot::restore<summary>(buf);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), s.size());
  ASSERT_EQ(back->window_size(), s.window_size());
  ASSERT_DOUBLE_EQ(back->estimate_width(), s.estimate_width());
  ASSERT_DOUBLE_EQ(back->miss_bound(), s.miss_bound());
  s.for_each([&](const std::uint64_t& key, double est) {
    ASSERT_DOUBLE_EQ(back->query(key), est);
  });
  const auto ha = s.heavy_hitters(0.01);
  const auto hb = back->heavy_hitters(0.01);
  ASSERT_EQ(ha.size(), hb.size());
}

/// from_hhh is the inner sketch's summary scaled by H, except the miss
/// bound, which rounds as H * (3T - 1) / tau. Checked field by field and on
/// the saved bytes, so a rounding drift would change WS images.
template <typename H>
void expect_hhh_summary_is_scaled_inner(double tau, std::uint64_t seed) {
  using key_type = typename H::key_type;
  h_memento<H> algo(20000, 300, tau, 1e-3, seed);
  const auto ps = trace_packets(60000, seed + 1);
  algo.update_batch(ps.data(), ps.size());
  const auto& inner = algo.inner();
  ASSERT_GT(inner.candidate_count(), 0u);

  const double h = static_cast<double>(H::hierarchy_size);
  const double miss = h * (3.0 * static_cast<double>(inner.overflow_threshold()) - 1.0) / tau;
  window_summary<key_type> expected;
  expected.set_scalars(inner.window_size(), inner.stream_length(), h * inner.estimate_width(),
                       miss);
  inner.for_each_candidate(
      [&](const key_type& key, double est) { expected.upsert(key, h * est); });

  const auto got = window_summary<key_type>::from_hhh(algo);
  EXPECT_EQ(got.window_size(), expected.window_size());
  EXPECT_EQ(got.stream_length(), expected.stream_length());
  EXPECT_EQ(got.estimate_width(), expected.estimate_width());
  EXPECT_EQ(got.miss_bound(), expected.miss_bound());
  std::vector<std::pair<key_type, double>> got_entries, expected_entries;
  got.for_each([&](const key_type& k, double e) { got_entries.push_back({k, e}); });
  expected.for_each([&](const key_type& k, double e) { expected_entries.push_back({k, e}); });
  EXPECT_EQ(got_entries, expected_entries);
  EXPECT_EQ(snapshot::save(got), snapshot::save(expected));
}

TEST(SnapshotSummary, HierarchicalSummaryScalesTheInnerSketch) {
  // tau = 0.3 and 0.7 are not powers of two, so both roundings of the miss
  // bound are exercised.
  expect_hhh_summary_is_scaled_inner<source_hierarchy>(0.3, 53);
  expect_hhh_summary_is_scaled_inner<two_dim_hierarchy>(0.7, 59);
}

// --- elastic reshard --------------------------------------------------------

/// (old_shards, new_shards): out AND in, including the N == M identity-ish
/// case that still rebuilds every structure.
class Reshard : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Reshard, PreservesRecallAndOneSidednessOnZipfTraffic) {
  const auto [n_old, n_new] = GetParam();
  constexpr std::uint64_t kWindow = 100000;
  constexpr std::size_t kCounters = 512;
  constexpr double kTheta = 0.01;

  shard_config cfg{kWindow, kCounters, 1.0, 13, n_old};
  sharded front(cfg);
  exact_window<std::uint64_t> oracle(kWindow);
  const auto ids = skewed_ids(300000, 0.9, 101, 1u << 14);
  for (const auto id : ids) {
    front.update(id);
    oracle.add(id);
  }

  shard_config nc = cfg;
  nc.shards = n_new;
  auto restored = snapshot::restore<sharded>(snapshot::save(front));
  ASSERT_TRUE(restored.has_value());
  auto resharded = snapshot_builder::reshard(*restored, nc);
  ASSERT_TRUE(resharded.has_value());
  ASSERT_EQ(resharded->num_shards(), n_new);
  ASSERT_DOUBLE_EQ(resharded->estimate_width(), front.estimate_width());

  // Candidate estimates move by at most one threshold unit per key (the
  // in-frame residue a dropped Space-Saving entry can lose), plus nothing:
  // overflow counts carry exactly.
  const double unit = static_cast<double>(front.shard(0).overflow_threshold()) /
                      front.shard(0).tau();
  std::size_t compared = 0;
  for (const auto& hh : front.heavy_hitters(kTheta)) {
    const double after = resharded->query(hh.key);
    EXPECT_LE(std::abs(after - hh.estimate), unit + 1e-9) << "key " << hh.key;
    ++compared;
  }
  ASSERT_GT(compared, 0u);

  // The shard suite's detection bars, post-reshard: recall >= 0.8 against
  // the exact window, misses only borderline.
  const double bar = kTheta * static_cast<double>(kWindow);
  std::vector<std::uint64_t> truth;
  oracle.for_each([&](const std::uint64_t& key, std::uint64_t count) {
    if (static_cast<double>(count) >= bar) truth.push_back(key);
  });
  ASSERT_FALSE(truth.empty());
  const auto found = resharded->heavy_hitters(kTheta);
  auto in = [&](const std::uint64_t& key) {
    return std::any_of(found.begin(), found.end(),
                       [&](const auto& hh) { return hh.key == key; });
  };
  std::size_t hit = 0;
  for (const auto& key : truth) {
    if (in(key)) {
      ++hit;
    } else {
      EXPECT_LT(static_cast<double>(oracle.query(key)), 1.2 * bar)
          << "reshard dropped a clear heavy hitter: " << key;
    }
  }
  EXPECT_GE(static_cast<double>(hit) / static_cast<double>(truth.size()), 0.8);
  // Precision proxy: the report may widen only by the borderline band.
  EXPECT_LE(found.size(), front.heavy_hitters(kTheta).size() + truth.size() + 16);

  // A resharded frontend is itself checkpointable: its canonically rebuilt
  // structures must pass restore's full topology validation.
  const auto rebuf = snapshot::save(*resharded);
  auto recycled = snapshot::restore<sharded>(rebuf);
  ASSERT_TRUE(recycled.has_value()) << "resharded state failed its own round trip";

  // The resharded frontend keeps running: feed another window's worth and
  // re-check one-sidedness against a fresh oracle on the suffix.
  const auto more = skewed_ids(150000, 0.9, 202, 1u << 14);
  resharded->update_batch(more.data(), more.size());
  recycled->update_batch(more.data(), more.size());
  for (std::size_t s = 0; s < resharded->num_shards(); ++s) {
    EXPECT_LT(resharded->shard(s).window_phase(), resharded->shard(s).window_size());
    ASSERT_NO_FATAL_FAILURE(expect_identical(resharded->shard(s), recycled->shard(s)));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, Reshard,
                         ::testing::Values(std::make_pair(std::size_t{4}, std::size_t{2}),
                                           std::make_pair(std::size_t{2}, std::size_t{8}),
                                           std::make_pair(std::size_t{4}, std::size_t{4}),
                                           std::make_pair(std::size_t{1}, std::size_t{8})),
                         [](const auto& info) {
                           std::string name = "N";
                           return name.append(std::to_string(info.param.first))
                               .append("toM")
                               .append(std::to_string(info.param.second));
                         });

TEST(Reshard, RejectsDuplicatedShardSections) {
  // A crafted snapshot repeating one (individually valid) shard section
  // passes restore() but is not a disjoint partition: every key would merge
  // twice. reshard must reject it, never double-count.
  shard_config cfg{50000, 128, 1.0, 5, 2};
  sharded front(cfg);
  const auto ids = skewed_ids(60000, 1.0, 71);
  front.update_batch(ids.data(), ids.size());
  ASSERT_GT(front.shard(0).overflow_entries() + front.shard(0).counters(), 0u);

  bytes_t buf;
  wire::sink w(buf);
  w.u32(snapshot::kMagic);
  w.begin_section(sharded::kWireTag, sharded::kWireVersion);
  w.u8(wire::kCodecPacked);
  w.varint(2);       // shard count
  w.u64(cfg.seed);   // base seed
  w.varint(0);       // no bucket table: HASH-mode routing
  front.shard(0).save(w);
  front.shard(0).save(w);  // same shard twice: same keys twice
  w.end_section();
  ASSERT_TRUE(w.finish());
  auto restored = snapshot::restore<sharded>(buf);
  ASSERT_TRUE(restored.has_value());  // individually valid shards
  EXPECT_FALSE(snapshot_builder::reshard(*restored, cfg).has_value());
}

TEST(Reshard, RejectsIncompatibleGeometries) {
  shard_config cfg{100000, 512, 1.0, 7, 4};
  sharded front(cfg);
  const auto ids = skewed_ids(50000, 1.0, 11);
  front.update_batch(ids.data(), ids.size());

  shard_config bad = cfg;
  bad.shards = 2;
  bad.tau = 0.5;  // different tau => different threshold semantics
  EXPECT_FALSE(snapshot_builder::reshard(front, bad).has_value());

  bad = cfg;
  bad.shards = 2;
  bad.window_size = cfg.window_size / 2;  // different per-shard threshold
  EXPECT_FALSE(snapshot_builder::reshard(front, bad).has_value());

  bad = cfg;
  bad.shards = 0;
  EXPECT_FALSE(snapshot_builder::reshard(front, bad).has_value());

  // The hierarchical frontend runs the same reshard path. Its wildcard
  // prefixes have no single owner and stay on their old shard index, so
  // on top of the geometry checks the shard count may not change.
  const hhh_shard_config hcfg{h_memento_config{40000, 400, 1.0, 1e-3, 7}, 4};
  sharded_h_memento<source_hierarchy> hfront(hcfg);
  const auto packets = make_trace(trace_kind::datacenter, 30000, 12);
  hfront.update_batch(packets.data(), packets.size());
  const shard_table skewed = [] {
    shard_table t = shard_table::uniform(4);
    t.to_shard[0] = 3;
    return t;
  }();
  ASSERT_TRUE(snapshot_builder::reshard(hfront, hcfg, skewed).has_value());

  hhh_shard_config hbad = hcfg;
  hbad.shards = 2;  // N -> M
  EXPECT_FALSE(snapshot_builder::reshard(hfront, hbad).has_value());
  EXPECT_FALSE(snapshot_builder::reshard(hfront, hbad, shard_table::uniform(2)).has_value());
  EXPECT_FALSE(reshard_to(hfront, 8).has_value());

  hbad = hcfg;
  hbad.base.tau = 0.5;
  EXPECT_FALSE(snapshot_builder::reshard(hfront, hbad, skewed).has_value());

  // A table that routes to shards the target does not have does not fit.
  EXPECT_FALSE(snapshot_builder::reshard(hfront, hcfg, shard_table::uniform(8)).has_value());
}

// --- malformed-input hardening ---------------------------------------------

/// One section of an honest image: its CRC32 sits at `end`, and `own` are
/// the byte ranges that CRC covers - the section's body minus its child
/// sections' bodies (a child's header and CRC word feed the parent's CRC,
/// its body bytes only its own).
struct section_span {
  std::size_t end = 0;
  std::vector<std::pair<std::size_t, std::size_t>> own;
};

/// A section header at `at`: a known tag, any version, the sentinel.
bool section_header_at(const bytes_t& image, std::size_t at) {
  const std::uint16_t tags[] = {space_saving<std::uint64_t>::kWireTag, sketch::kWireTag,
                                h_memento<source_hierarchy>::kWireTag, sharded::kWireTag,
                                sharded_h_memento<source_hierarchy>::kWireTag,
                                summary::kWireTag};
  if (at + 8 > image.size()) return false;
  const auto tag = wire::load_le<std::uint16_t>(image.data() + at);
  return std::find(std::begin(tags), std::end(tags), tag) != std::end(tags) &&
         wire::load_le<std::uint32_t>(image.data() + at + 4) == wire::kStreamLength;
}

/// Walks the section whose header is at `at`, appending it after its
/// children (post-order); returns its CRC position, or 0 when none is found.
/// The end is the first offset where the running CRC matches the stored
/// word.
std::size_t walk_section(const bytes_t& image, std::size_t at, std::vector<section_span>& out) {
  section_span sec;
  wire::crc32 crc;
  std::size_t from = at + 8;
  for (std::size_t i = at + 8; i + 4 <= image.size();) {
    if (section_header_at(image, i)) {
      crc.update(image.data() + i, 8);
      sec.own.emplace_back(from, i + 8);
      const std::size_t child_end = walk_section(image, i, out);
      if (child_end == 0) return 0;
      crc.update(image.data() + child_end, 4);
      from = child_end;
      i = child_end + 4;
    } else if (crc.value() == wire::load_le<std::uint32_t>(image.data() + i)) {
      sec.own.emplace_back(from, i);
      sec.end = i;
      out.push_back(std::move(sec));
      return i;
    } else {
      crc.update(image.data() + i, 1);
      ++i;
    }
  }
  return 0;
}

/// Every section of an honest snapshot image, children before parents.
std::vector<section_span> find_sections(const bytes_t& image) {
  std::vector<section_span> out;
  if (section_header_at(image, 4)) walk_section(image, 4, out);  // after the magic
  return out;
}

/// Recomputes every section CRC of a (corrupted) image, children first, so
/// only structural validation stands between the bytes and a restored
/// object.
void reseal(bytes_t& image, const std::vector<section_span>& sections) {
  for (const section_span& sec : sections) {
    wire::crc32 crc;
    for (const auto& [from, to] : sec.own) crc.update(image.data() + from, to - from);
    wire::store_le(image.data() + sec.end, crc.value());
  }
}

/// Every prefix of a valid snapshot must decode to nullopt and every bit
/// flip must be rejected (the section CRCs). With the CRCs recomputed over
/// a flipped byte, the image must either decode to nullopt or to a
/// structurally sane object - never crash, never a partial object. Run
/// under ASan/UBSan in CI (ctest label `snapshot`), which turns any
/// out-of-bounds touch into a hard failure.
template <typename T>
void fuzz_snapshot(const bytes_t& valid) {
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(
        snapshot::restore<T>(std::span<const std::uint8_t>(valid.data(), cut)).has_value())
        << "accepted truncation at " << cut << "/" << valid.size();
  }
  const auto sections = find_sections(valid);
  ASSERT_FALSE(sections.empty());
  ASSERT_EQ(sections.back().end + 4, valid.size());
  bytes_t resealed = valid;
  reseal(resealed, sections);
  ASSERT_EQ(resealed, valid) << "the section walk missed a CRC range";
  bytes_t mutated = valid;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}, std::uint8_t{0xFF}}) {
      mutated[i] = valid[i] ^ flip;
      EXPECT_FALSE(snapshot::restore<T>(mutated).has_value())
          << "accepted corruption at byte " << i << " flip " << int(flip);
    }
    // One re-sealed flip per byte keeps the sweep's cost near one pass.
    mutated[i] = valid[i] ^ 0x01;
    reseal(mutated, sections);
    (void)snapshot::restore<T>(mutated);  // must not crash; value optional
    mutated = valid;
  }
  // Trailing garbage is rejected even though the payload is intact.
  mutated.push_back(0x5A);
  EXPECT_FALSE(snapshot::restore<T>(mutated).has_value());
}

TEST(SnapshotFuzz, SpaceSavingSurvivesTruncationAndCorruption) {
  space_saving<std::uint64_t> s(48);
  const auto ids = skewed_ids(20000, 1.0, 51);
  for (const auto id : ids) s.add(id);
  fuzz_snapshot<space_saving<std::uint64_t>>(snapshot::save(s));
}

TEST(SnapshotFuzz, MementoSurvivesTruncationAndCorruption) {
  sketch s(5000, 32, 0.5, 2);
  const auto ids = skewed_ids(20000, 1.0, 53);
  s.update_batch(ids.data(), ids.size());
  fuzz_snapshot<sketch>(snapshot::save(s));
}

TEST(SnapshotFuzz, HMementoSurvivesTruncationAndCorruption) {
  h_memento<source_hierarchy> s(5000, 80, 0.5, 1e-3, 3);
  const auto ps = trace_packets(15000, 5);
  s.update_batch(ps.data(), ps.size());
  fuzz_snapshot<h_memento<source_hierarchy>>(snapshot::save(s));
}

TEST(SnapshotFuzz, ShardedSurvivesTruncationAndCorruption) {
  sharded s(shard_config{4000, 32, 1.0, 3, 3});
  const auto ids = skewed_ids(12000, 1.0, 57);
  s.update_batch(ids.data(), ids.size());
  fuzz_snapshot<sharded>(snapshot::save(s));
}

TEST(SnapshotFuzz, ShardedHMementoSurvivesTruncationAndCorruption) {
  // Weighted table so the fuzz walks the bucket-table entries too; small
  // geometry keeps the byte image (and the per-prefix truncation sweep)
  // tractable under ASan.
  shard_table table = shard_table::uniform(3);
  table.to_shard[5] = 1;
  sharded_h_memento<source_hierarchy> s(hhh_shard_config{{2000, 48, 0.5, 1e-3, 7}, 3}, table);
  const auto ps = trace_packets(8000, 63);
  s.update_batch(ps.data(), ps.size());
  fuzz_snapshot<sharded_h_memento<source_hierarchy>>(snapshot::save(s));
}

TEST(SnapshotFuzz, TwoDimShardedHMementoSurvivesTruncationAndCorruption) {
  sharded_h_memento<two_dim_hierarchy> s(hhh_shard_config{{1500, 60, 0.5, 1e-3, 9}, 2});
  const auto ps = trace_packets(6000, 65);
  s.update_batch(ps.data(), ps.size());
  fuzz_snapshot<sharded_h_memento<two_dim_hierarchy>>(snapshot::save(s));
}

TEST(SnapshotFuzz, SummarySurvivesTruncationAndCorruption) {
  sketch s(5000, 32, 1.0, 2);
  const auto ids = skewed_ids(20000, 1.0, 59);
  s.update_batch(ids.data(), ids.size());
  fuzz_snapshot<summary>(snapshot::save(summary::from(s)));
}

TEST(SnapshotFuzz, RestoredCorruptionSurvivorsStayUsable) {
  // When a bit flip with a recomputed CRC happens to decode (e.g. it only
  // touched a key bit), the object must still be SAFE to drive - feed every
  // survivor a stream.
  sketch s(2000, 16, 1.0, 2);
  const auto ids = skewed_ids(6000, 1.0, 61);
  s.update_batch(ids.data(), ids.size());
  const auto valid = snapshot::save(s);
  const auto sections = find_sections(valid);
  ASSERT_EQ(sections.size(), 2u);  // the sketch and its Space-Saving
  bytes_t mutated = valid;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    mutated[i] = valid[i] ^ 0x01;
    reseal(mutated, sections);
    if (auto r = snapshot::restore<sketch>(mutated)) {
      ++survivors;
      r->update_batch(ids.data(), 2000);
      (void)r->heavy_hitters(0.01);
      (void)r->top(5);
      EXPECT_LT(r->window_phase(), r->window_size());
    }
    mutated[i] = valid[i];
  }
  // The resealed flip set always contains survivors (key bits); this just
  // documents that the loop above exercised real objects.
  EXPECT_GT(survivors, 0u);
}

TEST(SnapshotFuzz, RejectsLyingEntryCountWithoutAllocating) {
  // A 9-byte varint can claim 2^60 entries in a tiny payload; the guard
  // must reject it by division (a multiply would wrap and reach a throwing
  // resize, violating the nullopt-never-crash contract).
  bytes_t buf;
  wire::sink w(buf);
  w.u32(snapshot::kMagic);
  w.begin_section(summary::kWireTag, summary::kWireVersion);
  w.u8(wire::kCodecPacked);
  w.varint(100);               // window
  w.varint(100);               // stream
  w.f64(1.0);                  // width
  w.f64(1.0);                  // miss bound
  w.varint(1ull << 60);        // entry count: absurd
  w.end_section();
  ASSERT_TRUE(w.finish());
  EXPECT_FALSE(snapshot::restore<summary>(buf).has_value());
}

TEST(SnapshotFuzz, RejectsUndersizedCounterIndex) {
  // An empty-but-valid-looking space_saving image whose index lost the
  // constructor's reserve headroom: accepting it would let a later add()
  // probe an empty (or unresizable) table. Hand-built because no honest
  // save can produce it.
  bytes_t buf;
  wire::sink w(buf);
  w.u32(snapshot::kMagic);
  w.begin_section(space_saving<std::uint64_t>::kWireTag,
                  space_saving<std::uint64_t>::kWireVersion);
  w.u8(wire::kCodecPacked);
  w.varint(8);                 // capacity: 8 counters
  w.varint(0);                 // used
  w.u64(0);                    // adds
  w.u32(~0u);                  // min_bucket = npos
  w.u32(~0u);                  // bucket_free = npos
  w.varint(0);                 // no bucket nodes (every column empty)
  w.varint(0);                 // index capacity 0 (honest: >= 32 slots)
  w.end_section();
  ASSERT_TRUE(w.finish());
  EXPECT_FALSE(snapshot::restore<space_saving<std::uint64_t>>(buf).has_value());
}

TEST(Snapshot, RejectsWrongMagicAndForeignTags) {
  sketch s(1000, 8, 1.0, 1);
  auto buf = snapshot::save(s);
  // Wrong magic.
  bytes_t wrong = buf;
  wrong[0] ^= 0xFF;
  EXPECT_FALSE(snapshot::restore<sketch>(wrong).has_value());
  // Right magic, wrong type: a memento snapshot is not an h_memento.
  EXPECT_FALSE(snapshot::restore<h_memento<source_hierarchy>>(buf).has_value());
  EXPECT_FALSE(snapshot::restore<sharded>(buf).has_value());
  EXPECT_FALSE(snapshot::restore<summary>(buf).has_value());
  // Empty and tiny buffers.
  EXPECT_FALSE(snapshot::restore<sketch>(bytes_t{}).has_value());
  EXPECT_FALSE(snapshot::restore<sketch>(bytes_t{0x4d, 0x45}).has_value());
}

}  // namespace
}  // namespace memento
