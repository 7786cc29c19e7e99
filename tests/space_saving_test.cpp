// Tests for the Space-Saving stream summary: exactness below capacity, the
// classic eviction semantics, and the two guarantees every algorithm in the
// repository builds on (no undercount; overcount <= N / capacity).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "sketch/space_saving.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"
#include "snapshot/snapshot.hpp"

namespace memento {
namespace {

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(space_saving<std::uint64_t>(0), std::invalid_argument);
}

TEST(SpaceSaving, ExactBelowCapacity) {
  space_saving<std::uint64_t> ss(8);
  for (int round = 0; round < 5; ++round) {
    for (std::uint64_t k = 0; k < 4; ++k) ss.add(k);
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(ss.query(k), 5u);
    EXPECT_EQ(ss.query_lower(k), 5u);
  }
  EXPECT_EQ(ss.query(99), 0u) << "not full: absent flows are exactly 0";
  EXPECT_EQ(ss.size(), 4u);
}

TEST(SpaceSaving, PaperEvictionExample) {
  // Section 2: minimal counter is x with value 4; y arrives without a
  // counter -> x's counter is reallocated to y with value 5.
  space_saving<char> ss(2);
  for (int i = 0; i < 4; ++i) ss.add('x');
  for (int i = 0; i < 9; ++i) ss.add('z');
  ss.add('y');
  EXPECT_EQ(ss.query('y'), 5u);
  EXPECT_FALSE(ss.contains('x'));
  // x's estimate falls back to the minimum counter (5), an upper bound on
  // its true count (4).
  EXPECT_EQ(ss.query('x'), 5u);
  EXPECT_GE(ss.query('x'), 4u);
}

TEST(SpaceSaving, MinCountTracksSmallestCounter) {
  space_saving<int> ss(3);
  EXPECT_EQ(ss.min_count(), 0u);
  ss.add(1);
  EXPECT_EQ(ss.min_count(), 1u);
  ss.add(1);
  ss.add(2);
  EXPECT_EQ(ss.min_count(), 1u);
  ss.add(2);
  ss.add(3);
  ss.add(3);
  EXPECT_EQ(ss.min_count(), 2u);
}

TEST(SpaceSaving, FlushResetsEverything) {
  space_saving<int> ss(4);
  for (int i = 0; i < 100; ++i) ss.add(i % 6);
  ss.flush();
  EXPECT_EQ(ss.size(), 0u);
  EXPECT_EQ(ss.stream_length(), 0u);
  EXPECT_EQ(ss.min_count(), 0u);
  EXPECT_EQ(ss.query(0), 0u);
  // Still usable after flush.
  ss.add(42);
  EXPECT_EQ(ss.query(42), 1u);
}

TEST(SpaceSaving, StreamLengthCountsAdds) {
  space_saving<int> ss(2);
  for (int i = 0; i < 57; ++i) ss.add(i % 9);
  EXPECT_EQ(ss.stream_length(), 57u);
}

TEST(SpaceSaving, EntriesSnapshotMatchesQueries) {
  space_saving<int> ss(8);
  for (int i = 0; i < 200; ++i) ss.add(i % 5);
  const auto entries = ss.entries();
  EXPECT_EQ(entries.size(), 5u);
  std::uint64_t total = 0;
  for (const auto& e : entries) {
    EXPECT_EQ(ss.query(e.key), e.count);
    total += e.count;
  }
  EXPECT_EQ(total, 200u) << "below capacity: counts are exact and sum to N";
}

TEST(SpaceSaving, SingleCounterDegenerate) {
  space_saving<int> ss(1);
  for (int i = 0; i < 10; ++i) ss.add(i);
  // One counter absorbed all 10 adds.
  EXPECT_EQ(ss.query(9), 10u);
  EXPECT_GE(ss.query(0), 1u);  // evicted, reported at the (only) counter value
}

TEST(SpaceSaving, AllDistinctAdversarialStream) {
  space_saving<std::uint64_t> ss(16);
  constexpr std::uint64_t n = 10000;
  for (std::uint64_t i = 0; i < n; ++i) ss.add(i);
  // Every counter's value is bounded by N/capacity + 1 in this round-robin
  // worst case; the structural invariant is min_count <= N / capacity.
  EXPECT_LE(ss.min_count(), n / 16 + 1);
  for (std::uint64_t i = n - 16; i < n; ++i) {
    EXPECT_GE(ss.query(i), 1u) << "recent items must not be undercounted";
  }
}

TEST(SpaceSaving, SingleFlowStream) {
  space_saving<int> ss(4);
  for (int i = 0; i < 100000; ++i) ss.add(7);
  EXPECT_EQ(ss.query(7), 100000u);
  EXPECT_EQ(ss.query_lower(7), 100000u);
  EXPECT_EQ(ss.size(), 1u);
}

// --- property tests against exact counts --------------------------------------

struct ss_property_param {
  std::size_t capacity;
  double alpha;
  std::size_t universe;
};

class SpaceSavingProperty : public ::testing::TestWithParam<ss_property_param> {};

TEST_P(SpaceSavingProperty, GuaranteesAgainstExactCounts) {
  const auto param = GetParam();
  space_saving<std::uint64_t> ss(param.capacity);
  std::unordered_map<std::uint64_t, std::uint64_t> exact;

  zipf_sampler zipf(param.universe, param.alpha);
  xoshiro256 rng(1234);
  constexpr std::uint64_t n = 60000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::uint64_t>(zipf.sample(rng));
    ss.add(key);
    ++exact[key];
  }

  const std::uint64_t bound = n / param.capacity;
  EXPECT_LE(ss.min_count(), bound + 1);
  for (const auto& [key, truth] : exact) {
    const auto upper = ss.query(key);
    const auto lower = ss.query_lower(key);
    ASSERT_GE(upper, truth) << "undercount for key " << key;
    ASSERT_LE(upper - truth, bound + 1) << "overcount beyond N/m for key " << key;
    ASSERT_LE(lower, truth) << "lower bound above truth for key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndSkewSweep, SpaceSavingProperty,
    ::testing::Values(ss_property_param{16, 1.2, 1u << 10},
                      ss_property_param{64, 1.0, 1u << 12},
                      ss_property_param{256, 0.8, 1u << 14},
                      ss_property_param{1024, 1.4, 1u << 10},
                      ss_property_param{64, 0.0, 1u << 8}),
    [](const auto& info) {
      return "cap" + std::to_string(info.param.capacity) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10)) + "_u" +
             std::to_string(info.param.universe);
    });

TEST(SpaceSaving, HeavyHittersSurviveEvictionChurn) {
  // A strong heavy hitter must be monitored at the end no matter how much
  // tail churn the structure suffers (the HH recall property Memento needs).
  space_saving<std::uint64_t> ss(32);
  xoshiro256 rng(5);
  constexpr std::uint64_t n = 100000;
  std::uint64_t hh_count = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.uniform01() < 0.2) {
      ss.add(0xABCD);
      ++hh_count;
    } else {
      ss.add(1000 + rng.bounded(50000));  // churning tail
    }
  }
  EXPECT_TRUE(ss.contains(0xABCD));
  EXPECT_GE(ss.query(0xABCD), hh_count);
  EXPECT_LE(ss.query(0xABCD) - hh_count, n / 32 + 1);
}

TEST(SpaceSaving, AddBatchEqualsSequentialAdds) {
  // add_batch is the HammerSlide-shaped bulk entry point: hash-ahead +
  // prefetch must change nothing observable, down to the save() bytes.
  xoshiro256 rng(31);
  std::vector<std::uint64_t> ids(20000);
  for (auto& id : ids) id = rng.bounded(700);

  space_saving<std::uint64_t> one_by_one(64);
  for (const auto id : ids) one_by_one.add(id);
  space_saving<std::uint64_t> batched(64);
  batched.add_batch(ids.data(), ids.size());

  EXPECT_EQ(snapshot::save(one_by_one), snapshot::save(batched));
}

TEST(SpaceSaving, MinScanCrossChecksTheBucketList) {
  // min_scan recomputes the minimum from the flat count array; it must
  // agree with the O(1) bucket-list answer at every step.
  space_saving<std::uint64_t> ss(32);
  xoshiro256 rng(17);
  EXPECT_EQ(ss.min_scan(), 0u);
  for (int i = 0; i < 5000; ++i) {
    ss.add(rng.bounded(200));
    ASSERT_EQ(ss.min_scan(), ss.min_count()) << "step " << i;
  }
}

TEST(SpaceSaving, SaveRestoreRoundTripsTheFastPathStates) {
  // The singleton-bucket increment fast path renames buckets in place;
  // restore() revalidates full topology, so a round trip after heavy
  // fast-path traffic proves the structure stays sound.
  space_saving<std::uint64_t> ss(16);
  xoshiro256 rng(41);
  // Zipf-ish: elephants sit alone in their buckets (the fast path), tail
  // churns the eviction path.
  for (int i = 0; i < 20000; ++i) {
    ss.add(rng.bounded(8) == 0 ? rng.bounded(4) : rng.bounded(5000));
  }
  const auto image = snapshot::save(ss);
  auto back = snapshot::restore<space_saving<std::uint64_t>>(image);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(snapshot::save(*back), image);
  // And the restored instance continues identically.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = rng.bounded(5000);
    ASSERT_EQ(ss.add(id), back->add(id));
  }
  EXPECT_EQ(ss.index_stats().size, back->index_stats().size);
}

TEST(SpaceSaving, IndexStatsReflectThePrereservedTable) {
  space_saving<std::uint64_t> ss(64);
  const flat_hash_stats empty = ss.index_stats();
  EXPECT_EQ(empty.size, 0u);
  EXPECT_GE(empty.capacity, 128u) << "constructor reserves 2x capacity";
  xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) ss.add(rng.bounded(300));
  const flat_hash_stats st = ss.index_stats();
  EXPECT_EQ(st.size, ss.size());
  EXPECT_LE(st.load_factor, 0.75 + 1e-9);
  EXPECT_LE(st.mean_probe, static_cast<double>(st.max_probe));
}

TEST(SpaceSaving, InterleavedFlushesKeepGuarantees) {
  space_saving<std::uint64_t> ss(64);
  xoshiro256 rng(7);
  for (int frame = 0; frame < 5; ++frame) {
    std::unordered_map<std::uint64_t, std::uint64_t> exact;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t key = rng.bounded(500);
      ss.add(key);
      ++exact[key];
    }
    for (const auto& [key, truth] : exact) {
      ASSERT_GE(ss.query(key), truth);
      ASSERT_LE(ss.query(key) - truth, 20000 / 64 + 1);
    }
    ss.flush();
  }
}

}  // namespace
}  // namespace memento
