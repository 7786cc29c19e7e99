// Tests for the heavy-hitter change detector (the paper's future-work
// mechanism): event correctness, hysteresis and bounded exit lag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/change_detector.hpp"
#include "util/random.hpp"

namespace memento {
namespace {

change_detector_config thresholds(double high, double low) {
  change_detector_config c;
  c.theta_high = high;
  c.theta_low = low;
  return c;
}

TEST(ChangeDetector, RejectsBadThresholds) {
  const memento_config sketch{10000, 128, 1.0, 1};
  EXPECT_THROW(hh_change_detector<>(sketch, thresholds(0.01, 0.02)), std::invalid_argument);
  EXPECT_THROW(hh_change_detector<>(sketch, thresholds(0.01, 0.0)), std::invalid_argument);
  EXPECT_THROW(hh_change_detector<>(sketch, thresholds(1.0, 0.5)), std::invalid_argument);
  EXPECT_NO_THROW(hh_change_detector<>(sketch, thresholds(0.02, 0.01)));
}

TEST(ChangeDetector, EmitsEnterWhenFlowCrossesThreshold) {
  hh_change_detector<> detector(memento_config{10000, 256, 1.0, 1}, thresholds(0.05, 0.03));
  xoshiro256 rng(3);
  // Background only: no events.
  for (int i = 0; i < 20000; ++i) detector.update(1000 + rng.bounded(50000));
  EXPECT_TRUE(detector.poll_events().empty());
  EXPECT_EQ(detector.set_size(), 0u);

  // A flow ramps to ~20% of traffic: one `entered` event for it.
  for (int i = 0; i < 20000; ++i) {
    detector.update(rng.uniform01() < 0.2 ? 7u : 1000 + rng.bounded(50000));
  }
  const auto events = detector.poll_events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().key, 7u);
  EXPECT_EQ(events.front().kind, change_kind::entered);
  EXPECT_TRUE(detector.contains(7));
  // No spurious entries for background flows.
  for (const auto& e : events) EXPECT_EQ(e.key, 7u);
}

TEST(ChangeDetector, EmitsLeaveWhenFlowFades) {
  hh_change_detector<> detector(memento_config{10000, 256, 1.0, 1}, thresholds(0.05, 0.03));
  xoshiro256 rng(5);
  for (int i = 0; i < 30000; ++i) {
    detector.update(rng.uniform01() < 0.2 ? 7u : 1000 + rng.bounded(50000));
  }
  ASSERT_TRUE(detector.contains(7));
  (void)detector.poll_events();

  // The flow stops; within ~W + |set| packets it must be evicted.
  for (int i = 0; i < 25000; ++i) detector.update(1000 + rng.bounded(50000));
  const auto events = detector.poll_events();
  ASSERT_FALSE(events.empty());
  const auto left = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.key == 7u && e.kind == change_kind::left;
  });
  ASSERT_NE(left, events.end());
  EXPECT_FALSE(detector.contains(7));
  EXPECT_EQ(detector.set_size(), 0u);
}

TEST(ChangeDetector, HysteresisSuppressesFlapping) {
  // A flow hovering between the low and high water marks must not generate
  // enter/leave churn: with high=6%, low=2% and the flow pinned at ~4%,
  // once entered it stays.
  hh_change_detector<> detector(memento_config{20000, 512, 1.0, 1}, thresholds(0.06, 0.02));
  xoshiro256 rng(7);
  // Ramp the flow to ~8% so it enters.
  for (int i = 0; i < 30000; ++i) {
    detector.update(rng.uniform01() < 0.08 ? 7u : 1000 + rng.bounded(50000));
  }
  (void)detector.poll_events();
  ASSERT_TRUE(detector.contains(7));
  // Hover at 4% (between the marks) for several windows.
  std::size_t transitions = 0;
  for (int i = 0; i < 100000; ++i) {
    detector.update(rng.uniform01() < 0.04 ? 7u : 1000 + rng.bounded(50000));
  }
  for (const auto& e : detector.poll_events()) transitions += e.key == 7u;
  EXPECT_EQ(transitions, 0u) << "flow flapped despite hysteresis";
  EXPECT_TRUE(detector.contains(7));
}

TEST(ChangeDetector, EventTimestampsAreMonotone) {
  hh_change_detector<> detector(memento_config{5000, 128, 1.0, 1}, thresholds(0.05, 0.03));
  xoshiro256 rng(11);
  for (int phase = 0; phase < 4; ++phase) {
    const std::uint64_t hot = 100 + static_cast<std::uint64_t>(phase);
    for (int i = 0; i < 15000; ++i) {
      detector.update(rng.uniform01() < 0.3 ? hot : 1000 + rng.bounded(30000));
    }
  }
  std::uint64_t last = 0;
  for (const auto& e : detector.poll_events()) {
    EXPECT_GE(e.at_packet, last);
    last = e.at_packet;
    EXPECT_GT(e.estimate, 0.0);
  }
}

TEST(ChangeDetector, WorksUnderSampling) {
  hh_change_detector<> detector(memento_config{20000, 512, 1.0 / 16, 1},
                                thresholds(0.08, 0.04));
  xoshiro256 rng(13);
  for (int i = 0; i < 120000; ++i) {
    detector.update(rng.uniform01() < 0.25 ? 7u : 1000 + rng.bounded(50000));
  }
  EXPECT_TRUE(detector.contains(7)) << "sampled detector missed a 25% flow";
}

TEST(ChangeDetector, CurrentSetMatchesContains) {
  hh_change_detector<> detector(memento_config{10000, 256, 1.0, 1}, thresholds(0.05, 0.03));
  xoshiro256 rng(17);
  for (int i = 0; i < 40000; ++i) {
    const double dice = rng.uniform01();
    std::uint64_t key;
    if (dice < 0.15) {
      key = 1;
    } else if (dice < 0.30) {
      key = 2;
    } else {
      key = 1000 + rng.bounded(50000);
    }
    detector.update(key);
  }
  const auto set = detector.current_set();
  EXPECT_EQ(set.size(), detector.set_size());
  for (const auto& key : set) EXPECT_TRUE(detector.contains(key));
  EXPECT_TRUE(std::find(set.begin(), set.end(), 1u) != set.end());
  EXPECT_TRUE(std::find(set.begin(), set.end(), 2u) != set.end());
}

}  // namespace
}  // namespace memento
