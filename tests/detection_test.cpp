// Tests for the Section 3 / Fig. 1b detection-time model: closed forms,
// ordering properties, and agreement between model and simulation.
#include <gtest/gtest.h>

#include <string>

#include "core/detection_model.hpp"

namespace memento::detection {
namespace {

TEST(DetectionModel, RejectsRatioBelowOne) {
  EXPECT_THROW((void)expected_delays(0.5), std::invalid_argument);
  EXPECT_THROW((void)simulate_delays(0.9, 0.01, 1000, 10), std::invalid_argument);
  EXPECT_THROW((void)simulate_delays(2.0, 0.6, 1000, 10), std::invalid_argument);
}

TEST(DetectionModel, PaperAnchorsAtRatioTwo) {
  // "when the frequency is twice the threshold, it takes a window algorithm
  // half a window to detect the new heavy hitter whereas interval-based
  // algorithms require between 0.6-1.0 windows."
  const auto d = expected_delays(2.0);
  EXPECT_DOUBLE_EQ(d.window, 0.5);
  EXPECT_GE(d.improved_interval, 0.6);
  EXPECT_LE(d.interval, 1.0);
  EXPECT_DOUBLE_EQ(d.interval, 1.0);
  EXPECT_NEAR(d.improved_interval, 0.625, 1e-12);
}

TEST(DetectionModel, WindowIsAlwaysFastest) {
  for (double r = 1.0; r <= 5.0; r += 0.25) {
    const auto d = expected_delays(r);
    EXPECT_LE(d.window, d.improved_interval) << "r=" << r;
    EXPECT_LE(d.window, d.interval) << "r=" << r;
  }
}

TEST(DetectionModel, IntervalIsSlowest) {
  for (double r = 1.05; r <= 5.0; r += 0.5) {
    const auto d = expected_delays(r);
    EXPECT_LE(d.improved_interval, d.interval + 1e-12) << "r=" << r;
  }
}

TEST(DetectionModel, NearThresholdGapApproaches40Percent) {
  // "When the frequency is close to the detection threshold, we get up to
  // 40% faster detection time compared to the Interval method."
  const auto d = expected_delays(1.05);
  const double speedup = 1.0 - d.window / d.interval;
  EXPECT_GT(speedup, 0.30);
  EXPECT_LT(speedup, 0.45);
}

TEST(DetectionModel, LargeRatioStillOverFivePercentQuicker) {
  // "At the end of the tested range, sliding windows are still over 5%
  // quicker" (vs. the improved interval).
  const auto d = expected_delays(3.0);
  EXPECT_GT(1.0 - d.window / d.improved_interval, 0.05);
}

TEST(DetectionModel, DelaysShrinkWithRatio) {
  const auto slow = expected_delays(1.2);
  const auto fast = expected_delays(3.0);
  EXPECT_LT(fast.window, slow.window);
  EXPECT_LT(fast.improved_interval, slow.improved_interval);
  EXPECT_LT(fast.interval, slow.interval);
}

class DetectionSimulation : public ::testing::TestWithParam<double> {};

TEST_P(DetectionSimulation, SimulationTracksClosedForm) {
  const double ratio = GetParam();
  const auto model = expected_delays(ratio);
  const auto sim = simulate_delays(ratio, 0.02, 4000, 300, /*seed=*/101);
  // Monte-Carlo + binomial arrival noise: generous but shape-preserving
  // tolerances (absolute, in windows).
  EXPECT_NEAR(sim.window, model.window, 0.08) << "ratio=" << ratio;
  EXPECT_NEAR(sim.improved_interval, model.improved_interval, 0.10) << "ratio=" << ratio;
  EXPECT_NEAR(sim.interval, model.interval, 0.12) << "ratio=" << ratio;
}

INSTANTIATE_TEST_SUITE_P(RatioSweep, DetectionSimulation,
                         ::testing::Values(1.25, 1.5, 2.0, 3.0),
                         [](const auto& info) {
                           std::string name = "r";
                           return name.append(std::to_string(static_cast<int>(info.param * 100)));
                         });

TEST(DetectionSimulation, OrderingPreservedEmpirically) {
  const auto sim = simulate_delays(2.0, 0.02, 4000, 300, /*seed=*/7);
  EXPECT_LT(sim.window, sim.improved_interval);
  EXPECT_LT(sim.improved_interval, sim.interval);
}

}  // namespace
}  // namespace memento::detection
