// Unit tests for the util layer: PRNG, samplers, and the normal quantile.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/normal.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"

namespace memento {
namespace {

TEST(Xoshiro, DeterministicGivenSeed) {
  xoshiro256 a(123);
  xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  xoshiro256 a(1);
  xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a() == b();
  EXPECT_LT(equal, 5);
}

TEST(Xoshiro, Uniform01InRange) {
  xoshiro256 rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Xoshiro, Uniform01MeanNearHalf) {
  xoshiro256 rng(11);
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Xoshiro, BoundedStaysInBound) {
  xoshiro256 rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.bounded(bound), bound);
  }
}

TEST(Xoshiro, BoundedCoversAllValues) {
  xoshiro256 rng(5);
  bool seen[10] = {};
  for (int i = 0; i < 10000; ++i) seen[rng.bounded(10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Splitmix, KnownNonZeroAndDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  const auto a = splitmix64_next(s1);
  const auto b = splitmix64_next(s2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(s1, s2);
}

// --- random_table_sampler --------------------------------------------------

class RandomTableRate : public ::testing::TestWithParam<double> {};

TEST_P(RandomTableRate, EmpiricalRateMatchesTau) {
  const double tau = GetParam();
  random_table_sampler sampler(tau, 1u << 16, 9);
  constexpr int n = 400000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += sampler.sample();
  const double rate = static_cast<double>(hits) / n;
  // 5-sigma binomial tolerance (the table recycles, so allow extra slack).
  const double sigma = std::sqrt(tau * (1.0 - tau) / n);
  EXPECT_NEAR(rate, tau, 5.0 * sigma + 0.002) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(TauSweep, RandomTableRate,
                         ::testing::Values(1.0, 0.5, 0.25, 1.0 / 16, 1.0 / 64, 1.0 / 256,
                                           1.0 / 1024));

TEST(RandomTableSampler, TauOneAlwaysSamples) {
  random_table_sampler sampler(1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(sampler.sample());
}

TEST(RandomTableSampler, TauZeroNeverSamples) {
  random_table_sampler sampler(0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(sampler.sample());
}

TEST(RandomTableSampler, SetProbabilityRetargets) {
  random_table_sampler sampler(0.0, 1024, 2);
  sampler.set_probability(1.0);
  EXPECT_TRUE(sampler.sample());
  sampler.set_probability(0.0);
  EXPECT_FALSE(sampler.sample());
}

TEST(RandomTableSampler, TinyTableStillWorks) {
  random_table_sampler sampler(0.5, 1, 3);
  // Only one table entry: decisions are constant, but must not crash/UB.
  const bool first = sampler.sample();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(), first);
}

// Reference sampler for the decision stream: the plain raw-draw table
// (every draw stored, one comparison per decision) that
// random_table_sampler's sampled-position list must reproduce exactly.
class raw_table_oracle {
 public:
  raw_table_oracle(double tau, std::size_t table_size, std::uint64_t seed) {
    xoshiro256 rng(seed);
    table_.resize(table_size > 0 ? table_size : 1);
    for (auto& draw : table_) draw = rng();
    set_probability(tau);
  }

  void set_probability(double tau) {
    always_ = tau >= 1.0;
    threshold_ = tau >= 1.0   ? std::numeric_limits<std::uint64_t>::max()
                 : tau <= 0.0 ? 0
                              : static_cast<std::uint64_t>(
                                    tau * static_cast<double>(
                                              std::numeric_limits<std::uint64_t>::max()));
  }

  bool sample() {
    if (always_) return true;
    const std::uint64_t draw = table_[cursor_];
    cursor_ = cursor_ + 1 == table_.size() ? 0 : cursor_ + 1;
    return draw < threshold_;
  }

  void fill(bool* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = sample();
  }

  [[nodiscard]] std::size_t cursor() const { return cursor_; }
  bool set_cursor(std::size_t c) {
    if (c >= table_.size()) return false;
    cursor_ = c;
    return true;
  }

 private:
  std::vector<std::uint64_t> table_;
  std::size_t cursor_ = 0;
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

// sample(), fill() and take() must replay the raw table's decision stream
// exactly - across table wraps, cursor restores and re-targets - with the
// cursor agreeing after every call: every sketch's save() bytes (which
// carry the cursor) and sampled sequence depend on it.
TEST(RandomTableSampler, MatchesRawTableOracleStream) {
  const double taus[] = {0.0, 1e-4, 1.0 / 64, 0.25, 0.999, 1.0};
  const std::size_t sizes[] = {1, 7, std::size_t{1} << 16};
  xoshiro256 rng(0xfeed);
  bool expect[700];
  bool got[700];
  std::uint32_t idx[700];
  for (const double tau : taus) {
    for (const std::size_t size : sizes) {
      for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t seed = rng();
        raw_table_oracle oracle(tau, size, seed);
        random_table_sampler sampler(tau, size, seed);
        ASSERT_EQ(sampler.table_size(), size);
        for (int op = 0; op < 400; ++op) {
          SCOPED_TRACE(::testing::Message() << "tau=" << tau << " size=" << size
                                            << " seed=" << seed << " op=" << op);
          const std::uint64_t pick = rng() % 16;
          const std::size_t n = static_cast<std::size_t>(rng() % 700);
          if (pick < 4) {
            ASSERT_EQ(sampler.sample(), oracle.sample());
          } else if (pick < 8) {
            oracle.fill(expect, n);
            sampler.fill(got, n);
            for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], expect[i]) << "i=" << i;
          } else if (pick < 12) {
            oracle.fill(expect, n);
            const std::size_t sampled = sampler.take(idx, n);
            std::size_t t = 0;
            for (std::size_t i = 0; i < n; ++i) {
              if (!expect[i]) continue;
              ASSERT_LT(t, sampled);
              ASSERT_EQ(idx[t], i);
              ++t;
            }
            ASSERT_EQ(t, sampled);
          } else if (pick < 15) {
            // Restore points near the table edge exercise the wrap.
            const std::size_t c = (pick == 14 ? size - 1 - rng() % std::min<std::size_t>(size, 600)
                                              : rng() % size);
            ASSERT_TRUE(sampler.set_cursor(c));
            ASSERT_TRUE(oracle.set_cursor(c));
            ASSERT_FALSE(sampler.set_cursor(size));
          } else {
            const double retarget = taus[rng() % std::size(taus)];
            sampler.set_probability(retarget);
            oracle.set_probability(retarget);
          }
          ASSERT_EQ(sampler.cursor(), oracle.cursor());
        }
      }
    }
  }
}

TEST(RandomTableSampler, RejectsTablesBeyond32BitPositions) {
  // Positions (and the table_size sentinel) are stored as 32-bit offsets.
  EXPECT_THROW(random_table_sampler(0.5, std::size_t{1} << 32, 1), std::invalid_argument);
}

// --- geometric_sampler ------------------------------------------------------

class GeometricRate : public ::testing::TestWithParam<double> {};

TEST_P(GeometricRate, EmpiricalRateMatchesTau) {
  const double tau = GetParam();
  geometric_sampler sampler(tau, 13);
  constexpr int n = 400000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += sampler.sample();
  const double rate = static_cast<double>(hits) / n;
  const double sigma = std::sqrt(tau * (1.0 - tau) / n);
  EXPECT_NEAR(rate, tau, 5.0 * sigma + 0.002) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(TauSweep, GeometricRate,
                         ::testing::Values(1.0, 0.5, 0.125, 1.0 / 64, 1.0 / 512));

TEST(GeometricSampler, EdgeProbabilities) {
  geometric_sampler always(1.0);
  geometric_sampler never(0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(always.sample());
    EXPECT_FALSE(never.sample());
  }
}

// --- normal distribution ----------------------------------------------------

TEST(Normal, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-10);
}

TEST(Normal, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(0.8413447460685429), 1.0, 1e-8);
  // The Section 5.2 example: Z_{1 - delta/2} for delta = 0.01%.
  EXPECT_NEAR(normal_quantile(0.99995), 3.8906, 5e-4);
}

TEST(Normal, QuantileCdfRoundTrip) {
  for (double p = 0.0005; p < 1.0; p += 0.0101) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(Normal, QuantileSymmetry) {
  for (double p : {0.01, 0.1, 0.3, 0.45}) {
    EXPECT_NEAR(normal_quantile(p), -normal_quantile(1.0 - p), 1e-9);
  }
}

TEST(Normal, PaperZBoundHolds) {
  // Section 5.1 states "Z_{1-delta/4} satisfies Z < 4 for any delta > 1e-6";
  // the exact quantile at delta = 1e-6 is 5.03, so the paper's "4" is an
  // engineering approximation. We pin the true values: finite and < 5.1 at
  // the stated extreme, monotone decreasing in delta, and genuinely < 4
  // for every delta >= 1e-3 (the range all experiments use).
  EXPECT_LT(z_value(1.0 - 1e-6 / 4.0), 5.1);
  double previous = z_value(1.0 - 1e-6 / 4.0);
  for (double delta : {1e-5, 1e-4, 1e-3, 1e-2}) {
    const double z = z_value(1.0 - delta / 4.0);
    EXPECT_LT(z, previous) << "delta=" << delta;
    previous = z;
  }
  for (double delta : {1e-3, 1e-2, 1e-1}) {
    EXPECT_LT(z_value(1.0 - delta / 4.0), 4.0) << "delta=" << delta;
  }
}

TEST(Normal, OutOfDomainReturnsInfinities) {
  EXPECT_EQ(normal_quantile(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(normal_quantile(1.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(normal_quantile(-0.1), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(normal_quantile(1.1), std::numeric_limits<double>::infinity());
}

TEST(Stopwatch, MeasuresForwardTime) {
  stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

TEST(Stopwatch, MopsGuardsZeroTime) {
  EXPECT_EQ(mops(1000, 0.0), 0.0);
  EXPECT_NEAR(mops(2'000'000, 1.0), 2.0, 1e-12);
}

}  // namespace
}  // namespace memento
