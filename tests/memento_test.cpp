// Tests for Memento (Algorithm 1) - the paper's core single-device HH
// algorithm - and its tau = 1 degeneration WCSS.
//
// The load-bearing properties:
//   * one-sided error: query never undercounts the true window frequency;
//   * bounded overcount at tau = 1: query - truth <= estimate_width = 4W/k
//     (the WCSS guarantee, epsilon_a * W for k = 4 / epsilon_a);
//   * window semantics: flows that left the window decay to the floor;
//   * heavy-hitter recall: every true window heavy hitter is reported;
//   * de-amortization: block queues provably drain (forced_drains == 0);
//   * sampling: estimates stay near the truth for tau well above the
//     Theorem 5.2 bound, across traces and counter budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/memento.hpp"
#include "core/wcss.hpp"
#include "sketch/exact_window.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"

namespace memento {
namespace {

TEST(MementoConfig, Validation) {
  EXPECT_THROW(memento_sketch<>(memento_config{0, 8, 1.0, 1}), std::invalid_argument);
  EXPECT_THROW(memento_sketch<>(memento_config{100, 0, 1.0, 1}), std::invalid_argument);
  EXPECT_THROW(memento_sketch<>(memento_config{100, 8, 0.0, 1}), std::invalid_argument);
  EXPECT_THROW(memento_sketch<>(memento_config{100, 8, 1.5, 1}), std::invalid_argument);
  EXPECT_NO_THROW(memento_sketch<>(memento_config{100, 8, 1.0, 1}));
}

TEST(MementoConfig, FromEpsilonMatchesPaperFormula) {
  // k = ceil(4 / epsilon): epsilon = 0.001 -> 4000 counters (Appendix A:
  // "WCSS requires 4,000 counters for epsilon_a = 0.001").
  const auto c = memento_config::from_epsilon(1'000'000, 0.001);
  EXPECT_EQ(c.counters, 4000u);
  EXPECT_EQ(memento_config::from_epsilon(100, 0.5).counters, 8u);
}

TEST(MementoConfig, WindowRoundsUpToBlockMultiple) {
  memento_sketch<> m(1000, 300, 1.0);
  EXPECT_GE(m.window_size(), 1000u);
  EXPECT_EQ(m.window_size() % m.counters(), 0u);
  EXPECT_EQ(m.window_size(), m.block_length() * m.counters());
}

TEST(MementoConfig, ThresholdScalesWithTau) {
  // tau = 1: threshold = block length (the printed Algorithm 1).
  memento_sketch<> full(1024, 16, 1.0);
  EXPECT_EQ(full.overflow_threshold(), full.block_length());
  // tau = 1/4: threshold in sampled units is a quarter of the block.
  memento_sketch<> sampled(1024, 16, 0.25);
  EXPECT_EQ(sampled.overflow_threshold(), sampled.block_length() / 4);
  // Tiny tau: threshold floors at 1.
  memento_sketch<> tiny(1024, 512, 1.0 / 1024);
  EXPECT_EQ(tiny.overflow_threshold(), 1u);
}

TEST(Wcss, AliasIsMementoAtTauOne) {
  auto w = make_wcss<std::uint64_t>(4096, 64);
  EXPECT_DOUBLE_EQ(w.tau(), 1.0);
  static_assert(std::is_same_v<wcss<std::uint64_t>, memento_sketch<std::uint64_t>>);
}

TEST(Wcss, SingleFlowSaturatesToWindow) {
  auto w = make_wcss<std::uint64_t>(1000, 10);
  for (int i = 0; i < 5000; ++i) w.update(7);
  const double est = w.query(7);
  EXPECT_GE(est, static_cast<double>(w.window_size()));
  EXPECT_LE(est, static_cast<double>(w.window_size()) + w.estimate_width());
}

TEST(Wcss, DepartedFlowDecaysToFloor) {
  auto w = make_wcss<std::uint64_t>(1000, 10);
  for (int i = 0; i < 2000; ++i) w.update(7);
  // Push the flow fully out of the window (plus the 2-block slack).
  for (std::uint64_t i = 0; i < w.window_size() + 3 * w.block_length(); ++i) w.update(i + 100);
  // All that may remain is estimate slack, never a real count.
  EXPECT_LE(w.query(7), w.estimate_width() + static_cast<double>(w.block_length()));
}

TEST(Wcss, StreamLengthAdvancesOncePerUpdate) {
  auto w = make_wcss<std::uint64_t>(100, 4);
  for (int i = 0; i < 250; ++i) w.update(i % 3);
  EXPECT_EQ(w.stream_length(), 250u);
}

TEST(Wcss, QueryLowerNeverExceedsUpper) {
  auto w = make_wcss<std::uint64_t>(1024, 16);
  xoshiro256 rng(4);
  for (int i = 0; i < 5000; ++i) w.update(rng.bounded(100));
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_LE(w.query_lower(k), w.query(k));
    EXPECT_GE(w.query_lower(k), 0.0);
  }
}

// --- one-sided error property (tau = 1, WCSS guarantee) -----------------------

struct wcss_param {
  std::size_t counters;
  trace_kind kind;
};

class WcssAccuracy : public ::testing::TestWithParam<wcss_param> {};

TEST_P(WcssAccuracy, OneSidedErrorWithinEpsilonW) {
  const auto param = GetParam();
  constexpr std::uint64_t window = 20000;
  auto w = make_wcss<std::uint64_t>(window, param.counters);
  exact_window<std::uint64_t> exact(w.window_size());

  auto trace = make_trace(param.kind, 120000, /*seed=*/7);
  std::size_t checks = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto key = flow_id(trace[i]);
    w.update(key);
    exact.add(key);
    if (i % 97 == 0 && i > window) {
      // On-arrival check of the arriving flow (the paper's error model).
      const double est = w.query(key);
      const double truth = static_cast<double>(exact.query(key));
      ASSERT_GE(est, truth) << "undercount at packet " << i;
      ASSERT_LE(est - truth, w.estimate_width() + 1.0) << "overcount beyond 4W/k at " << i;
      ++checks;
    }
  }
  EXPECT_GT(checks, 500u);
  EXPECT_EQ(w.forced_drains(), 0u) << "de-amortized drain invariant violated";
}

INSTANTIATE_TEST_SUITE_P(
    CountersAndTraces, WcssAccuracy,
    ::testing::Values(wcss_param{64, trace_kind::backbone}, wcss_param{64, trace_kind::datacenter},
                      wcss_param{512, trace_kind::backbone}, wcss_param{512, trace_kind::edge},
                      wcss_param{256, trace_kind::datacenter}),
    [](const auto& info) {
      return std::string(trace_name(info.param.kind)) + "_k" +
             std::to_string(info.param.counters);
    });

// --- sampled accuracy property -------------------------------------------------

struct memento_param {
  std::size_t counters;
  double tau;
  trace_kind kind;
};

class MementoSampledAccuracy : public ::testing::TestWithParam<memento_param> {};

TEST_P(MementoSampledAccuracy, ErrorWithinTheoreticalEnvelope) {
  const auto param = GetParam();
  constexpr std::uint64_t window = 50000;
  memento_sketch<std::uint64_t> m(window, param.counters, param.tau, /*seed=*/11);
  exact_window<std::uint64_t> exact(m.window_size());

  auto trace = make_trace(param.kind, 200000, /*seed=*/3);
  // Theorem 5.2 envelope: eps_a * W (algorithm) + eps_s * W (sampling) where
  // eps_s = sqrt(Z / (W tau)), Z approx 4 at high confidence. Checked per
  // query with a 2x engineering margin (the bound is probabilistic).
  const double eps_a_w = m.estimate_width();
  const double eps_s_w =
      std::sqrt(4.0 / (static_cast<double>(m.window_size()) * param.tau)) *
      static_cast<double>(m.window_size());
  const double envelope = eps_a_w + 2.0 * eps_s_w;

  std::size_t checks = 0;
  std::size_t violations = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto key = flow_id(trace[i]);
    m.update(key);
    exact.add(key);
    if (i % 101 == 0 && i > window) {
      const double err = std::abs(m.query(key) - static_cast<double>(exact.query(key)));
      violations += err > envelope;
      ++checks;
    }
  }
  EXPECT_GT(checks, 1000u);
  // Allow a small violation rate (delta): the guarantee is per-query
  // probabilistic, not worst-case.
  EXPECT_LE(static_cast<double>(violations) / static_cast<double>(checks), 0.02)
      << "violations=" << violations << "/" << checks;
  EXPECT_EQ(m.forced_drains(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TauSweep, MementoSampledAccuracy,
    ::testing::Values(memento_param{512, 0.5, trace_kind::backbone},
                      memento_param{512, 0.25, trace_kind::backbone},
                      memento_param{512, 1.0 / 16, trace_kind::backbone},
                      memento_param{512, 1.0 / 64, trace_kind::datacenter},
                      memento_param{4096, 1.0 / 64, trace_kind::backbone},
                      memento_param{64, 1.0 / 16, trace_kind::edge}),
    [](const auto& info) {
      return std::string(trace_name(info.param.kind)) + "_k" +
             std::to_string(info.param.counters) + "_invtau" +
             std::to_string(static_cast<int>(1.0 / info.param.tau));
    });

// --- heavy hitter recall --------------------------------------------------------

TEST(MementoHeavyHitters, PerfectRecallAtTauOne) {
  constexpr std::uint64_t window = 10000;
  constexpr double theta = 0.05;
  auto m = make_wcss<std::uint64_t>(window, 256);
  exact_window<std::uint64_t> exact(m.window_size());
  xoshiro256 rng(9);
  // 5 planted heavy hitters at ~8% each + tail.
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t key;
    if (rng.uniform01() < 0.4) {
      key = rng.bounded(5);
    } else {
      key = 100 + rng.bounded(20000);
    }
    m.update(key);
    exact.add(key);
  }
  std::unordered_set<std::uint64_t> reported;
  for (const auto& hh : m.heavy_hitters(theta)) reported.insert(hh.key);
  const auto bar = static_cast<std::uint64_t>(theta * static_cast<double>(m.window_size()));
  exact.for_each([&](std::uint64_t key, std::uint64_t count) {
    if (count >= bar) {
      EXPECT_TRUE(reported.count(key)) << "missed true heavy hitter " << key;
    }
  });
  // And no wild false positives: reported flows must at least reach the
  // threshold minus the estimate width.
  for (const auto& hh : m.heavy_hitters(theta)) {
    EXPECT_GE(static_cast<double>(exact.query(hh.key)),
              theta * static_cast<double>(m.window_size()) - m.estimate_width() - 1.0);
  }
}

TEST(MementoHeavyHitters, SortedByEstimateDescending) {
  auto m = make_wcss<std::uint64_t>(1000, 32);
  xoshiro256 rng(2);
  for (int i = 0; i < 5000; ++i) m.update(rng.bounded(8));
  const auto hits = m.heavy_hitters(0.01);
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].estimate, hits[i].estimate);
  }
}

TEST(MementoHeavyHitters, RecallUnderSampling) {
  constexpr std::uint64_t window = 50000;
  memento_sketch<std::uint64_t> m(window, 512, 1.0 / 16, /*seed=*/21);
  exact_window<std::uint64_t> exact(m.window_size());
  xoshiro256 rng(31);
  for (int i = 0; i < 150000; ++i) {
    const std::uint64_t key = rng.uniform01() < 0.5 ? rng.bounded(4) : 50 + rng.bounded(30000);
    m.update(key);
    exact.add(key);
  }
  // The four planted flows hold ~12.5% each; at theta = 5% all must appear.
  std::unordered_set<std::uint64_t> reported;
  for (const auto& hh : m.heavy_hitters(0.05)) reported.insert(hh.key);
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_TRUE(reported.count(k)) << "flow " << k;
}

// --- window mechanics -----------------------------------------------------------

TEST(MementoWindow, MonitoredKeysContainRecentHeavies) {
  auto m = make_wcss<std::uint64_t>(1000, 16);
  for (int i = 0; i < 800; ++i) m.update(1);
  const auto keys = m.monitored_keys();
  EXPECT_TRUE(std::find(keys.begin(), keys.end(), 1u) != keys.end());
}

TEST(MementoWindow, OverflowEntriesBounded) {
  // |B| is bounded by the number of overflow events in k+1 blocks, which is
  // at most (k+1) * (block/threshold) entries; with tau = 1 that is k+1
  // blocks x k overflows... in practice far less. Sanity: it must not grow
  // with the stream.
  auto m = make_wcss<std::uint64_t>(4096, 64);
  xoshiro256 rng(13);
  std::size_t peak = 0;
  for (int i = 0; i < 100000; ++i) {
    m.update(rng.bounded(1000));
    peak = std::max(peak, m.overflow_entries());
  }
  EXPECT_LE(peak, 64u * 66u);
  EXPECT_EQ(m.forced_drains(), 0u);
}

TEST(MementoWindow, EvictStormStaysWithinTheSizedOverflowBound) {
  // All-distinct keys: every add evicts, every counter ramps up together,
  // and each frame ends with ~k overflows of k distinct keys - the
  // worst case for the table B. The constructor sizes B for the stated
  // live-entry bound (2k: the events of the two frames the k+1 blocks
  // span), so the storm must stay within it and never grow the table.
  constexpr std::size_t k = 64;
  for (const double tau : {1.0, 1.0 / 64}) {
    SCOPED_TRACE(testing::Message() << "tau " << tau);
    memento_sketch<std::uint64_t> m(k * 512, k, tau, 3);  // T = 512 * tau: 512 and 8
    const std::size_t capacity = m.overflow_table_stats().capacity;
    std::vector<std::uint64_t> burst(4096);
    std::uint64_t next = 0;
    std::size_t peak = 0;
    for (std::uint64_t fed = 0; fed < 8 * m.window_size(); fed += burst.size()) {
      for (auto& x : burst) x = ++next;
      m.update_batch(burst.data(), burst.size());
      peak = std::max(peak, m.overflow_entries());
      ASSERT_EQ(m.overflow_table_stats().capacity, capacity) << "the overflow table grew";
    }
    EXPECT_GE(peak, k / 2) << "the storm should fill B to near a frame's k events";
    EXPECT_LE(peak, 2 * k);
    EXPECT_EQ(m.forced_drains(), 0u);
  }
}

TEST(MementoWindow, OverflowPeakMatchesPerBlockAppendOracle) {
  // block_overflow_peak() is the max append count over the completed
  // blocks still in the window, less the oldest one being retired: the
  // last k - 1 completed blocks. The oracle records each block's appends
  // as it closes (a block boundary fires at the start of every
  // block_length()-th update, before that packet's own append).
  for (const std::size_t k : {std::size_t{2}, std::size_t{8}, std::size_t{33}}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    memento_sketch<std::uint64_t> m(k * 60, k, 1.0, 5);
    xoshiro256 rng(k);
    std::deque<std::uint64_t> completed;
    for (int i = 0; i < 20000; ++i) {
      // Alternate quiet stretches over many keys with bursts on a few, so
      // block append counts swing and the peak has to expire.
      const bool burst = (i / 700) % 3 == 0;
      const std::uint64_t open_appends = m.block_overflow_appends();
      m.update(burst ? rng.bounded(3) : rng.bounded(500));
      if (m.stream_length() % m.block_length() == 0) {
        completed.push_back(open_appends);
        if (completed.size() > k - 1) completed.pop_front();
      }
      const std::uint64_t oracle =
          completed.empty() ? 0 : *std::max_element(completed.begin(), completed.end());
      ASSERT_EQ(m.block_overflow_peak(), oracle) << "packet " << i;
    }
    // The peak is derived from the ring, so a restored sketch reports the
    // restored window's peak.
    const auto back = snapshot::restore<memento_sketch<std::uint64_t>>(snapshot::save(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->block_overflow_peak(), m.block_overflow_peak());
    EXPECT_EQ(back->block_overflow_appends(), m.block_overflow_appends());
  }
}

TEST(MementoWindow, FrameFlushDoesNotLoseWindowCounts) {
  // A flow active across a frame boundary must keep a near-window estimate
  // right after the flush (the overflow table carries the history).
  auto m = make_wcss<std::uint64_t>(1000, 10);
  const auto frame = m.window_size();
  for (std::uint64_t i = 0; i < frame - 1; ++i) m.update(7);
  const double before = m.query(7);
  m.update(7);  // crosses the frame boundary (flush)
  m.update(7);
  const double after = m.query(7);
  EXPECT_GE(after, before * 0.8) << "estimate collapsed across frame flush";
}

TEST(MementoWindow, DeterministicAcrossIdenticalRuns) {
  memento_sketch<std::uint64_t> a(5000, 128, 0.25, /*seed=*/5);
  memento_sketch<std::uint64_t> b(5000, 128, 0.25, /*seed=*/5);
  xoshiro256 rng(8);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t key = rng.bounded(300);
    a.update(key);
    b.update(key);
  }
  for (std::uint64_t k = 0; k < 300; ++k) ASSERT_DOUBLE_EQ(a.query(k), b.query(k));
}

TEST(MementoWindow, ExplicitFullAndWindowUpdatesCompose) {
  // The D-Memento controller path: full_update for samples, window_update
  // for the rest, must behave like the probabilistic path in expectation.
  memento_sketch<std::uint64_t> m(2000, 64, 0.5, /*seed=*/77);
  xoshiro256 rng(19);
  std::uint64_t fulls = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.uniform01() < 0.5) {
      m.full_update(42);
      ++fulls;
    } else {
      m.window_update();
    }
  }
  EXPECT_EQ(m.stream_length(), 10000u);
  // Flow 42 occupied every sampled slot of the final window: estimate ~ W.
  const double est = m.query(42);
  EXPECT_NEAR(est, static_cast<double>(m.window_size()), 0.15 * static_cast<double>(m.window_size()));
}

// --- the live-key visitor ------------------------------------------------------

/// A mid-frame sketch over keys [0, kLiveUniverse): some keys sit only in B,
/// some only in y, some in both, and the rest in neither.
constexpr std::uint64_t kLiveUniverse = 3000;

memento_sketch<std::uint64_t> live_key_sketch(double tau) {
  memento_sketch<std::uint64_t> m(1 << 14, 256, tau, /*seed=*/3);
  xoshiro256 rng(29);
  for (int i = 0; i < 70000; ++i) {
    const std::uint64_t key = rng.uniform01() < 0.6 ? rng.bounded(40) : rng.bounded(kLiveUniverse);
    m.update(key);
  }
  return m;
}

bool same_bits(double a, double b) { return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b); }

TEST(MementoLiveKeys, VisitorYieldsEveryLiveKeyOnceWithItsQuery) {
  for (const double tau : {1.0, 0.25, 1.0 / 64}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    const auto m = live_key_sketch(tau);
    std::vector<std::uint64_t> visited;
    std::unordered_set<std::uint64_t> seen;
    m.for_each_live_key([](double) { return true; }, [&](std::uint64_t key, double u) {
      EXPECT_TRUE(seen.insert(key).second) << "key " << key << " visited twice";
      EXPECT_TRUE(same_bits(u, m.query(key))) << "key " << key;
      visited.push_back(key);
    });
    EXPECT_EQ(visited, m.monitored_keys());
    // The live set found by probing each key, independent of the walk.
    std::size_t live = 0;
    std::size_t y_only = 0;
    for (std::uint64_t key = 0; key < kLiveUniverse; ++key) {
      const std::optional<double> u = m.query_if_live(key);
      EXPECT_EQ(u.has_value(), seen.count(key) == 1) << "key " << key;
      if (!u) continue;
      ++live;
      EXPECT_TRUE(same_bits(*u, m.query(key))) << "key " << key;
      y_only += *u < 1.5 * m.miss_baseline();  // below tau^-1 3T: no entry in B
    }
    EXPECT_EQ(live, visited.size());
    // At T = 1 every counted packet overflows, so every y key is in B.
    EXPECT_EQ(y_only > 0, m.overflow_threshold() > 1);
    EXPECT_EQ(live, m.overflow_entries() + y_only);
    EXPECT_LT(live, kLiveUniverse);  // and some keys have no live state
  }
}

TEST(MementoLiveKeys, CeilingSkipNeverDropsAReachingKey) {
  for (const double tau : {1.0, 0.25, 1.0 / 64}) {
    SCOPED_TRACE("tau=" + std::to_string(tau));
    const auto m = live_key_sketch(tau);
    std::vector<std::pair<std::uint64_t, double>> all;
    m.for_each_live_key([](double) { return true; },
                        [&](std::uint64_t key, double u) { all.emplace_back(key, u); });
    // Bars at every estimate, just above it, and on the tau^-1 T grid the
    // ceilings are made of, through an H-scaled test with a compensation
    // as in h_memento::output.
    const double step = m.estimate_width() / 4.0;
    std::vector<double> bars;
    for (const auto& [key, u] : all) {
      bars.push_back(u);
      bars.push_back(std::nextafter(u, 1e300));
    }
    for (double b = 0.0; b <= 2.0 * static_cast<double>(m.window_size()); b += step) bars.push_back(b);
    std::sort(bars.begin(), bars.end());
    bars.erase(std::unique(bars.begin(), bars.end()), bars.end());
    std::size_t skipped = 0;
    for (const double h : {1.0, 5.0, 25.0}) {
      for (const double comp : {0.0, -0.1, 1234.567}) {
        for (const double bar : bars) {
          const double threshold = h * bar + comp;
          const auto reaches = [&](double u) { return h * u + comp >= threshold; };
          std::unordered_map<std::uint64_t, double> got;
          m.for_each_live_key(reaches, [&](std::uint64_t key, double u) { got.emplace(key, u); });
          for (const auto& [key, u] : all) {
            if (!reaches(u)) continue;
            const auto it = got.find(key);
            ASSERT_NE(it, got.end()) << "dropped key " << key << " u=" << u << " bar=" << bar;
            ASSERT_TRUE(same_bits(it->second, u));
          }
          skipped += all.size() - got.size();
        }
      }
    }
    EXPECT_GT(skipped, 0u);
  }
}

}  // namespace
}  // namespace memento

namespace memento {
namespace {

TEST(MementoTopK, ReturnsLargestFlowsInOrder) {
  auto m = make_wcss<std::uint64_t>(10000, 256);
  xoshiro256 rng(41);
  // Planted flows with distinct rates: 0 > 1 > 2.
  for (int i = 0; i < 60000; ++i) {
    const double dice = rng.uniform01();
    std::uint64_t key;
    if (dice < 0.30) {
      key = 0;
    } else if (dice < 0.50) {
      key = 1;
    } else if (dice < 0.62) {
      key = 2;
    } else {
      key = 100 + rng.bounded(30000);
    }
    m.update(key);
  }
  const auto top = m.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 0u);
  EXPECT_EQ(top[1].key, 1u);
  EXPECT_EQ(top[2].key, 2u);
  EXPECT_GE(top[0].estimate, top[1].estimate);
  EXPECT_GE(top[1].estimate, top[2].estimate);
}

TEST(MementoTopK, KLargerThanCandidatesReturnsAll) {
  auto m = make_wcss<std::uint64_t>(1000, 16);
  for (int i = 0; i < 3000; ++i) m.update(i % 2);
  const auto top = m.top(100);
  EXPECT_LE(top.size(), 100u);
  EXPECT_GE(top.size(), 2u);
}

TEST(MementoTopK, EmptySketchYieldsEmpty) {
  auto m = make_wcss<std::uint64_t>(1000, 16);
  EXPECT_TRUE(m.top(5).empty());
}

}  // namespace
}  // namespace memento
