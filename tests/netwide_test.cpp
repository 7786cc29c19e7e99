// Tests for the network-wide layer: budget model, Theorem 5.5 optimizer,
// measurement points, controllers, and the four-method harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netwide/aggregation.hpp"
#include "netwide/batch_optimizer.hpp"
#include "netwide/controller.hpp"
#include "netwide/measurement_point.hpp"
#include "netwide/simulation.hpp"
#include "netwide/summary_channel.hpp"
#include "sketch/exact_hhh.hpp"
#include "snapshot/summary.hpp"
#include "trace/trace_generator.hpp"

namespace memento::netwide {
namespace {

// --- budget model ------------------------------------------------------------

TEST(BudgetModel, ReportBytes) {
  budget_model b{1.0, 64.0, 4.0};
  EXPECT_DOUBLE_EQ(b.report_bytes(1), 68.0);
  EXPECT_DOUBLE_EQ(b.report_bytes(44), 64.0 + 176.0);
}

TEST(BudgetModel, MaxTauFormula) {
  // tau = B b / (O + E b): Section 5.2.
  budget_model b{1.0, 64.0, 4.0};
  EXPECT_NEAR(b.max_tau(1), 1.0 / 68.0, 1e-12);
  EXPECT_NEAR(b.max_tau(44), 44.0 / 240.0, 1e-12);
  EXPECT_THROW((void)b.max_tau(0), std::invalid_argument);
}

TEST(BudgetModel, MaxTauClampsAtOne) {
  budget_model generous{100.0, 64.0, 4.0};
  EXPECT_DOUBLE_EQ(generous.max_tau(1000), 1.0);
}

TEST(BudgetModel, PacketsPerReportIsBOverBudget) {
  budget_model b{2.0, 64.0, 4.0};
  EXPECT_DOUBLE_EQ(b.packets_per_report(10), (64.0 + 40.0) / 2.0);
}

// --- Theorem 5.5 --------------------------------------------------------------

error_model paper_example_model() {
  // Section 5.2: TCP (O=64), m=10, source hierarchy (E=4, H=5), delta=0.01%,
  // W=1e6, B=1.
  error_model m;
  m.budget = budget_model{1.0, 64.0, 4.0};
  m.num_points = 10;
  m.hierarchy_size = 5.0;
  m.window = 1e6;
  m.delta = 1e-4;
  return m;
}

TEST(BatchOptimizer, ErrorDecomposesPerTheorem55) {
  const auto m = paper_example_model();
  const auto e = error_bound(m, 44);
  EXPECT_NEAR(e.delay, 10.0 * 240.0 / 1.0, 1e-9);
  EXPECT_NEAR(e.sampling, std::sqrt(5.0 * 1e6 * m.z() * 240.0 / 44.0), 1e-6);
}

TEST(BatchOptimizer, PaperExampleErrorNear13K) {
  // "the optimal batch size is b = 44. The resulting error guarantee is 13K
  // packets (i.e., an error of 1.3%)." Our optimum lands in the same flat
  // valley; both its error and E(44) are ~12.7K.
  const auto m = paper_example_model();
  const auto opt = optimal_batch(m);
  EXPECT_NEAR(opt.error.total(), 13000.0, 700.0);
  EXPECT_NEAR(error_bound(m, 44).total(), 13000.0, 700.0);
  EXPECT_GE(opt.batch_size, 30u);
  EXPECT_LE(opt.batch_size, 50u);
}

TEST(BatchOptimizer, PaperExampleAtB5) {
  // "Increasing the bandwidth budget to B = 5 bytes decreases the absolute
  // error to 5.3K packets" - we measure ~5.0K at our optimum.
  auto m = paper_example_model();
  m.budget.bytes_per_packet = 5.0;
  const auto opt = optimal_batch(m);
  EXPECT_NEAR(opt.error.total(), 5300.0, 400.0);
  EXPECT_GT(opt.batch_size, 44u) << "larger budget -> larger optimal batch";
}

TEST(BatchOptimizer, LargerWindowLowersRelativeError) {
  // "increasing the window size to 1e7 ... reducing the error to 0.15%":
  // the relative error must drop by roughly sqrt(10); batch size grows.
  auto m = paper_example_model();
  const auto small = optimal_batch(m);
  m.window = 1e7;
  const auto large = optimal_batch(m);
  EXPECT_LT(large.error.total() / 1e7, small.error.total() / 1e6);
  EXPECT_GT(large.batch_size, small.batch_size);
}

TEST(BatchOptimizer, TwoDimensionalHierarchyRaisesErrorAndBatch) {
  // "2D source/destination hierarchies result in a slightly larger error and
  // a higher optimal batch size." The H effect in isolation (sampling term
  // scales with sqrt(H)) raises both the error and the optimal batch size.
  auto m = paper_example_model();
  const auto oned = optimal_batch(m);
  m.hierarchy_size = 25.0;
  const auto twod = optimal_batch(m);
  EXPECT_GT(twod.error.total(), oned.error.total());
  EXPECT_GT(twod.batch_size, oned.batch_size);
  // Doubling the entry size (8-byte src/dst pairs) raises the error further
  // while pushing the optimum back down (entries got pricier).
  m.budget.entry_bytes = 8.0;
  const auto twod_wide = optimal_batch(m);
  EXPECT_GT(twod_wide.error.total(), twod.error.total());
}

TEST(BatchOptimizer, SampleIsBatchWithBOne) {
  const auto m = paper_example_model();
  EXPECT_DOUBLE_EQ(sample_error_bound(m).total(), error_bound(m, 1).total());
}

TEST(BatchOptimizer, BatchBeatsSampleAtTightBudgets) {
  // Fig. 4's core message: under the same budget, the optimal batch's
  // guarantee beats the Sample method's.
  for (double budget : {0.5, 1.0, 2.0, 5.0}) {
    auto m = paper_example_model();
    m.budget.bytes_per_packet = budget;
    EXPECT_LT(optimal_batch(m).error.total(), sample_error_bound(m).total())
        << "B=" << budget;
  }
}

TEST(BatchOptimizer, ErrorIsUnimodalAroundOptimum) {
  const auto m = paper_example_model();
  const auto opt = optimal_batch(m);
  for (std::size_t b = std::max<std::size_t>(2, opt.batch_size / 4); b < opt.batch_size;
       b *= 2) {
    EXPECT_GE(error_bound(m, b).total(), opt.error.total());
  }
  for (std::size_t b = opt.batch_size * 2; b < opt.batch_size * 32; b *= 2) {
    EXPECT_GE(error_bound(m, b).total(), opt.error.total());
  }
  EXPECT_THROW((void)error_bound(m, 0), std::invalid_argument);
}

// --- measurement point ---------------------------------------------------------

TEST(MeasurementPoint, Validation) {
  EXPECT_THROW(measurement_point(0, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(measurement_point(0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(measurement_point(0, 1.5, 4), std::invalid_argument);
}

TEST(MeasurementPoint, TauOneEmitsEveryBPackets) {
  measurement_point mp(3, 1.0, 4);
  int reports = 0;
  for (int i = 0; i < 40; ++i) {
    if (auto r = mp.observe(packet{static_cast<std::uint32_t>(i), 0})) {
      ++reports;
      EXPECT_EQ(r->origin, 3u);
      EXPECT_EQ(r->samples.size(), 4u);
      EXPECT_EQ(r->covered_packets, 4u);
    }
  }
  EXPECT_EQ(reports, 10);
  EXPECT_EQ(mp.reports_sent(), 10u);
  EXPECT_EQ(mp.observed_total(), 40u);
}

TEST(MeasurementPoint, CoveredPacketsAccountForUnsampled) {
  measurement_point mp(0, 0.25, 2, /*seed=*/5);
  std::uint64_t covered_sum = 0;
  std::uint64_t sampled_sum = 0;
  for (int i = 0; i < 100000; ++i) {
    if (auto r = mp.observe(packet{static_cast<std::uint32_t>(i), 0})) {
      covered_sum += r->covered_packets;
      sampled_sum += r->samples.size();
    }
  }
  if (auto r = mp.flush()) {
    covered_sum += r->covered_packets;
    sampled_sum += r->samples.size();
  }
  EXPECT_EQ(covered_sum, 100000u) << "every packet must be covered exactly once";
  EXPECT_NEAR(static_cast<double>(sampled_sum) / 100000.0, 0.25, 0.01);
}

TEST(MeasurementPoint, FlushEmitsPartialBatch) {
  measurement_point mp(0, 1.0, 10);
  for (int i = 0; i < 7; ++i) (void)mp.observe(packet{1, 1});
  auto r = mp.flush();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->samples.size(), 7u);
  EXPECT_EQ(r->covered_packets, 7u);
  EXPECT_FALSE(mp.flush().has_value()) << "second flush has nothing to say";
}

TEST(MeasurementPoint, ByteAccountingUsesReportSize) {
  budget_model budget{1.0, 64.0, 4.0};
  measurement_point mp(0, 1.0, 5);
  for (int i = 0; i < 50; ++i) (void)mp.observe(packet{2, 2});
  EXPECT_DOUBLE_EQ(mp.bytes_sent(budget), 10.0 * (64.0 + 20.0));
}

// --- controllers -----------------------------------------------------------------

TEST(DMementoController, MatchesSingleDeviceMemento) {
  // Feeding the controller reports must reproduce a local Memento fed the
  // identical full/window update sequence (the d-algorithms ARE the single
  // device algorithms behind a transport).
  constexpr std::uint64_t window = 4000;
  constexpr double tau = 0.5;
  d_memento_controller controller(window, 64, tau);
  memento_sketch<std::uint64_t> local(window, 64, tau, /*seed=*/1);

  measurement_point mp(0, tau, 8, /*seed=*/9);
  trace_generator gen(trace_kind::datacenter, 44);
  for (int i = 0; i < 20000; ++i) {
    const packet p = gen.next();
    if (auto r = mp.observe(p)) {
      controller.on_report(*r);
      for (const auto& s : r->samples) local.full_update(flow_id(s));
      const std::uint64_t unsampled = r->covered_packets - r->samples.size();
      for (std::uint64_t j = 0; j < unsampled; ++j) local.window_update();
    }
  }
  trace_generator replay(trace_kind::datacenter, 44);
  for (int i = 0; i < 1000; ++i) {
    const auto key = flow_id(replay.next());
    ASSERT_DOUBLE_EQ(controller.query(key), local.query(key));
  }
  EXPECT_GT(controller.reports_received(), 0u);
}

TEST(DHMementoController, TracksHotSubnetAcrossVantages) {
  constexpr std::uint64_t window = 20000;
  const double tau = 0.5;
  d_h_memento_controller<source_hierarchy> controller(window, 2000, tau);
  std::vector<measurement_point> points;
  for (std::uint32_t i = 0; i < 4; ++i) points.emplace_back(i, tau, 4, 100 + i);

  xoshiro256 rng(55);
  trace_generator gen(trace_kind::backbone, 66);
  std::uint64_t sent = 0;
  for (int i = 0; i < 60000; ++i) {
    packet p = rng.uniform01() < 0.3 ? packet{0x0A010101u, 7} : gen.next();
    // spread across vantages round-robin
    if (auto r = points[i % 4].observe(p)) {
      controller.on_report(*r);
      ++sent;
    }
  }
  EXPECT_GT(sent, 0u);
  const double est = controller.query(prefix1d::make_key(0x0A000000u, 3));
  EXPECT_NEAR(est, 0.3 * window, 0.15 * window);
}

// --- aggregation ------------------------------------------------------------------

TEST(Aggregation, SnapshotExpandsPrefixesExactly) {
  budget_model generous{1e9, 0.0, 0.0};  // effectively unconstrained
  aggregating_point<source_hierarchy> vantage(1, 1000, generous);
  std::optional<aggregation_report<source_hierarchy>> last;
  for (int i = 0; i < 10; ++i) {
    if (auto r = vantage.observe(packet{0x0A010101u, 0})) last = std::move(r);
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->prefix_counts.at(prefix1d::make_key(0x0A010101u, 0)), 10u);
  EXPECT_EQ(last->prefix_counts.at(prefix1d::make_key(0x0A000000u, 3)), 10u);
}

TEST(Aggregation, BudgetGatesSnapshotCadence) {
  budget_model tight{1.0, 64.0, 4.0};
  aggregating_point<source_hierarchy> vantage(0, 10000, tight);
  trace_generator gen(trace_kind::backbone, 5);
  std::uint64_t reports = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (vantage.observe(gen.next())) ++reports;
  }
  EXPECT_GT(reports, 0u);
  EXPECT_LE(vantage.bytes_sent() / n, 1.05) << "budget exceeded";
  // Large windows with many distinct flows => big messages => few reports.
  EXPECT_LT(reports, 100u);
}

TEST(Aggregation, ControllerMergesVantagesLosslessly) {
  ideal_aggregation_controller<source_hierarchy> controller;
  aggregation_report<source_hierarchy> a;
  a.origin = 0;
  a.prefix_counts[prefix1d::make_key(0x0A000000u, 3)] = 30;
  aggregation_report<source_hierarchy> b;
  b.origin = 1;
  b.prefix_counts[prefix1d::make_key(0x0A000000u, 3)] = 12;
  controller.on_report(std::move(a));
  controller.on_report(std::move(b));
  EXPECT_DOUBLE_EQ(controller.query(prefix1d::make_key(0x0A000000u, 3)), 42.0);
  EXPECT_EQ(controller.vantages_heard(), 2u);
  // Re-reporting replaces, not accumulates.
  aggregation_report<source_hierarchy> a2;
  a2.origin = 0;
  a2.prefix_counts[prefix1d::make_key(0x0A000000u, 3)] = 5;
  controller.on_report(std::move(a2));
  EXPECT_DOUBLE_EQ(controller.query(prefix1d::make_key(0x0A000000u, 3)), 17.0);
}

// --- the full harness ---------------------------------------------------------------

class HarnessBudget : public ::testing::TestWithParam<comm_method> {};

TEST_P(HarnessBudget, StaysWithinBytePerPacketBudget) {
  harness_config cfg;
  cfg.method = GetParam();
  cfg.num_points = 10;
  cfg.window = 50000;
  cfg.budget = budget_model{1.0, 64.0, 4.0};
  cfg.counters = 512;
  netwide_harness<source_hierarchy> harness(cfg);
  auto trace = make_trace(trace_kind::backbone, 120000, /*seed=*/12);
  for (const auto& p : trace) harness.ingest(p);
  EXPECT_LE(harness.bytes_per_packet(), 1.05) << method_name(GetParam());
  EXPECT_GT(harness.reports_sent(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, HarnessBudget,
                         ::testing::Values(comm_method::sample, comm_method::batch,
                                           comm_method::aggregation, comm_method::summary),
                         [](const auto& info) { return method_name(info.param); });

// --- the summary channel ------------------------------------------------------------

/// Every truncation, trailing byte, flip past the 21-byte origin/covered/
/// epoch/kind header, and unknown kind of an encoded report is rejected.
void expect_report_rejects_corruption(const std::vector<std::uint8_t>& payload) {
  ASSERT_GT(payload.size(), 21u);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(decode_summary_report<std::uint64_t>(
                     std::span<const std::uint8_t>(payload.data(), cut))
                     .has_value())
        << "accepted truncation at " << cut;
  }
  auto mutated = payload;
  mutated.push_back(0x00);
  EXPECT_FALSE(decode_summary_report<std::uint64_t>(mutated).has_value());
  mutated.pop_back();
  // Past the header the payload is one CRC'd section (WS or WD).
  for (std::size_t i = 21; i < mutated.size(); ++i) {
    mutated[i] ^= 0x01;
    EXPECT_FALSE(decode_summary_report<std::uint64_t>(mutated).has_value())
        << "accepted corruption at byte " << i;
    mutated[i] ^= 0x01;
  }
  // Unknown kind byte (offset 20: u32 origin + u64 covered + u64 epoch).
  mutated[20] = 2;
  EXPECT_FALSE(decode_summary_report<std::uint64_t>(mutated).has_value());
}

TEST(SummaryChannel, ReportCodecRoundTripsAndRejectsGarbage) {
  summary_config config;
  config.resync_every = 2;  // a full report, then a delta
  summary_point<source_hierarchy> point(7, 20000, 256, budget_model{4.0, 64.0, 4.0}, config, 3);
  trace_generator gen(trace_kind::backbone, 11);
  for (int i = 0; i < 200000 && point.reports_sent() < 2; ++i) {
    const auto payload = point.observe(gen.next());
    if (!payload) continue;
    const auto report = decode_summary_report<std::uint64_t>(*payload);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->origin, 7u);
    EXPECT_EQ(report->epoch, point.reports_sent());
    EXPECT_GT(report->covered_packets, 0u);
    // The vantage's own estimates survive the wire exactly.
    if (report->kind == summary_kind::full) {
      EXPECT_EQ(point.reports_sent(), 1u);
      EXPECT_FALSE(report->summary.empty());
      report->summary.for_each([&](const std::uint64_t& key, double est) {
        ASSERT_DOUBLE_EQ(est, point.algorithm().query(key));
      });
    } else {
      EXPECT_EQ(point.reports_sent(), 2u);
      EXPECT_FALSE(report->changed.empty() && report->removed.empty());
      for (const auto& [key, est] : report->changed) {
        ASSERT_DOUBLE_EQ(est, point.algorithm().query(key));
      }
    }
    expect_report_rejects_corruption(*payload);
  }
  ASSERT_EQ(point.full_reports(), 1u) << "vantage never accrued a summary";
  ASSERT_EQ(point.delta_reports(), 1u) << "vantage never shipped a delta";
}

TEST(SummaryChannel, BudgetGatesSummaryCadence) {
  const budget_model budget{1.0, 64.0, 4.0};
  summary_point<source_hierarchy> point(0, 10000, 128, budget, {}, 5);
  trace_generator gen(trace_kind::backbone, 13);
  for (int i = 0; i < 150000; ++i) (void)point.observe(gen.next());
  ASSERT_GT(point.reports_sent(), 0u);
  EXPECT_EQ(point.delta_reports(), 0u);  // resync_every = 1: every report is full
  // Byte accounting charges actual encoded sizes and must respect B; pricing
  // the gate from the encoded size leaves little of B unspent.
  const double spent = point.bytes_sent() / static_cast<double>(point.observed_total());
  EXPECT_LE(spent, budget.bytes_per_packet);
  EXPECT_GE(spent, 0.9 * budget.bytes_per_packet);
}

TEST(SummaryChannel, ControllerSumsVantagesOneSidedly) {
  summary_controller<source_hierarchy> controller;
  const std::uint64_t hot = prefix1d::make_key(0x0A000000u, 3);

  // Two vantages, each holding part of the /8's mass.
  for (std::uint32_t origin = 0; origin < 2; ++origin) {
    h_memento<source_hierarchy> local(10000, 256, 1.0, 1e-3, origin + 1);
    for (int i = 0; i < 20000; ++i) {
      local.update(packet{0x0A000000u | static_cast<std::uint32_t>(i % 999), 1});
    }
    summary_report<std::uint64_t> report;
    report.origin = origin;
    report.covered_packets = 20000;
    report.epoch = 1;
    report.summary = window_summary<std::uint64_t>::from_hhh(local);
    EXPECT_TRUE(controller.on_report(std::move(report)));
  }
  EXPECT_EQ(controller.vantages_heard(), 2u);
  EXPECT_EQ(controller.reports_received(), 2u);
  // Entry-sum sees both vantages' estimates; the /8 carried all traffic.
  EXPECT_GT(controller.query_point(hot), 10000.0);
  // One-sided query dominates the entry sum (miss bounds only add).
  EXPECT_GE(controller.query(hot), controller.query_point(hot));
  const auto hhh = controller.output(0.5, 20000);
  EXPECT_FALSE(hhh.empty());
}

/// Harness.SummaryMethodTracksAHotSubnet's deployment: m = 10, W = 30,000,
/// 2,000 controller counters, a /8 carrying ~40% of traffic.
netwide_harness<source_hierarchy> hot_subnet_summary_harness() {
  harness_config cfg;
  cfg.method = comm_method::summary;
  cfg.num_points = 10;
  cfg.window = 30000;
  cfg.budget = budget_model{4.0, 64.0, 4.0};  // summaries are chunky; give headroom
  cfg.counters = 2000;
  netwide_harness<source_hierarchy> harness(cfg);

  xoshiro256 rng(21);
  trace_generator gen(trace_kind::backbone, 31);
  for (int i = 0; i < 100000; ++i) {
    packet p = rng.uniform01() < 0.4 ? packet{0x0A000000u | static_cast<std::uint32_t>(
                                                  rng.bounded(1 << 24)),
                                              9}
                                     : gen.next();
    harness.ingest(p);
  }
  return harness;
}

TEST(Harness, SummaryMethodTracksAHotSubnet) {
  const auto harness = hot_subnet_summary_harness();
  const double window = static_cast<double>(harness.config().window);
  ASSERT_GT(harness.reports_sent(), 0u);
  // The midpoint estimate (entry sums across vantages) tracks the subnet's
  // ~40% share; summaries are stale between reports, so the tolerance is
  // wider than the batch method's.
  const double est = harness.estimate_midpoint(prefix1d::make_key(0x0A000000u, 3));
  EXPECT_NEAR(est, 0.4 * window, 0.35 * window);
  // One-sided estimate dominates the midpoint.
  EXPECT_GE(harness.estimate(prefix1d::make_key(0x0A000000u, 3)), est);
}

TEST(Harness, SummaryVantagesHoldTheirShareOfCounters) {
  // Each vantage sees a local window of 3,001 packets. With all 2,000
  // counters per vantage its frame rounds that up to 4,000 (+33%), and the
  // /0 root, which every packet feeds, reads a third too high. With 200
  // counters each the frame is 3,200 (+6.7%); the entries are upper
  // estimates, which add up to 2T * H = 160 packets per vantage (+5.3%).
  const auto harness = hot_subnet_summary_harness();
  const double window = static_cast<double>(harness.config().window);
  EXPECT_NEAR(harness.estimate_midpoint(prefix1d::make_key(0, 4)), window, 0.12 * window);
}

TEST(Harness, BatchDefaultsToTheorem55Optimum) {
  harness_config cfg;
  cfg.method = comm_method::batch;
  cfg.window = 1'000'000;
  cfg.budget = budget_model{1.0, 64.0, 4.0};
  netwide_harness<source_hierarchy> harness(cfg);
  error_model m = paper_example_model();
  m.delta = cfg.delta;
  EXPECT_EQ(harness.batch_size(), optimal_batch(m).batch_size);
}

TEST(Harness, SampleForcesBatchOfOne) {
  harness_config cfg;
  cfg.method = comm_method::sample;
  cfg.batch_size = 99;  // must be overridden
  netwide_harness<source_hierarchy> harness(cfg);
  EXPECT_EQ(harness.batch_size(), 1u);
}

TEST(Harness, EstimatesTrackAHotSubnet) {
  harness_config cfg;
  cfg.method = comm_method::batch;
  cfg.num_points = 10;
  cfg.window = 30000;
  cfg.budget = budget_model{1.0, 64.0, 4.0};
  cfg.counters = 2000;
  netwide_harness<source_hierarchy> harness(cfg);

  xoshiro256 rng(21);
  trace_generator gen(trace_kind::backbone, 31);
  for (int i = 0; i < 100000; ++i) {
    packet p = rng.uniform01() < 0.4 ? packet{0x0A000000u | static_cast<std::uint32_t>(
                                                  rng.bounded(1 << 24)),
                                              9}
                                     : gen.next();
    harness.ingest(p);
  }
  const double est = harness.estimate(prefix1d::make_key(0x0A000000u, 3));
  EXPECT_NEAR(est, 0.4 * static_cast<double>(cfg.window),
              0.3 * static_cast<double>(cfg.window));
}

TEST(Harness, RejectsZeroVantages) {
  harness_config cfg;
  cfg.num_points = 0;
  EXPECT_THROW(netwide_harness<source_hierarchy>{cfg}, std::invalid_argument);
}

// --- delta reports on the summary channel ------------------------------------

TEST(DeltaChannel, ReportCodecRoundTripsFullAndDelta) {
  // Delta kind: changed + removed survive the wire exactly.
  summary_report<std::uint64_t> report;
  report.origin = 9;
  report.covered_packets = 4'321;
  report.epoch = 17;
  report.kind = summary_kind::delta;
  report.window = 50'000;
  report.stream = 123'456;
  report.width = 31.25;
  report.miss_upper = 7.5;
  for (std::uint64_t k = 0; k < 300; ++k) report.changed.push_back({k * 37, 100.0 + k});
  for (std::uint64_t k = 0; k < 40; ++k) report.removed.push_back(k * 101 + 7);
  const auto payload = encode_summary_report(report);
  ASSERT_FALSE(payload.empty());

  const auto got = decode_summary_report<std::uint64_t>(payload);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->origin, report.origin);
  EXPECT_EQ(got->covered_packets, report.covered_packets);
  EXPECT_EQ(got->epoch, report.epoch);
  EXPECT_EQ(got->kind, summary_kind::delta);
  EXPECT_EQ(got->window, report.window);
  EXPECT_EQ(got->stream, report.stream);
  EXPECT_DOUBLE_EQ(got->width, report.width);
  EXPECT_DOUBLE_EQ(got->miss_upper, report.miss_upper);
  EXPECT_EQ(got->changed, report.changed);
  EXPECT_EQ(got->removed, report.removed);

  // Full kind: the embedded WS section round-trips its entries.
  summary_report<std::uint64_t> full;
  full.origin = 3;
  full.epoch = 1;
  full.kind = summary_kind::full;
  full.summary.set_scalars(50'000, 99'999, 10.0, 2.0);
  for (std::uint64_t k = 0; k < 100; ++k) full.summary.upsert(k * 13, 500.0 + k);
  const auto full_payload = encode_summary_report(full);
  const auto full_got = decode_summary_report<std::uint64_t>(full_payload);
  ASSERT_TRUE(full_got.has_value());
  EXPECT_EQ(full_got->kind, summary_kind::full);
  EXPECT_EQ(full_got->summary.size(), full.summary.size());
  full.summary.for_each([&](const std::uint64_t& key, double est) {
    ASSERT_DOUBLE_EQ(full_got->summary.query_entry(key), est);
  });

  // Hardening: truncation, trailing bytes, corruption and unknown kinds of
  // both payloads are rejected (preamble checks + the WS/WD sections' CRCs).
  expect_report_rejects_corruption(payload);
  expect_report_rejects_corruption(full_payload);
}

TEST(DeltaChannel, ControllerEnforcesEpochSequencing) {
  summary_controller<source_hierarchy> ctrl;
  const std::uint64_t k1 = 11, k2 = 22;

  auto make_full = [&](std::uint64_t epoch, std::uint64_t key, double est) {
    summary_report<std::uint64_t> r;
    r.origin = 0;
    r.epoch = epoch;
    r.kind = summary_kind::full;
    r.summary.set_scalars(1'000, epoch * 1'000, 5.0, 1.0);
    r.summary.upsert(key, est);
    return r;
  };
  auto make_delta = [&](std::uint64_t epoch) {
    summary_report<std::uint64_t> r;
    r.origin = 0;
    r.epoch = epoch;
    r.kind = summary_kind::delta;
    r.window = 1'000;
    r.stream = epoch * 1'000;
    r.width = 5.0;
    r.miss_upper = 1.0;
    return r;
  };

  // Baseline at epoch 1.
  EXPECT_TRUE(ctrl.on_report(make_full(1, k1, 100.0)));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k1), 100.0);
  // Replay of epoch 1 is rejected, state unchanged.
  EXPECT_FALSE(ctrl.on_report(make_full(1, k1, 999.0)));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k1), 100.0);
  // In-sequence delta applies: k1 removed, k2 upserted.
  auto d2 = make_delta(2);
  d2.changed.push_back({k2, 50.0});
  d2.removed.push_back(k1);
  EXPECT_TRUE(ctrl.on_report(d2));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k1), 0.0);
  EXPECT_DOUBLE_EQ(ctrl.query_point(k2), 50.0);
  // An epoch gap desyncs the origin...
  EXPECT_FALSE(ctrl.on_report(make_delta(4)));
  // ...and even the "right next" epoch stays rejected until a full resync.
  EXPECT_FALSE(ctrl.on_report(make_delta(3)));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k2), 50.0);  // baseline untouched by rejects
  EXPECT_EQ(ctrl.reports_rejected(), 3u);
  // A full report resynchronizes unconditionally.
  EXPECT_TRUE(ctrl.on_report(make_full(5, k1, 70.0)));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k1), 70.0);
  EXPECT_DOUBLE_EQ(ctrl.query_point(k2), 0.0);  // full replaces, not patches
  auto d6 = make_delta(6);
  d6.changed.push_back({k2, 25.0});
  EXPECT_TRUE(ctrl.on_report(d6));
  EXPECT_DOUBLE_EQ(ctrl.query_point(k2), 25.0);
}

TEST(DeltaChannel, DeltaStreamTracksFullResyncBaselineAndRecoversFromLoss) {
  // Two identical vantages over the same stream; one ships a full summary
  // every report, the other deltas with periodic resync. Their controllers
  // must agree to within one change bar per entry. A dropped delta mid-run
  // desyncs the delta controller until the next full, after which agreement
  // returns - the recovery path the wire format exists for.
  const budget_model budget{4.0, 64.0, 4.0};
  summary_config full_cfg;
  full_cfg.resync_every = 1;
  full_cfg.cadence_packets = 500;
  summary_config delta_cfg;
  delta_cfg.resync_every = 4;
  delta_cfg.cadence_packets = 500;
  delta_cfg.change_bar_units = 1.0;
  summary_point<source_hierarchy> pfull(0, 10'000, 256, budget, full_cfg, 5);
  summary_point<source_hierarchy> pdelta(0, 10'000, 256, budget, delta_cfg, 5);
  summary_controller<source_hierarchy> cfull, cdelta;

  std::uint64_t z = 99;
  std::uint64_t delta_payloads = 0;
  for (int i = 0; i < 30'000; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    // 4 stable elephants on 60% of traffic, random background on the rest.
    const std::uint32_t src = (z >> 33) % 10 < 6
                                  ? static_cast<std::uint32_t>((z >> 50) % 4) * 7919u + 1
                                  : static_cast<std::uint32_t>(z >> 32);
    const packet p{src, 0};
    if (auto payload = pfull.observe(p)) {
      auto r = decode_summary_report<std::uint64_t>(*payload);
      ASSERT_TRUE(r.has_value());
      cfull.on_report(std::move(*r));
    }
    if (auto payload = pdelta.observe(p)) {
      auto r = decode_summary_report<std::uint64_t>(*payload);
      ASSERT_TRUE(r.has_value());
      // Drop the 6th report if it is a delta: simulated channel loss.
      if (++delta_payloads == 6 && r->kind == summary_kind::delta) continue;
      cdelta.on_report(std::move(*r));
    }
  }
  ASSERT_GT(pdelta.delta_reports(), 0u);
  ASSERT_GT(pdelta.full_reports(), 1u);
  EXPECT_GE(cdelta.reports_rejected(), 1u);  // the post-drop deltas until resync

  // Deltas must be the cheaper channel even at this small scale.
  EXPECT_LT(pdelta.bytes_sent(), pfull.bytes_sent());

  // Per-entry agreement: the elephants' source-level estimates differ by at
  // most the change bar (plus report-timing slack) between the two sides.
  const double bar = 1.0 *
                     static_cast<double>(pdelta.algorithm().inner().overflow_threshold()) *
                     static_cast<double>(source_hierarchy::hierarchy_size) /
                     pdelta.algorithm().tau();
  for (std::uint32_t e = 0; e < 4; ++e) {
    const packet probe{e * 7919u + 1, 0};
    for (std::size_t d = 0; d < source_hierarchy::hierarchy_size; ++d) {
      const auto key = source_hierarchy::key_at(probe, d);
      const double ref = cfull.query_point(key);
      EXPECT_NEAR(cdelta.query_point(key), ref, bar + 0.05 * ref)
          << "elephant " << e << " depth " << d;
    }
  }
}

}  // namespace
}  // namespace memento::netwide
