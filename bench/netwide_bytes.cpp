// Error-per-byte of the two real control channels: Sample (per-packet
// samples, the paper's Section 4.3 baseline method) vs Summary (periodic
// compressed sketch summaries, the snapshot layer's channel).
//
// Both channels are byte-accounted against the same budget_model, so the
// question is purely "which message type converts control bytes into
// accuracy better" at each budget B. The harness routes by client hash,
// m = 10 vantages, and RMSE is measured fig9-style: on-arrival midpoint
// estimates of every probed packet's 5 source generalizations against an
// exact global window. Both channels hold the same memory: the controller's
// 4,096 counters for Sample, 410 per vantage for Summary. On this trace
// summaries win at B <= 1 and samples at B = 4 (BENCH_fig5.json).
//
// Metrics per (method, B): rmse, bytes/packet actually used, and
// err_per_byte = rmse / bytes_used - the RMSE carried per control byte
// spent. Both methods saturate their budget, so at equal B the err_per_byte
// ordering is the rmse ordering; across budgets it is the efficiency curve.
//
// `--json` emits the machine-readable form summarize.py folds into the
// committed BENCH artifact (section "netwide_bytes"); the default is a
// human-readable table. Keep runtimes CI-smoke friendly.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "netwide/simulation.hpp"
#include "sketch/exact_hhh.hpp"
#include "trace/trace_generator.hpp"
#include "util/table.hpp"

namespace {

using namespace memento;
using namespace memento::netwide;

constexpr std::uint64_t kWindow = 100'000;
constexpr std::size_t kPackets = 300'000;
constexpr std::size_t kProbeStride = 101;

struct run_result {
  double rmse = 0.0;
  double bytes_per_packet = 0.0;
  double err_per_byte = 0.0;
  std::uint64_t reports = 0;
};

/// Steady-state bytes of delta summaries vs a cadence-matched full-summary
/// baseline, at equal recall. Both sides run the SAME summary channel at
/// the same fixed report cadence; the baseline
/// sets resync_every = 1 (every report a full summary), the delta side
/// resyncs every 16 with a 2-overflow-unit change bar. Recall is scored
/// against an exact oracle at the detection threshold, so the byte ratio is
/// an equal-recall comparison, not a cheaper-but-blind one.
struct delta_result {
  double full_bytes = 0.0;
  double delta_bytes = 0.0;
  double ratio = 0.0;
  double full_recall = 0.0;
  double delta_recall = 0.0;
  std::uint64_t full_reports = 0;
  std::uint64_t delta_reports = 0;
};

delta_result run_delta_vs_full() {
  constexpr std::uint64_t kDeltaWindow = 400'000;
  constexpr std::size_t kDeltaPackets = 1'200'000;
  constexpr double kTheta = 0.005;

  harness_config base;
  base.method = comm_method::summary;
  base.num_points = 4;
  base.window = kDeltaWindow;
  base.counters = 1024;
  base.summary.cadence_packets = 4'000;
  harness_config full_cfg = base;
  full_cfg.summary.resync_every = 1;  // every report ships the full summary
  harness_config delta_cfg = base;
  delta_cfg.summary.resync_every = 16;
  delta_cfg.summary.change_bar_units = 2.0;

  netwide_harness<source_hierarchy> hfull(full_cfg), hdelta(delta_cfg);
  exact_hhh<source_hierarchy> exact(kDeltaWindow);
  // Steady heavy set (the delta channel's target regime): 64 stable elephants
  // carrying 60% of traffic over a churning random background.
  std::uint64_t z = 42;
  for (std::size_t i = 0; i < kDeltaPackets; ++i) {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t src = (z >> 33) % 1000 < 600
                                  ? static_cast<std::uint32_t>((z >> 50) % 64) * 7919u
                                  : static_cast<std::uint32_t>(z >> 32);
    const packet p{src, 0};
    hfull.ingest(p);
    hdelta.ingest(p);
    exact.update(p);
  }

  const auto truth = exact.output(kTheta);
  const auto score = [&](const std::vector<hhh_entry<source_hierarchy::key_type>>& got) {
    if (truth.empty()) return 1.0;
    std::size_t hit = 0;
    for (const auto& t : truth) {
      for (const auto& g : got) {
        if (t.key == g.key) {
          ++hit;
          break;
        }
      }
    }
    return static_cast<double>(hit) / static_cast<double>(truth.size());
  };

  delta_result r;
  r.full_bytes = hfull.bytes_sent();
  r.delta_bytes = hdelta.bytes_sent();
  r.ratio = r.delta_bytes > 0.0 ? r.full_bytes / r.delta_bytes : 0.0;
  r.full_recall = score(hfull.output(kTheta));
  r.delta_recall = score(hdelta.output(kTheta));
  r.full_reports = hfull.reports_sent();
  r.delta_reports = hdelta.reports_sent();
  return r;
}

run_result run_method(comm_method method, double budget_bytes) {
  harness_config cfg;
  cfg.method = method;
  cfg.num_points = 10;
  cfg.window = kWindow;
  cfg.budget = budget_model{budget_bytes, 64.0, 4.0};
  cfg.counters = 4096;
  netwide_harness<source_hierarchy> harness(cfg);
  exact_hhh<source_hierarchy> exact(kWindow);

  auto trace_cfg = trace_config::preset(trace_kind::backbone, 42);
  trace_cfg.churn_stride = 5'000;  // flows arrive and die, as in fig9
  trace_generator gen(trace_cfg);
  double sq = 0.0;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    const packet p = gen.next();
    harness.ingest(p);
    exact.update(p);
    if (i > 2 * kWindow && i % kProbeStride == 0) {
      for (std::size_t d = 0; d < source_hierarchy::hierarchy_size; ++d) {
        const auto key = source_hierarchy::key_at(p, d);
        const double err =
            harness.estimate_midpoint(key) - static_cast<double>(exact.query(key));
        sq += err * err;
        ++probes;
      }
    }
  }
  run_result r;
  r.rmse = std::sqrt(sq / static_cast<double>(probes));
  r.bytes_per_packet = harness.bytes_per_packet();
  r.err_per_byte = r.bytes_per_packet > 0.0 ? r.rmse / r.bytes_per_packet : 0.0;
  r.reports = harness.reports_sent();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const double budgets[] = {0.5, 1.0, 4.0};
  const comm_method methods[] = {comm_method::sample, comm_method::summary};

  if (!json) {
    std::puts("=== error-per-byte: sample vs summary channel ===");
    std::printf("m=10 vantages, W=%llu, O=64, E=4, %zu packets, backbone+churn\n",
                static_cast<unsigned long long>(kWindow), kPackets);
  }

  std::string rows;
  console_table table({"method", "B bytes/pkt", "rmse", "bytes/pkt used", "rmse/byte", "reports"});
  if (!json) table.print_header();
  for (const double budget : budgets) {
    for (const comm_method method : methods) {
      const auto r = run_method(method, budget);
      if (json) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"method\": \"%s\", \"budget_bytes_per_packet\": %g, "
                      "\"rmse\": %.2f, \"bytes_per_packet\": %.4f, "
                      "\"err_per_byte\": %.2f, \"reports\": %llu}",
                      method_name(method), budget, r.rmse, r.bytes_per_packet,
                      r.err_per_byte, static_cast<unsigned long long>(r.reports));
        if (!rows.empty()) rows += ",\n";
        rows += buf;
      } else {
        table.cell(method_name(method))
            .cell(budget, 2)
            .cell(r.rmse, 1)
            .cell(r.bytes_per_packet, 3)
            .cell(r.err_per_byte, 1)
            .cell(static_cast<long long>(r.reports));
        table.end_row();
      }
    }
  }

  const auto d = run_delta_vs_full();
  if (json) {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf(
        "{\n  \"memento_build_type\": \"%s\",\n  \"netwide_bytes\": [\n%s\n  ],\n"
        "  \"summary_delta\": {\"full_bytes\": %.0f, \"delta_bytes\": %.0f, "
        "\"bytes_ratio\": %.3f, \"full_recall\": %.4f, \"delta_recall\": %.4f, "
        "\"full_reports\": %llu, \"delta_reports\": %llu, "
        "\"cadence_packets\": 4000, \"resync_every\": 16, \"change_bar_units\": 2.0}\n}\n",
        build, rows.c_str(), d.full_bytes, d.delta_bytes, d.ratio, d.full_recall,
        d.delta_recall, static_cast<unsigned long long>(d.full_reports),
        static_cast<unsigned long long>(d.delta_reports));
  } else {
    std::puts("\n=== delta vs full summary channel (cadence-matched, equal recall) ===");
    std::printf("full:  %.0f bytes over %llu reports (resync_every=1)\n", d.full_bytes,
                static_cast<unsigned long long>(d.full_reports));
    std::printf("delta: %.0f bytes over %llu reports (resync_every=16, bar=2 units)\n",
                d.delta_bytes, static_cast<unsigned long long>(d.delta_reports));
    std::printf("bytes ratio: %.2fx fewer control bytes at recall %.3f vs %.3f\n", d.ratio,
                d.delta_recall, d.full_recall);
    std::puts("\nrmse/byte = rmse divided by control bytes actually spent per packet;");
    std::puts("lower is better. Both methods saturate the budget, so at equal B this");
    std::puts("is the accuracy ordering; across B it is the efficiency curve.");
  }
  return 0;
}
