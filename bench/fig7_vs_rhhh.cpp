// Figure 7: throughput of H-Memento (window algorithm) vs. RHHH (the fastest
// interval algorithm) on the backbone surrogate, 1D and 2D, across matched
// sampling ratios (RHHH samples one prefix per V packets; H-Memento's
// per-prefix rate is tau/H, so V = H/tau aligns the two).
//
// Expected shape (paper): H-Memento is faster at moderate sampling ratios
// (random-table sampling beats the geometric-variable machinery) while RHHH
// overtakes at extreme ratios, where it skips packets entirely but
// H-Memento still performs a Window update per packet.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/h_memento.hpp"
#include "core/rhhh.hpp"
#include "trace/trace_generator.hpp"

namespace {

using namespace memento;

constexpr std::size_t kTracePackets = 1'000'000;
constexpr std::uint64_t kWindow = 1'000'000;
constexpr std::size_t kCountersPerH = 512;

const std::vector<packet>& bench_trace() {
  static const std::vector<packet> trace = make_trace(trace_kind::backbone, kTracePackets, 42);
  return trace;
}

template <typename H>
void h_memento_speed(benchmark::State& state) {
  const double tau = static_cast<double>(H::hierarchy_size) / static_cast<double>(state.range(0));
  h_memento<H> alg(kWindow, kCountersPerH * H::hierarchy_size, std::min(1.0, tau), 1e-3, 1);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (const auto& p : trace) alg.update(p);
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

/// Same matched-sampling sweep through the batched ingest path: the fair
/// RHHH comparison for a NIC-burst deployment, where H-Memento amortizes
/// the level draw and key materialization across the burst.
template <typename H>
void h_memento_speed_batch(benchmark::State& state) {
  constexpr std::size_t kBurst = 256;
  const double tau = static_cast<double>(H::hierarchy_size) / static_cast<double>(state.range(0));
  h_memento<H> alg(kWindow, kCountersPerH * H::hierarchy_size, std::min(1.0, tau), 1e-3, 1);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (std::size_t i = 0; i < trace.size(); i += kBurst) {
      alg.update_batch(trace.data() + i, std::min(kBurst, trace.size() - i));
    }
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

template <typename H>
void rhhh_speed(benchmark::State& state) {
  const double v = static_cast<double>(state.range(0));
  rhhh<H> alg(kCountersPerH, std::max(v, static_cast<double>(H::hierarchy_size)), 1e-3, 1);
  const auto& trace = bench_trace();
  for (auto _ : state) {
    for (const auto& p : trace) alg.update(p);
    benchmark::DoNotOptimize(alg.stream_length());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["Mpps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(trace.size()) / 1e6,
      benchmark::Counter::kIsRate);
}

void register_all() {
  // V values: sampling ratios from "every packet updates some prefix"
  // (V = H) to aggressive skipping.
  for (std::int64_t v : {5, 10, 40, 160, 640, 2560}) {
    benchmark::RegisterBenchmark("fig7/h_memento_1d", h_memento_speed<source_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig7/h_memento_1d_batch", h_memento_speed_batch<source_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig7/rhhh_1d", rhhh_speed<source_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
  }
  for (std::int64_t v : {25, 50, 200, 800, 3200, 12800}) {
    benchmark::RegisterBenchmark("fig7/h_memento_2d", h_memento_speed<two_dim_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig7/h_memento_2d_batch",
                                 h_memento_speed_batch<two_dim_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig7/rhhh_2d", rhhh_speed<two_dim_hierarchy>)
        ->Arg(v)
        ->MinTime(0.1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  // Provenance context for summarize.py (same convention as fig5/fig6).
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("memento_build_type", "release");
#else
  benchmark::AddCustomContext("memento_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
