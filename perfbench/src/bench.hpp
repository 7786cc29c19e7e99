// Shared infrastructure of the perfbench harness: timing, the host
// calibration kernel, resident-memory probes, correctness-check accounting
// and the metric/JSON plumbing every workload reports through.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/packet.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);

/// Resident set size of this process in bytes (/proc/self/statm).
[[nodiscard]] std::size_t rss_bytes();

/// Returns free heap pages to the OS, then reads the resident set size, so
/// that memory the next objects allocate shows as growth even when earlier
/// temporaries (trace generation) left freed pages behind.
[[nodiscard]] std::size_t resident_baseline();

/// Host calibration kernel: random 8-byte reads over a table half the size
/// of the L2 cache, eight independent streams. Of the kernels tried
/// (L1-, L2- and last-level-cache-sized tables, reads and hashed
/// increments) its rate tracked the single-thread pipelines best when other
/// tenants slowed the host (correlation 0.9). It runs only while no program
/// thread is alive; its rate is recorded per run (host.calib_rate), so a
/// change that moves it shows, and the steadiness proof compares raw with
/// calibrated spreads.
class calibrator {
 public:
  calibrator();
  /// Reads per second: the best of three short kernel runs.
  [[nodiscard]] double rate();
  /// Reference rate the calibrated metrics are normalised to: a calibrated
  /// value reads as "what the raw value would be on a host whose kernel
  /// runs at this rate" (about the undisturbed rate of the 4-vCPU Xeon the
  /// benchmark was tuned on).
  static constexpr double kReferenceRate = 1.5e9;

 private:
  [[nodiscard]] double rate_once();

  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

/// Names the output a smoke test deliberately corrupts before it reaches
/// its correctness check, to prove the check fires.
enum class corruption { none, count, estimate, image, hhh };

/// Attempted/failed accounting of correctness checks. Every failure is
/// printed to stderr with what was checked.
struct checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  corruption corrupt = corruption::none;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
    return ok;
  }
  /// True (once) when the named output is the one to corrupt.
  [[nodiscard]] bool corrupting(corruption c) {
    if (corrupt != c) return false;
    corrupt = corruption::none;
    return true;
  }
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the end-to-end and per-layer metrics, plus a
/// free-form detail object (raw and calibrated figures, per-pass counts,
/// provenance) printed on the line before the result.
struct report {
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  std::vector<std::pair<std::string, std::string>> detail;  ///< key -> JSON value

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);  ///< quoted string
  void note_raw(const std::string& key, std::string json) {
    detail.emplace_back(key, std::move(json));
  }
};

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_array(const std::vector<double>& v);

/// Runs `pass(n)` until `seconds` of wall time have elapsed, at least `min_passes` times and at most `max_passes`.
template <typename Pass>
std::size_t repeat_for(double seconds, std::size_t min_passes, std::size_t max_passes,
                       Pass&& pass) {
  const auto t0 = clock_type::now();
  std::size_t n = 0;
  while (n < max_passes && (n < min_passes || seconds_since(t0) < seconds)) {
    pass(n);
    ++n;
  }
  return n;
}

/// The timed parts of one pass of any workload. Every vector has the same
/// length in every pass of a run, because a pass is a fixed amount of work.
struct pass_times {
  double setup_s = 0.0;
  double ingest_s = 0.0;          ///< whole ingest, including a final drain
  double calib_rate = 0.0;        ///< best kernel rate before and after the pass
  double rss_mb = 0.0;            ///< resident growth from setup to the end of ingest
  std::vector<double> segments;   ///< ingest seconds of each fixed slice of the trace
  std::vector<double> polls;      ///< milliseconds of each operator poll
  std::vector<double> saves;      ///< milliseconds of each checkpoint save
  std::vector<double> restores;   ///< milliseconds of each restore

  [[nodiscard]] double query_ms() const { return median(polls); }
  [[nodiscard]] double checkpoint_ms() const { return median(saves); }
  [[nodiscard]] double restore_ms() const { return median(restores); }
};

/// How a run's passes become one figure.
///
/// The host is shared, and other tenants slow a pass by up to half for
/// stretches of a few milliseconds to tens of seconds. So the figures are
/// "fastest observed": each fixed slice of the work (an ingest segment, the
/// i-th poll, the i-th save) takes its fastest time over the run's passes,
/// ingest sums the slices and the operations report the median slice. A
/// program change moves every sample, so it moves the fastest one too;
/// interference only adds time, so the fastest sample is the steadiest.
/// setup_s is the fastest pass,
/// rss_mb the first pass's first touch. The figures are raw; the detail
/// line also carries each one divided by the run's best calibration rate,
/// which the steadiness proof compares against.
void report_end_to_end(report& out, std::size_t packets, const std::vector<pass_times>& passes);

/// Sum over the ingest segments of each one's fastest time in `passes`.
[[nodiscard]] double fastest_ingest_s(const std::vector<pass_times>& passes);

/// The workload inputs, generated from the seed before any timing.
struct trace_input {
  std::vector<memento::packet> packets;
  std::vector<std::uint8_t> attack;  ///< per-packet flood label (empty: no flood)
  double tracegen_s = 0.0;
};

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  corruption corrupt = corruption::none;
};

/// One workload's whole run: fills `out` (end-to-end metrics when
/// args.trace is false, per-layer metrics when it is true) and `chk`.
void run_hh_dense(const run_args& args, checks& chk, report& out);
void run_flood_sampled(const run_args& args, checks& chk, report& out);
void run_hhh2d_poll(const run_args& args, checks& chk, report& out);

}  // namespace perfbench
