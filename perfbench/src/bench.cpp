#include "bench.hpp"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <fstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

std::size_t resident_baseline() {
  malloc_trim(0);
  return rss_bytes();
}

namespace {

std::size_t l2_bytes() {
  for (const char* path : {"/sys/devices/system/cpu/cpu0/cache/index2/size",
                           "/sys/devices/system/cpu/cpu0/cache/index3/size"}) {
    std::ifstream f(path);
    std::size_t n = 0;
    char suffix = 0;
    if (f >> n) {
      f >> suffix;
      if (suffix == 'K') n <<= 10;
      if (suffix == 'M') n <<= 20;
      if (n >= (1u << 18)) return n;
    }
  }
  return std::size_t{1} << 20;
}

}  // namespace

calibrator::calibrator() {
  // Power-of-two entries filling about half the L2 cache.
  std::size_t entries = 1;
  while (entries * 2 * sizeof(std::uint64_t) <= l2_bytes() / 2) entries *= 2;
  table_.resize(entries);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& v : table_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  (void)rate();  // first touch and warm-up
}

double calibrator::rate() {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) best = std::max(best, rate_once());
  return best;
}

double calibrator::rate_once() {
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kRounds = 1u << 17;
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t idx[kStreams];
  for (std::size_t s = 0; s < kStreams; ++s) idx[s] = s * 0x9E3779B97F4A7C15ull + sink_;
  std::uint64_t acc = 0;
  const auto t0 = clock_type::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      idx[s] = idx[s] * 6364136223846793005ull + 1442695040888963407ull;
      acc += table_[(idx[s] >> 20) & mask];
    }
  }
  const double dt = seconds_since(t0);
  sink_ += acc & 1;
  return static_cast<double>(kRounds * kStreams) / dt;
}

namespace {

/// Per index, the fastest sample over the passes.
std::vector<double> fastest_profile(const std::vector<pass_times>& passes,
                                    std::vector<double> pass_times::*field) {
  std::vector<double> best = passes.front().*field;
  for (const pass_times& p : passes) {
    const auto& v = p.*field;
    for (std::size_t i = 0; i < best.size() && i < v.size(); ++i) best[i] = std::min(best[i], v[i]);
  }
  return best;
}

}  // namespace

double fastest_ingest_s(const std::vector<pass_times>& passes) {
  double total = 0.0;
  for (const double s : fastest_profile(passes, &pass_times::segments)) total += s;
  return total;
}

void report_end_to_end(report& out, std::size_t packets, const std::vector<pass_times>& passes) {
  std::vector<double> pass_mpps, rates;
  double setup = passes.front().setup_s;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const pass_times& p = passes[i];
    if (i > 0 || passes.size() == 1) {  // pass 0 warms caches and the allocator
      pass_mpps.push_back(static_cast<double>(packets) / p.ingest_s / 1e6);
    }
    rates.push_back(p.calib_rate);
    setup = std::min(setup, p.setup_s);
  }
  const double mpps = static_cast<double>(packets) / fastest_ingest_s(passes) / 1e6;
  const double query = median(fastest_profile(passes, &pass_times::polls));
  const double ckpt = median(fastest_profile(passes, &pass_times::saves));
  const double rest = median(fastest_profile(passes, &pass_times::restores));

  out.e2e("mpps", mpps, "Mpps");
  out.e2e("setup_s", setup, "s");
  out.e2e("rss_mb", passes.front().rss_mb, "MB");
  out.e2e("query_ms", query, "ms");
  out.e2e("checkpoint_ms", ckpt, "ms");
  out.e2e("restore_ms", rest, "ms");

  // The calibrated forms, for the steadiness proof: k > 1 on a slow host,
  // and the calibrated figure is what the raw one would read at the
  // reference kernel rate.
  const double k = calibrator::kReferenceRate / *std::max_element(rates.begin(), rates.end());
  out.note("passes", static_cast<double>(passes.size()));
  out.note("calib_rate_max", *std::max_element(rates.begin(), rates.end()));
  out.note("mpps_raw", mpps);
  out.note("mpps_cal", mpps * k);
  out.note("mpps_median_pass", median(pass_mpps));
  out.note("query_ms_raw", query);
  out.note("query_ms_cal", query / k);
  out.note("checkpoint_ms_raw", ckpt);
  out.note("checkpoint_ms_cal", ckpt / k);
  out.note("restore_ms_raw", rest);
  out.note("restore_ms_cal", rest / k);
  out.note_raw("mpps_passes", json_array(pass_mpps));
  out.note_raw("calib_rate_passes", json_array(rates));
}

void report::note(const std::string& key, double value) { note_raw(key, json_number(value)); }

void report::note(const std::string& key, const std::string& text) {
  note_raw(key, json_string(text));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += json_number(v[i]);
  }
  return out + "]";
}

}  // namespace perfbench
