// The Summary communication method: vantages periodically ship compressed
// sketch summaries (snapshot/summary.hpp) instead of per-packet samples.
//
// Where Sample/Batch move the ALGORITHM to the controller (vantages are
// dumb samplers, the controller runs one big H-Memento), the summary
// channel moves the algorithm to the VANTAGE: each measurement point runs a
// local H-Memento over its share of the traffic at full rate (tau = 1,
// on-box updates cost no control bytes) and periodically serializes its
// candidate set - a window_summary - onto the wire. The controller keeps
// one baseline per vantage and answers over their union.
//
// Reports come in two kinds. A FULL report re-ships every candidate. A
// DELTA report ships only the candidates whose estimate moved past a change
// bar since the last shipped report, plus the keys that left the candidate
// set; the controller patches its per-origin baseline in place. In steady
// state most heavy hitters' estimates barely move between reports, so
// deltas carry the same information in far fewer bytes. The default,
// resync_every = 1, makes every report full.
//
// Three things make deltas safe against loss and corruption:
//   * every report carries a per-origin EPOCH; a delta only applies to the
//     exact baseline it was computed against (epoch == last + 1), anything
//     else is rejected and the controller waits for the next full report;
//   * every resync_every-th report is a FULL baseline (epoch 1 always is),
//     bounding how long a desynced controller stays stale;
//   * the delta payload rides in its own CRC'd section (tag "WD"),
//     so corruption rejects cleanly like every other wire section.
//
// The change bar is quantized in overflow units (T * H / tau packets, the
// granularity at which the underlying sketch actually learns): a naive
// "estimate changed" test would ship nearly every entry every report,
// because the in-frame residue term moves on almost every packet. Unshipped
// drift stays below one quantization step, which is already inside the
// estimate's +-2T slack - so recall at any detection bar the channel is
// honest for is unchanged, which is what makes the bytes comparison in
// bench/netwide_bytes.cpp an equal-recall one.
//
// Pacing: the vantage accrues B bytes of allowance per observed packet and
// ships when the allowance covers the report, priced at the last encoded
// report's bytes per candidate (fatter candidate sets ship less often).
// Byte accounting charges the actual encoded size, so it is exact for what
// crosses the wire. A fixed cadence (cadence_packets) replaces the budget
// gate for cadence-matched comparisons.
//
// Accuracy trade (measured by bench/netwide_bytes.cpp): summaries carry
// full per-vantage estimates (no sampling error) but are STALE between
// reports, and a prefix whose mass is spread thinly across vantages can sit
// below every local candidate bar. Sample/Batch pay per-packet sampling
// error but are always fresh. The controller's one-sided query() charges
// every vantage without an entry its miss bound, preserving the
// never-undercount contract; query_point() sums entries alone and is the
// near-unbiased input for RMSE comparisons.
//
// Decoding is bounds-checked end to end (util/wire.hpp): any truncated or
// corrupt report decodes to nullopt, never a crash.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/h_memento.hpp"
#include "hierarchy/hhh_solver.hpp"
#include "netwide/budget.hpp"
#include "snapshot/summary.hpp"
#include "trace/packet.hpp"
#include "util/wire.hpp"

namespace memento::netwide {

/// Wire tag of the delta payload section ("WD"); version 1.
inline constexpr std::uint16_t kDeltaWireTag = 0x5744;
inline constexpr std::uint16_t kDeltaWireVersion = 1;

/// What a report carries: the report kind discriminates the payload.
enum class summary_kind : std::uint8_t { full = 0, delta = 1 };

/// One summary report from a vantage. `summary` is populated for full
/// reports; `changed`/`removed` plus the scalar header for delta reports.
template <typename Key>
struct summary_report {
  std::uint32_t origin = 0;
  std::uint64_t covered_packets = 0;  ///< packets observed since the last report
  std::uint64_t epoch = 0;            ///< per-origin, starts at 1, +1 per sent report
  summary_kind kind = summary_kind::full;
  window_summary<Key> summary;  ///< full payload

  // delta payload
  std::uint64_t window = 0, stream = 0;
  double width = 0.0, miss_upper = 0.0;
  std::vector<std::pair<Key, double>> changed;
  std::vector<Key> removed;
};

/// Serializes a report payload (the O-byte transport header is external):
/// u32 origin | u64 covered | u64 epoch | u8 kind | payload (a WS section
/// for full, a CRC'd WD section for delta, both FoR-packed).
template <typename Key>
[[nodiscard]] std::vector<std::uint8_t> encode_summary_report(const summary_report<Key>& report) {
  std::vector<std::uint8_t> out;
  wire::sink s(out);
  s.u32(report.origin);
  s.u64(report.covered_packets);
  s.u64(report.epoch);
  s.u8(static_cast<std::uint8_t>(report.kind));
  if (report.kind == summary_kind::full) {
    report.summary.save(s);
  } else {
    s.begin_section(kDeltaWireTag, kDeltaWireVersion);
    s.u8(wire::kCodecPacked);
    s.varint(report.window);
    s.varint(report.stream);
    s.f64(report.width);
    s.f64(report.miss_upper);
    s.varint(report.changed.size());
    std::size_t i = 0;
    wire::put_key_column<Key>(s, report.changed.size(),
                              [&]() -> const Key& { return report.changed[i++].first; });
    for (const auto& [key, est] : report.changed) s.f64(est);
    s.varint(report.removed.size());
    i = 0;
    wire::put_key_column<Key>(s, report.removed.size(),
                              [&]() -> const Key& { return report.removed[i++]; });
    s.end_section();
  }
  if (!s.finish()) return {};
  return out;
}

/// Parses a report payload; nullopt on truncation, an unknown kind, a CRC
/// mismatch, or trailing garbage.
template <typename Key>
[[nodiscard]] std::optional<summary_report<Key>> decode_summary_report(
    std::span<const std::uint8_t> bytes) {
  wire::source s(bytes);
  summary_report<Key> report;
  std::uint8_t kind = 0;
  if (!s.u32(report.origin) || !s.u64(report.covered_packets) || !s.u64(report.epoch) ||
      !s.u8(kind) || kind > static_cast<std::uint8_t>(summary_kind::delta)) {
    return std::nullopt;
  }
  report.kind = static_cast<summary_kind>(kind);
  if (report.kind == summary_kind::full) {
    auto summary = window_summary<Key>::restore(s);
    if (!summary || !s.done()) return std::nullopt;
    report.summary = std::move(*summary);
    return report;
  }
  std::uint16_t version = 0;
  if (!s.open_section(kDeltaWireTag, version) || version != kDeltaWireVersion) {
    return std::nullopt;
  }
  if (!wire::get_codec_flags(s)) return std::nullopt;
  std::uint64_t nchanged = 0, nremoved = 0;
  if (!s.varint(report.window) || !s.varint(report.stream) || !s.f64(report.width) ||
      !s.f64(report.miss_upper) || !s.varint(nchanged)) {
    return std::nullopt;
  }
  if (nchanged > (std::uint64_t{1} << 21)) return std::nullopt;  // matches WS entry cap
  report.changed.resize(static_cast<std::size_t>(nchanged));
  std::size_t i = 0;
  if (!wire::get_key_column<Key>(s, report.changed.size(), [&](const Key& key) {
        report.changed[i++].first = key;
        return true;
      })) {
    return std::nullopt;
  }
  for (auto& [key, est] : report.changed) {
    if (!s.f64(est)) return std::nullopt;
  }
  if (!s.varint(nremoved) || nremoved > (std::uint64_t{1} << 21)) return std::nullopt;
  report.removed.resize(static_cast<std::size_t>(nremoved));
  i = 0;
  if (!wire::get_key_column<Key>(s, report.removed.size(), [&](const Key& key) {
        report.removed[i++] = key;
        return true;
      })) {
    return std::nullopt;
  }
  if (!s.close_section() || !s.done()) return std::nullopt;
  return report;
}

/// Knobs of the summary channel's vantage side.
struct summary_config {
  /// Every Nth report is a full baseline (the first always is). 1 = every
  /// report full.
  std::uint64_t resync_every = 1;
  /// Change bar in overflow units (T * H / tau packets): an entry ships
  /// when its estimate moved at least this much since last shipped. 0
  /// ships every entry every report (naive; for measurement only).
  double change_bar_units = 1.0;
  /// Fixed report cadence in ingress packets; 0 = budget-gated pacing
  /// (accrue bytes_per_packet, ship when the allowance covers the report).
  std::uint64_t cadence_packets = 0;
};

/// Vantage side: a full-rate local H-Memento plus epoch-tagged full/delta
/// emission against the last SHIPPED estimates. observe() returns the
/// ENCODED payload when one ships - the channel's unit really is bytes, and
/// the harness decodes them back.
template <typename H>
class summary_point {
 public:
  using key_type = typename H::key_type;

  /// @param id           vantage identifier stamped on reports.
  /// @param local_window the vantage's share of the global window (W / m).
  /// @param counters     local H-Memento counter budget.
  summary_point(std::uint32_t id, std::uint64_t local_window, std::size_t counters,
                const budget_model& budget, const summary_config& config = {},
                std::uint64_t seed = 1)
      : algo_(h_memento_config{local_window, counters, /*tau=*/1.0, /*delta=*/1e-3,
                               seed ^ (0x726d75530ULL * (id + 1))}),
        budget_(budget),
        config_(config),
        id_(id) {
    if (config_.resync_every == 0) config_.resync_every = 1;
  }

  /// Observes one ingress packet; returns an encoded report when due.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> observe(const packet& p) {
    algo_.update(p);
    ++covered_;
    ++observed_total_;
    accrued_ += budget_.bytes_per_packet;
    // An empty candidate set carries no information: keep accruing instead
    // of wasting a header on the wire.
    const std::size_t candidates = algo_.inner().candidate_count();
    if (candidates == 0) return std::nullopt;
    // Gate before encoding, so the encode runs about once per report, not
    // once per packet.
    if (config_.cadence_packets != 0
            ? covered_ < config_.cadence_packets
            : accrued_ < bytes_per_candidate_ * static_cast<double>(candidates)) {
      return std::nullopt;
    }

    const bool full_due = epoch_ % config_.resync_every == 0;  // epoch_ counts SENT reports
    auto report = full_due ? make_full() : make_delta();
    if (!full_due && report.changed.empty() && report.removed.empty()) {
      return std::nullopt;  // nothing moved past the bar; keep accruing
    }
    auto payload = encode_summary_report(report);
    const double actual = budget_.overhead_bytes + static_cast<double>(payload.size());
    bytes_per_candidate_ = actual / static_cast<double>(candidates);
    if (config_.cadence_packets == 0 && accrued_ < actual) return std::nullopt;

    accrued_ -= actual;
    if (accrued_ < 0.0) accrued_ = 0.0;
    bytes_sent_ += actual;
    covered_ = 0;
    ++epoch_;
    ++reports_sent_;
    full_due ? ++full_reports_ : ++delta_reports_;
    commit(report);
    return payload;
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t observed_total() const noexcept { return observed_total_; }
  [[nodiscard]] std::uint64_t reports_sent() const noexcept { return reports_sent_; }
  [[nodiscard]] std::uint64_t full_reports() const noexcept { return full_reports_; }
  [[nodiscard]] std::uint64_t delta_reports() const noexcept { return delta_reports_; }
  /// Actual control bytes spent (O + encoded payload, per report).
  [[nodiscard]] double bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] const h_memento<H>& algorithm() const noexcept { return algo_; }

 private:
  /// The change bar in packets: estimates quantize at the sketch's overflow
  /// granularity T * H / tau, so anything below `units` of that is residue
  /// noise, not information.
  [[nodiscard]] double change_bar() const noexcept {
    return config_.change_bar_units * static_cast<double>(algo_.inner().overflow_threshold()) *
           static_cast<double>(H::hierarchy_size) / algo_.tau();
  }

  [[nodiscard]] summary_report<key_type> make_full() const {
    summary_report<key_type> report;
    report.origin = id_;
    report.covered_packets = covered_;
    report.epoch = epoch_ + 1;
    report.kind = summary_kind::full;
    report.summary = window_summary<key_type>::from_hhh(algo_);
    return report;
  }

  [[nodiscard]] summary_report<key_type> make_delta() const {
    const auto current = window_summary<key_type>::from_hhh(algo_);
    summary_report<key_type> report;
    report.origin = id_;
    report.covered_packets = covered_;
    report.epoch = epoch_ + 1;
    report.kind = summary_kind::delta;
    report.window = current.window_size();
    report.stream = current.stream_length();
    report.width = current.estimate_width();
    report.miss_upper = current.miss_bound();
    const double bar = change_bar();
    current.for_each([&](const key_type& key, double est) {
      const auto it = shipped_.find(key);
      if (it == shipped_.end() || std::abs(est - it->second) >= bar) {
        report.changed.push_back({key, est});
      }
    });
    for (const auto& [key, est] : shipped_) {
      if (!current.contains(key)) report.removed.push_back(key);
    }
    return report;
  }

  /// Records what the controller now holds, once the report has shipped.
  void commit(const summary_report<key_type>& report) {
    if (report.kind == summary_kind::full) {
      shipped_.clear();
      report.summary.for_each([&](const key_type& key, double est) { shipped_[key] = est; });
      return;
    }
    for (const auto& [key, est] : report.changed) shipped_[key] = est;
    for (const key_type& key : report.removed) shipped_.erase(key);
  }

  h_memento<H> algo_;
  budget_model budget_;
  summary_config config_;
  std::uint32_t id_;
  std::unordered_map<key_type, double> shipped_;  ///< last shipped estimate per key
  double accrued_ = 0.0;
  double bytes_sent_ = 0.0;
  /// The gate's price: the last encoded report's bytes (O included) per
  /// candidate, 16 (8B key + 8B estimate) until the first encode.
  double bytes_per_candidate_ = 16.0;
  std::uint64_t covered_ = 0;
  std::uint64_t observed_total_ = 0;
  std::uint64_t epoch_ = 0;  ///< == reports actually sent
  std::uint64_t reports_sent_ = 0;
  std::uint64_t full_reports_ = 0;
  std::uint64_t delta_reports_ = 0;
};

/// Controller side: per-origin baseline replaced by full reports and patched
/// by deltas, with strict epoch sequencing - a delta applies only to the
/// exact baseline it was computed against; gaps or reordering desync the
/// origin until its next full report.
template <typename H>
class summary_controller {
 public:
  using key_type = typename H::key_type;

  /// Applies one report; false when it was rejected (stale epoch, or a
  /// delta against a baseline this controller does not hold).
  bool on_report(summary_report<key_type> report) {
    auto& st = origins_[report.origin];
    ++reports_;
    if (report.epoch <= st.epoch && st.epoch != 0) {
      ++rejected_;  // stale or replayed
      return false;
    }
    if (report.kind == summary_kind::full) {
      st.baseline = std::move(report.summary);
      st.epoch = report.epoch;
      st.synced = true;
      return true;
    }
    // A delta is only meaningful against the exact predecessor baseline.
    if (!st.synced || report.epoch != st.epoch + 1) {
      st.synced = false;  // await the next full resync
      ++rejected_;
      return false;
    }
    for (const auto& [key, est] : report.changed) st.baseline.upsert(key, est);
    for (const key_type& key : report.removed) st.baseline.erase(key);
    st.baseline.set_scalars(report.window, report.stream, report.width, report.miss_upper);
    st.epoch = report.epoch;
    return true;
  }

  /// One-sided global estimate: per vantage, the entry when the prefix was
  /// summarized, otherwise that vantage's miss bound (client-hash routing
  /// spreads a prefix's mass across vantages, so a vantage without an entry
  /// may still hold up to its miss bound of it).
  [[nodiscard]] double query(const key_type& prefix) const {
    double total = 0.0;
    for (const auto& [origin, st] : origins_) total += st.baseline.query(prefix);
    return total;
  }

  /// Entry-sum estimate (near-unbiased; no miss-bound padding) - the right
  /// input for RMSE comparisons and threshold triggers.
  [[nodiscard]] double query_point(const key_type& prefix) const {
    double total = 0.0;
    for (const auto& [origin, st] : origins_) total += st.baseline.query_entry(prefix);
    return total;
  }

  /// HHH over the merged candidate union at threshold theta (fraction of
  /// `window`). Compensation-free, like the other methods' harness output.
  [[nodiscard]] std::vector<hhh_entry<key_type>> output(double theta,
                                                       std::uint64_t window) const {
    std::vector<key_type> candidates;
    for (const auto& [origin, st] : origins_) {
      st.baseline.for_each([&](const key_type& key, double) { candidates.push_back(key); });
    }
    return solve_hhh<H>(
        std::move(candidates),
        [this](const key_type& k) {
          const double point = query_point(k);
          return freq_bounds{point, point};
        },
        theta * static_cast<double>(window), /*compensation=*/0.0);
  }

  [[nodiscard]] std::size_t vantages_heard() const noexcept { return origins_.size(); }
  [[nodiscard]] std::uint64_t reports_received() const noexcept { return reports_; }
  [[nodiscard]] std::uint64_t reports_rejected() const noexcept { return rejected_; }

 private:
  struct origin_state {
    window_summary<key_type> baseline;
    std::uint64_t epoch = 0;
    bool synced = false;
  };
  std::unordered_map<std::uint32_t, origin_state> origins_;
  std::uint64_t reports_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace memento::netwide
