// The Section 5.2 bandwidth-budget model.
//
// Measurement points talk to the controller over ordinary packets. A
// SAMPLE/BATCH report (the paper's channels) costs O header bytes (e.g. 64
// for TCP) plus E bytes per sampled packet. A vantage gathering batches of
// b samples at sampling rate tau sends one (O + E b)-byte report per b/tau
// packets, and the budget constraint (O + E b) / (b / tau) <= B pins the
// maximum usable sampling rate tau = B b / (O + E b).
//
// SUMMARY reports (netwide/summary_channel.hpp) are not rate-limited by a
// sampling probability but by cadence: they pay O plus their actual encoded
// size out of the same B bytes per ingress packet.
//
// The operator grants the same B bytes of control traffic per ingress
// packet to either channel, which is what makes the error-per-byte
// comparison (bench/netwide_bytes.cpp) apples-to-apples.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace memento::netwide {

/// Cost/budget parameters shared by the analysis and the simulations.
struct budget_model {
  double bytes_per_packet = 1.0;  ///< B: control bytes allowed per ingress packet
  double overhead_bytes = 64.0;   ///< O: per-report header cost (64 = TCP)
  double entry_bytes = 4.0;       ///< E: bytes to encode one sampled packet

  /// Size in bytes of a report carrying `samples` entries.
  [[nodiscard]] double report_bytes(std::size_t samples) const noexcept {
    return overhead_bytes + entry_bytes * static_cast<double>(samples);
  }

  /// The maximum sampling probability that keeps batches of b within budget:
  /// tau = B b / (O + E b), clamped to (0, 1]. "Sampling at a lower rate
  /// would not utilize the entire bandwidth" (Section 5.2).
  [[nodiscard]] double max_tau(std::size_t batch_size) const {
    if (batch_size == 0) throw std::invalid_argument("budget: batch size must be >= 1");
    const double b = static_cast<double>(batch_size);
    const double tau = bytes_per_packet * b / report_bytes(batch_size);
    return std::clamp(tau, 0.0, 1.0);
  }

  /// Expected ingress packets between two reports at the budget-saturating
  /// tau: b / tau = (O + E b) / B.
  [[nodiscard]] double packets_per_report(std::size_t batch_size) const {
    return report_bytes(batch_size) / bytes_per_packet;
  }
};

}  // namespace memento::netwide
