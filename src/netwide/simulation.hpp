// End-to-end network-wide measurement harness: m vantages, one controller,
// one of the four communication methods, byte-accurate budget accounting.
//
// This is the engine behind Fig. 9 (network-wide accuracy at a 1 byte/packet
// budget), Fig. 10 (HTTP-flood detection), the ddos_mitigation example and
// the netwide integration tests. Packets are routed to vantages by a hash of
// the client address - the same client always hits the same load-balancer,
// as in the paper's testbed - and "each packet is measured once" (Section
// 4.3).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "netwide/aggregation.hpp"
#include "netwide/batch_optimizer.hpp"
#include "netwide/controller.hpp"
#include "netwide/measurement_point.hpp"
#include "netwide/summary_channel.hpp"
#include "trace/packet.hpp"

namespace memento::netwide {

/// sample/batch/aggregation are the paper's Section 4.3 methods; summary is
/// the snapshot layer's channel (vantages ship compressed sketch summaries,
/// full or as epoch-tagged deltas, netwide/summary_channel.hpp).
enum class comm_method { sample, batch, aggregation, summary };

[[nodiscard]] constexpr const char* method_name(comm_method m) noexcept {
  switch (m) {
    case comm_method::sample: return "sample";
    case comm_method::batch: return "batch";
    case comm_method::aggregation: return "aggregation";
    case comm_method::summary: return "summary";
  }
  return "unknown";
}

struct harness_config {
  comm_method method = comm_method::batch;
  std::size_t num_points = 10;      ///< m
  std::uint64_t window = 1'000'000; ///< W (network-wide packets)
  budget_model budget{};            ///< B / O / E
  std::size_t batch_size = 0;       ///< b; 0 = optimal per Theorem 5.5 (sample forces 1)
  std::size_t counters = 4096;      ///< controller algorithm counters
  double delta = 1e-3;
  std::uint64_t seed = 1;
  summary_config summary{};         ///< summary pacing/resync knobs
};

/// One network-wide HHH deployment under a byte budget.
template <typename H>
class netwide_harness {
 public:
  using key_type = typename H::key_type;

  explicit netwide_harness(const harness_config& config) : config_(config) {
    if (config.num_points == 0) throw std::invalid_argument("harness: need >= 1 vantage");

    if (config_.method == comm_method::sample) {
      config_.batch_size = 1;
    } else if (config_.method == comm_method::batch && config_.batch_size == 0) {
      error_model model;
      model.budget = config_.budget;
      model.num_points = config_.num_points;
      model.hierarchy_size = static_cast<double>(H::hierarchy_size);
      model.window = static_cast<double>(config_.window);
      model.delta = config_.delta;
      config_.batch_size = optimal_batch(model).batch_size;
    }

    if (config_.method == comm_method::aggregation) {
      const std::size_t local =
          static_cast<std::size_t>(config_.window / config_.num_points) + 1;
      for (std::size_t i = 0; i < config_.num_points; ++i) {
        agg_points_.emplace_back(static_cast<std::uint32_t>(i), local, config_.budget,
                                 config_.counters);
      }
      agg_controller_ = std::make_unique<ideal_aggregation_controller<H>>();
    } else if (config_.method == comm_method::summary) {
      // Each vantage holds its share of the controller's counters, so the m
      // vantages together hold the controller's memory and a vantage's frame
      // rounds its local window up by at most counters / m packets.
      const std::uint64_t local = config_.window / config_.num_points + 1;
      const std::size_t counters =
          (config_.counters + config_.num_points - 1) / config_.num_points;
      for (std::size_t i = 0; i < config_.num_points; ++i) {
        sum_points_.emplace_back(static_cast<std::uint32_t>(i), local, counters,
                                 config_.budget, config_.summary, config_.seed + i);
      }
      sum_controller_ = std::make_unique<summary_controller<H>>();
    } else {
      const double tau = config_.budget.max_tau(config_.batch_size);
      for (std::size_t i = 0; i < config_.num_points; ++i) {
        points_.emplace_back(static_cast<std::uint32_t>(i), tau, config_.batch_size,
                             config_.seed + i);
      }
      controller_ = std::make_unique<d_h_memento_controller<H>>(
          config_.window, config_.counters, tau, config_.delta);
    }
  }

  /// Feeds one ingress packet through its vantage; reports flow to the
  /// controller as the communication method dictates.
  void ingest(const packet& p) {
    ++packets_;
    const std::size_t v = route(p);
    if (config_.method == comm_method::aggregation) {
      if (auto report = agg_points_[v].observe(p)) {
        agg_controller_->on_report(std::move(*report));
      }
    } else if (config_.method == comm_method::summary) {
      // The summary channel's unit is bytes: decode what the vantage
      // encoded, exactly as a controller process would off the wire.
      if (auto payload = sum_points_[v].observe(p)) {
        auto report = decode_summary_report<key_type>(*payload);
        if (report) sum_controller_->on_report(std::move(*report));
      }
    } else {
      if (auto report = points_[v].observe(p)) {
        controller_->on_report(*report);
      }
    }
  }

  /// The controller's current estimate of a prefix's global window frequency
  /// (one-sided: never undercounts).
  [[nodiscard]] double estimate(const key_type& prefix) const {
    if (config_.method == comm_method::aggregation) return agg_controller_->query(prefix);
    if (config_.method == comm_method::summary) return sum_controller_->query(prefix);
    return controller_->query(prefix);
  }

  /// Near-unbiased point estimate - the right input for threshold triggers
  /// (rate limiting, Fig. 10 detection), where the one-sided bound would
  /// systematically fire early. Exact methods return their exact view.
  [[nodiscard]] double estimate_midpoint(const key_type& prefix) const {
    if (config_.method == comm_method::aggregation) return agg_controller_->query(prefix);
    if (config_.method == comm_method::summary) return sum_controller_->query_midpoint(prefix);
    return controller_->query_midpoint(prefix);
  }

  /// The controller's HHH set (compensation-free: symmetric across methods,
  /// matching the Section 6.3 threshold-based mitigation application).
  [[nodiscard]] std::vector<hhh_entry<key_type>> output(double theta) const {
    if (config_.method == comm_method::aggregation) {
      return agg_controller_->output(theta, config_.window);
    }
    if (config_.method == comm_method::summary) {
      return sum_controller_->output(theta, config_.window);
    }
    return controller_->output(theta, /*compensation=*/0.0);
  }

  /// Total control bytes spent by all vantages.
  [[nodiscard]] double bytes_sent() const {
    double total = 0.0;
    for (const auto& mp : points_) total += mp.bytes_sent(config_.budget);
    for (const auto& ap : agg_points_) total += ap.bytes_sent();
    for (const auto& sp : sum_points_) total += sp.bytes_sent();
    return total;
  }

  /// Control bytes per ingress packet actually used (should be <= B).
  [[nodiscard]] double bytes_per_packet() const {
    return packets_ == 0 ? 0.0 : bytes_sent() / static_cast<double>(packets_);
  }

  [[nodiscard]] std::uint64_t reports_sent() const {
    std::uint64_t total = 0;
    for (const auto& mp : points_) total += mp.reports_sent();
    for (const auto& ap : agg_points_) total += ap.reports_sent();
    for (const auto& sp : sum_points_) total += sp.reports_sent();
    return total;
  }

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] const harness_config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t batch_size() const noexcept { return config_.batch_size; }

 private:
  /// Client -> vantage routing: stable hash of the source address.
  [[nodiscard]] std::size_t route(const packet& p) const noexcept {
    std::uint64_t z = p.src + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((z ^ (z >> 31)) % config_.num_points);
  }

  harness_config config_;
  std::vector<measurement_point> points_;
  std::vector<aggregating_point<H>> agg_points_;
  std::vector<summary_point<H>> sum_points_;
  std::unique_ptr<d_h_memento_controller<H>> controller_;
  std::unique_ptr<ideal_aggregation_controller<H>> agg_controller_;
  std::unique_ptr<summary_controller<H>> sum_controller_;
  std::uint64_t packets_ = 0;
};

}  // namespace memento::netwide
