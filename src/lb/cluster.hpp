// The full mitigation deployment of Fig. 3: a cluster of load balancers, a
// network-wide measurement plane, and a centralized controller that pushes
// subnet rate-limits (ACL deny rules) back to every instance.
//
// This composes the whole repository: traffic -> load_balancer (per-client
// hashing) -> measurement hook -> netwide harness (Sample / Batch /
// Aggregation under a byte budget) -> D-H-Memento controller -> HHH check ->
// ACL push-down. It drives the ddos_mitigation example; the Fig. 10
// HTTP-flood bench drives netwide_harness directly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "hierarchy/prefix1d.hpp"
#include "lb/load_balancer.hpp"
#include "netwide/simulation.hpp"

namespace memento::lb {

struct cluster_config {
  std::size_t num_balancers = 10;      ///< the paper's ten HAProxy instances
  std::size_t backends_per_lb = 4;     ///< Apache-substitute pool per LB
  netwide::comm_method method = netwide::comm_method::batch;
  std::size_t batch_size = 0;          ///< 0 = Theorem 5.5 optimum
  std::uint64_t window = 1'000'000;    ///< W: global request window
  netwide::budget_model budget{};      ///< B = 1 byte/packet by default
  std::size_t counters = 4096;         ///< controller algorithm size
  double theta = 0.01;                 ///< HHH / rate-limit threshold
  std::size_t detect_stride = 1'000;   ///< requests between controller checks
  std::size_t monitored_depth = 3;     ///< subnet granularity to block (3 = /8)
  double delta = 1e-3;
  std::uint64_t seed = 1;
};

class cluster {
 public:
  explicit cluster(const cluster_config& config)
      : harness_(make_harness_config(config)), config_(config) {
    balancers_.reserve(config.num_balancers);
    for (std::size_t i = 0; i < config.num_balancers; ++i) {
      auto& balancer =
          balancers_.emplace_back(static_cast<std::uint32_t>(i), config.backends_per_lb);
      balancer.set_measurement_hook(
          [this](const http_request& request) { harness_.ingest(request.pkt); });
    }
  }

  /// Routes one request to its load balancer (stable per-client hashing, as
  /// a cloud front-end would: the harness's vantage_of, so each balancer is
  /// its clients' vantage), runs detection periodically, and returns the
  /// verdict. Detection happens on the controller's *stale* network-wide
  /// view - exactly the delay the Fig. 10 experiment quantifies.
  verdict handle(const http_request& request) {
    ++requests_;
    const verdict v = balancers_[harness_.vantage_of(request.pkt)].process(request);
    if (requests_ % config_.detect_stride == 0) run_detection();
    return v;
  }

  /// Controller pass: find subnets over threshold, push deny rules to every
  /// load balancer (the paper's rate-limit/block push-down).
  void run_detection() {
    for (const auto& entry : harness_.output(config_.theta)) {
      const auto key = entry.key;
      if (source_hierarchy::depth(key) != config_.monitored_depth) continue;
      if (blocked_.insert(key).second) {
        for (auto& balancer : balancers_) {
          balancer.access_list().set_rule(key, acl_action::deny);
        }
      }
    }
  }

  /// True when a subnet prefix key is currently blocked cluster-wide.
  [[nodiscard]] bool is_blocked(std::uint64_t prefix_key) const {
    return blocked_.count(prefix_key) > 0;
  }

  [[nodiscard]] const std::unordered_set<std::uint64_t>& blocked() const noexcept {
    return blocked_;
  }

  [[nodiscard]] lb_stats total_stats() const {
    lb_stats total;
    for (const auto& balancer : balancers_) {
      total.received += balancer.stats().received;
      total.forwarded += balancer.stats().forwarded;
      total.denied += balancer.stats().denied;
      total.tarpitted += balancer.stats().tarpitted;
    }
    return total;
  }

  [[nodiscard]] const netwide::netwide_harness<source_hierarchy>& harness() const noexcept {
    return harness_;
  }
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }
  [[nodiscard]] std::size_t size() const noexcept { return balancers_.size(); }
  [[nodiscard]] const load_balancer& balancer(std::size_t i) const { return balancers_.at(i); }

 private:
  [[nodiscard]] static netwide::harness_config make_harness_config(const cluster_config& c) {
    netwide::harness_config h;
    h.method = c.method;
    h.num_points = c.num_balancers;
    h.window = c.window;
    h.budget = c.budget;
    h.batch_size = c.batch_size;
    h.counters = c.counters;
    h.delta = c.delta;
    h.seed = c.seed;
    return h;
  }

  netwide::netwide_harness<source_hierarchy> harness_;
  std::vector<load_balancer> balancers_;
  std::unordered_set<std::uint64_t> blocked_;
  cluster_config config_;
  std::uint64_t requests_ = 0;
};

}  // namespace memento::lb
