// Mitigation policy: the controller-side decision logic between detection
// and enforcement (Fig. 3: "it can mitigate the attack by instructing the
// clients which subnets to rate-limit or block").
//
// The cluster's raw loop blocks forever once a subnet crosses theta; this
// policy adds the production concerns around it:
//
//   * graduated response - subnets first get RATE-LIMITED at `limit_theta`,
//     and only DENIED outright at the higher `block_theta`;
//   * automatic recovery - a blocked/limited subnet whose estimated window
//     share falls below `release_theta` (hysteresis below limit_theta) is
//     released, so a flash crowd does not stay blackholed after it ends;
//   * bounded rule tables - at most `max_rules` subnets are acted on, most
//     aggressive shares first, since real load balancers cap ACL sizes.
//
// The policy is pure decision logic over (prefix -> estimated share)
// snapshots, so it is unit-testable without any network machinery and can
// drive either the acl/rate_limiter pair or an external enforcement plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarchy/prefix1d.hpp"

namespace memento::lb {

enum class mitigation_level : std::uint8_t { none, rate_limited, blocked };

struct mitigation_decision {
  std::uint64_t prefix_key = 0;
  mitigation_level from = mitigation_level::none;
  mitigation_level to = mitigation_level::none;
};

struct mitigation_config {
  double block_theta = 0.05;    ///< window share that triggers a full block
  double limit_theta = 0.02;    ///< share that triggers rate limiting
  double release_theta = 0.01;  ///< share below which actions are lifted
  std::size_t max_rules = 256;  ///< enforcement table capacity
};

class mitigation_policy {
 public:
  explicit mitigation_policy(const mitigation_config& config) : config_(config) {
    if (!(config.release_theta < config.limit_theta &&
          config.limit_theta < config.block_theta)) {
      throw std::invalid_argument(
          "mitigation: need release_theta < limit_theta < block_theta");
    }
    if (config.max_rules == 0) throw std::invalid_argument("mitigation: max_rules >= 1");
  }

  /// Evaluates a detection snapshot: (subnet prefix key -> estimated window
  /// share). Returns the level transitions to enforce, aggressive shares
  /// first. Subnets absent from the snapshot are treated as share 0 (their
  /// traffic vanished), so recovery needs no special casing.
  [[nodiscard]] std::vector<mitigation_decision> evaluate(
      const std::unordered_map<std::uint64_t, double>& shares) {
    std::vector<std::pair<std::uint64_t, double>> pairs(shares.begin(), shares.end());
    std::vector<mitigation_decision> decisions;
    evaluate(pairs, decisions);
    return decisions;
  }

  /// Allocation-free form of evaluate() for per-sweep callers that keep
  /// their own scratch: the snapshot arrives as (prefix key, share) pairs
  /// with distinct keys, and is REORDERED in place (sorted heaviest first);
  /// `out` is cleared and receives the transitions, so once its capacity
  /// has grown, only a brand-new rule (an active-table insert) allocates.
  /// Same decisions, in the same order, as the map overload handed a map
  /// that iterates in the pairs' order.
  void evaluate(std::span<std::pair<std::uint64_t, double>> shares,
                std::vector<mitigation_decision>& out) {
    out.clear();
    // Stamp each active rule with its share in this snapshot; a rule
    // without this sweep's stamp is absent from it (share 0).
    ++epoch_;
    for (const auto& [key, share] : shares) {
      if (const auto it = active_.find(key); it != active_.end()) {
        it->second.share = share;
        it->second.epoch = epoch_;
      }
    }

    // Release or downgrade existing rules first - this frees capacity.
    for (auto it = active_.begin(); it != active_.end();) {
      const double share = it->second.epoch == epoch_ ? it->second.share : 0.0;
      const mitigation_level current = it->second.level;
      mitigation_level next = current;
      if (share < config_.release_theta) {
        next = mitigation_level::none;
      } else if (current == mitigation_level::blocked && share < config_.limit_theta) {
        next = mitigation_level::rate_limited;
      }
      if (next != current) {
        out.push_back({it->first, current, next});
        if (next == mitigation_level::none) {
          it = active_.erase(it);
          continue;
        }
        it->second.level = next;
      }
      ++it;
    }

    // Escalations and new rules, heaviest subnets first.
    std::sort(shares.begin(), shares.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [key, share] : shares) {
      const mitigation_level target = share >= config_.block_theta
                                          ? mitigation_level::blocked
                                      : share >= config_.limit_theta
                                          ? mitigation_level::rate_limited
                                          : mitigation_level::none;
      if (target == mitigation_level::none) continue;
      const auto it = active_.find(key);
      const mitigation_level current =
          it == active_.end() ? mitigation_level::none : it->second.level;
      if (current == target) continue;
      // Never *downgrade* here (handled above); only escalate or add.
      if (current == mitigation_level::blocked) continue;
      if (current == mitigation_level::none && active_.size() >= config_.max_rules) {
        continue;  // table full: lighter subnets wait for capacity
      }
      active_[key].level = target;
      out.push_back({key, current, target});
    }
  }

  [[nodiscard]] mitigation_level level_of(std::uint64_t prefix_key) const {
    const auto it = active_.find(prefix_key);
    return it == active_.end() ? mitigation_level::none : it->second.level;
  }

  [[nodiscard]] std::size_t active_rules() const noexcept { return active_.size(); }
  [[nodiscard]] const mitigation_config& config() const noexcept { return config_; }

 private:
  /// An active rule, plus the share the current evaluate() sweep saw for
  /// it (valid only when `epoch` is the sweep's).
  struct rule {
    mitigation_level level = mitigation_level::none;
    double share = 0.0;
    std::uint64_t epoch = 0;
  };

  mitigation_config config_;
  std::unordered_map<std::uint64_t, rule> active_;
  std::uint64_t epoch_ = 0;
};

}  // namespace memento::lb
