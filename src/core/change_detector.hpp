// Heavy-hitter set CHANGE detection on sliding windows - the direction the
// paper's conclusion names as future work: "a mechanism that would allow
// constant-time updates for detection of changes in the (hierarchical) heavy
// hitters set".
//
// This module implements that mechanism for the flow-threshold set:
// it maintains, incrementally and in O(1) amortized time per packet, the set
// of keys whose window estimate is above the threshold, and emits an event
// stream of enter/leave transitions. Two ingredients keep it both O(1) and
// stable:
//
//   * Entry checks ride on Full updates only: a flow can only *become* a
//     heavy hitter by being counted, so checking the one key touched by each
//     Full update catches every entry (at the sketch's own granularity).
//   * Exit checks are de-amortized: each update probes one current member in
//     round-robin, so a member whose estimate decayed is noticed within
//     |members| updates - and |members| <= 1/theta_low + slack by definition
//     of the threshold, keeping the lag bounded and the per-packet cost O(1).
//   * Hysteresis (enter at theta_high, leave at theta_low < theta_high)
//     prevents flapping for flows hovering at the threshold.
//
// Works over any memento_sketch key type.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/memento.hpp"
#include "util/random.hpp"

namespace memento {

enum class change_kind : std::uint8_t { entered, left };

template <typename Key>
struct change_event {
  Key key{};
  change_kind kind = change_kind::entered;
  std::uint64_t at_packet = 0;  ///< stream position when the change was noticed
  double estimate = 0.0;        ///< the estimate that triggered the transition
};

/// Construction parameters for the detector.
struct change_detector_config {
  double theta_high = 0.01;  ///< enter when estimate >= theta_high * W
  double theta_low = 0.008;  ///< leave when estimate < theta_low * W
};

template <typename Key = std::uint64_t>
class hh_change_detector {
 public:
  hh_change_detector(const memento_config& sketch_config,
                     const change_detector_config& config)
      : sketch_(sketch_config), config_(config) {
    if (config.theta_low <= 0.0 || config.theta_low > config.theta_high ||
        config.theta_high >= 1.0) {
      throw std::invalid_argument("change_detector: need 0 < theta_low <= theta_high < 1");
    }
    sampler_.set_probability(sketch_.tau());
  }

  /// Processes one packet; O(1) amortized (one sketch update, at most one
  /// entry check and one round-robin exit probe).
  void update(const Key& x) {
    const bool full = sketch_update(x);
    if (full) check_entry(x);
    probe_one_member();
  }

  /// Drains the accumulated enter/leave events (oldest first).
  [[nodiscard]] std::vector<change_event<Key>> poll_events() {
    std::vector<change_event<Key>> out;
    out.swap(events_);
    return out;
  }

  /// The current heavy-hitter set (keys whose estimate was last seen above
  /// the low-water threshold).
  [[nodiscard]] std::vector<Key> current_set() const {
    std::vector<Key> out;
    out.reserve(members_.size());
    for (const auto& [key, live] : members_) {
      if (live) out.push_back(key);
    }
    return out;
  }

  [[nodiscard]] bool contains(const Key& x) const {
    const auto it = members_.find(x);
    return it != members_.end() && it->second;
  }

  [[nodiscard]] const memento_sketch<Key>& sketch() const noexcept { return sketch_; }
  [[nodiscard]] std::size_t set_size() const noexcept { return live_count_; }

 private:
  /// Runs the sketch update through the public full/window API with our own
  /// Bernoulli(tau) sampler, so the Full-update decision stays observable
  /// and the entry check runs exactly on counted packets.
  bool sketch_update(const Key& x) {
    if (sampler_.sample()) {
      sketch_.full_update(x);
      return true;
    }
    sketch_.window_update();
    return false;
  }

  void check_entry(const Key& x) {
    if (contains(x)) return;
    const double estimate = sketch_.query_midpoint(x);
    if (estimate >= config_.theta_high * static_cast<double>(sketch_.window_size())) {
      set_membership(x, true, estimate);
    }
  }

  void probe_one_member() {
    if (probe_queue_.empty()) return;
    if (probe_cursor_ >= probe_queue_.size()) {
      compact_probe_queue();
      if (probe_queue_.empty()) return;
    }
    const Key key = probe_queue_[probe_cursor_++];
    const auto it = members_.find(key);
    if (it == members_.end() || !it->second) return;  // already left
    const double estimate = sketch_.query_midpoint(key);
    if (estimate < config_.theta_low * static_cast<double>(sketch_.window_size())) {
      set_membership(key, false, estimate);
    }
  }

  void set_membership(const Key& key, bool live, double estimate) {
    auto [it, inserted] = members_.try_emplace(key, live);
    if (!inserted) {
      if (it->second == live) return;
      it->second = live;
    }
    if (live) {
      probe_queue_.push_back(key);
      ++live_count_;
    } else {
      --live_count_;
    }
    events_.push_back({key, live ? change_kind::entered : change_kind::left,
                       sketch_.stream_length(), estimate});
  }

  /// Rebuilds the round-robin queue from the live members (runs once per
  /// full pass; amortized O(1) per update).
  void compact_probe_queue() {
    probe_queue_.clear();
    for (const auto& [key, live] : members_) {
      if (live) probe_queue_.push_back(key);
    }
    // Drop long-dead entries so the map stays proportional to the live set.
    if (members_.size() > 4 * (live_count_ + 1)) {
      std::erase_if(members_, [](const auto& kv) { return !kv.second; });
    }
    probe_cursor_ = 0;
  }

  memento_sketch<Key> sketch_;
  change_detector_config config_;
  random_table_sampler sampler_{1.0, 1u << 16, 0x7e57ab1eULL};
  std::unordered_map<Key, bool> members_;  ///< key -> currently live
  std::vector<Key> probe_queue_;
  std::size_t probe_cursor_ = 0;
  std::size_t live_count_ = 0;
  std::vector<change_event<Key>> events_;
};

}  // namespace memento
