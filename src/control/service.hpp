// controller_service: the thread + lock that turn the controller brain into
// a running autonomic loop.
//
// Concurrency model - ONE rule: the host behaves as if it had a single
// producer thread, and the control lock decides who that producer is at any
// instant. The deployments' hot paths (SPSC rings, worker-per-shard) stay
// lock-free and untouched; the lock only serializes the PRODUCER-SIDE
// surface - ingest bursts, monitor ticks, operator actions - against each
// other:
//
//   application thread        apply([&]{ pipe.process(burst); })
//   monitor thread            lock; brain.tick(host); unlock
//   operator / fault harness  apply(...), restore()
//
// Actions that quiesce (rebalance / rescale / checkpoint / restore) run the
// host's drain barrier while holding the lock; the blocked application
// thread simply resumes ingesting afterward, exactly as if it had called
// rebalance() itself - which is what keeps the whole arrangement TSan-clean
// without adding a single atomic to the packet path. A contended tick costs
// the producer one drain, bounded by ring capacity.
//
// Pacing: the monitor thread polls the injected clock_face against the
// brain's next_due_ns() and rides util/backoff.hpp's idle-progressive
// ladder between deadlines - with a fake_clock the thread parks at the
// ladder's cap (~128us sleeps) until a test advances time, so the
// deterministic soak does not busy-burn a core. Cooperative embeddings can
// skip start() entirely and call tick() from their own loop (the appliance
// does this between bursts: same brain, same lock, no extra thread).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "control/clock.hpp"
#include "control/controller.hpp"
#include "control/events.hpp"
#include "util/backoff.hpp"

namespace memento {

template <typename Host>
class controller_service {
 public:
  controller_service(Host& host, const controller_config& config, const clock_face& clock)
      : host_(&host), clk_(&clock), brain_(config, clock) {}

  ~controller_service() { stop(); }
  controller_service(const controller_service&) = delete;
  controller_service& operator=(const controller_service&) = delete;

  /// Spawns the monitor thread. Idempotent.
  void start() {
    if (running_) return;
    stop_.store(false, std::memory_order_release);
    monitor_ = std::thread([this] { monitor_loop(); });
    running_ = true;
  }

  /// Stops and joins the monitor thread. Safe when not started.
  void stop() {
    if (!running_) return;
    stop_.store(true, std::memory_order_release);
    monitor_.join();
    running_ = false;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The producer gate: runs `fn` under the control lock. Route EVERY
  /// producer-side touch of the host's deployment through here while the
  /// service runs - ingest bursts, queries after drain, fault injection.
  template <typename Fn>
  decltype(auto) apply(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::forward<Fn>(fn)();
  }

  /// One cooperative monitor tick on the calling thread (no-thread
  /// embeddings and deterministic tests). Same lock as the monitor thread,
  /// so mixing modes is safe, just pointless.
  void tick() {
    std::lock_guard<std::mutex> lock(mu_);
    brain_.tick(*host_);
  }

  /// True when the brain's next deadline has passed on the injected clock -
  /// cooperative embeddings poll this between bursts and call tick() when it
  /// fires, mirroring the monitor thread's own pacing.
  [[nodiscard]] bool due() const {
    std::lock_guard<std::mutex> lock(mu_);
    return clk_->now_ns() >= brain_.next_due_ns();
  }

  /// Crash recovery: replaces the deployment from the latest checkpoint
  /// (host restore under the lock) and logs it. Returns the restored global
  /// stream length, 0 when no image was usable. Only instantiable against
  /// hosts that support restore (pipeline_host).
  std::uint64_t restore() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t len = host_->restore();
    if (len > 0) brain_.note(control_event::restored, len);
    return len;
  }

  // --- observability (each snapshots under the lock) ------------------------

  [[nodiscard]] std::vector<control_record> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.log().records();
  }
  [[nodiscard]] std::vector<control_event> decisions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.log().decisions();
  }
  [[nodiscard]] std::size_t count(control_event kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.log().count(kind);
  }
  [[nodiscard]] bool alarm() const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.alarm();
  }
  [[nodiscard]] double last_load_ratio() const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.last_load_ratio();
  }
  [[nodiscard]] double last_coverage_spread() const {
    std::lock_guard<std::mutex> lock(mu_);
    return brain_.last_coverage_spread();
  }

 private:
  void monitor_loop() {
    idle_backoff backoff;
    while (!stop_.load(std::memory_order_acquire)) {
      std::uint64_t due;
      {
        std::lock_guard<std::mutex> lock(mu_);
        due = brain_.next_due_ns();
      }
      if (clk_->now_ns() >= due) {
        std::lock_guard<std::mutex> lock(mu_);
        brain_.tick(*host_);
        backoff.reset();
      } else {
        backoff.idle();
      }
    }
  }

  Host* host_;
  const clock_face* clk_;
  controller brain_;
  mutable std::mutex mu_;
  std::atomic<bool> stop_{false};
  std::thread monitor_;
  bool running_ = false;
};

}  // namespace memento
