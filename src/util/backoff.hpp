// Idle-progressive backoff shared by every busy-poll loop in the repository
// (the pipeline's core loops, its producer's full-ring waits, and drain()).
//
// A run-to-completion worker alternates between two regimes: hot (a burst is
// usually waiting, and any sleep costs a ring's worth of latency) and idle
// (the producer paused, and spinning burns a whole core per shard - exactly
// what a minutes-long soak cannot afford). The ladder escalates with
// consecutive empty polls and resets to the bottom on any progress:
//
//   stage 0  (idle < 16)   tight spin        - producer is mid-burst;
//   stage 1  (idle < 64)   cpu_relax()       - PAUSE/YIELD hint: stay
//                          runnable, stop speculating, free the hyper-twin;
//   stage 2  (idle < 128)  std::this_thread::yield() - give the scheduler a
//                          chance when threads exceed cores;
//   stage 3  (idle >= 128) exponential sleep capped at 128us - an idle shard
//                          costs ~0 CPU, yet wakes within a ring-fill's time.
//
// The cap keeps the worst-case wakeup latency two orders of magnitude below
// a soak's measurement granularity while dropping idle CPU to noise.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace memento {

/// One CPU "relax" hint: x86 PAUSE / arm YIELD, a no-op elsewhere. Keeps the
/// thread runnable (unlike yield()) but backs the core off speculative spin.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Escalating wait ladder. Call idle() on every empty poll and reset() on
/// any progress; the object is cheap enough to live on a worker's stack.
class idle_backoff {
 public:
  /// One empty poll: wait according to the current stage, then escalate.
  void idle() noexcept {
    const std::uint32_t n = count_ < kSaturate ? count_++ : count_;
    if (n < kSpin) {
      // tight spin: the next burst is usually already in flight
    } else if (n < kRelax) {
      cpu_relax();
    } else if (n < kYield) {
      std::this_thread::yield();
    } else {
      const std::uint32_t exp = n - kYield < kMaxExp ? n - kYield : kMaxExp;
      std::this_thread::sleep_for(std::chrono::microseconds(1u << exp));  // caps at 128us
    }
  }

  /// Progress was made: drop back to the tight-spin stage.
  void reset() noexcept { count_ = 0; }

  /// Consecutive empty polls since the last reset (saturating; for tests).
  [[nodiscard]] std::uint32_t idle_polls() const noexcept { return count_; }

  /// True once the ladder has escalated past the spin/relax stages, i.e.
  /// the thread has started ceding the core (yield or sleep).
  [[nodiscard]] bool parked() const noexcept { return count_ >= kYield; }

 private:
  static constexpr std::uint32_t kSpin = 16;
  static constexpr std::uint32_t kRelax = 64;
  static constexpr std::uint32_t kYield = 128;
  static constexpr std::uint32_t kMaxExp = 7;  ///< 2^7 us = 128us sleep cap
  static constexpr std::uint32_t kSaturate = kYield + kMaxExp;

  std::uint32_t count_ = 0;
};

}  // namespace memento
