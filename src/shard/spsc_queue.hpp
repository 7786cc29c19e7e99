// Bounded single-producer / single-consumer ring for the sharded ingest
// path: the frontend (producer) partitions each burst and appends every
// shard's keys to that shard's ring; the shard's worker thread (consumer)
// drains *contiguous* spans straight into memento_sketch::update_batch.
//
// Design points:
//   * monotonic 64-bit head/tail counters (never wrapped; the slot index is
//     `count & mask`), so full/empty tests are plain subtraction and the
//     ABA problem cannot arise;
//   * the producer caches the consumer's head and the consumer caches the
//     producer's tail, so the hot path touches one foreign cache line only
//     when its cached view says the ring is full/empty (classic Rigtorp
//     refresh-on-miss);
//   * the consumer reads in place: front_span() exposes the longest
//     contiguous readable run, which update_batch consumes with zero copy -
//     under backpressure the spans grow toward the ring capacity, so the
//     busier the system, the bigger the batches (the same self-batching
//     effect the batch kernel was built for);
//   * head and tail live on separate cache lines (alignas) to keep the two
//     threads from false-sharing the indices.
//
// Memory ordering: the producer's tail.store(release) publishes the slots it
// wrote; the consumer's matching load(acquire) licenses reading them. The
// consumer's head.store(release) both recycles slots *and* publishes every
// sketch mutation it made while processing - which is what makes
// "ring empty (acquire)" a sufficient quiescence test for pipeline::drain().
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace memento {

template <typename T>
class spsc_ring {
 public:
  /// @param capacity slot count; rounded up to a power of two, >= 2.
  explicit spsc_ring(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  // --- producer side -------------------------------------------------------

  /// Appends up to n items; returns how many were accepted (0 when full).
  /// Split writes across the physical wrap are handled internally.
  std::size_t try_push(const T* xs, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity() - static_cast<std::size_t>(tail - head_cache_);
    if (free < n) {  // cached view full enough to matter: refresh from the consumer
      head_cache_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<std::size_t>(tail - head_cache_);
    }
    const std::size_t take = n < free ? n : free;
    if (take == 0) return 0;
    const std::size_t at = static_cast<std::size_t>(tail) & mask_;
    const std::size_t first = std::min(take, capacity() - at);
    for (std::size_t i = 0; i < first; ++i) buf_[at + i] = xs[i];
    for (std::size_t i = first; i < take; ++i) buf_[i - first] = xs[i];
    tail_.store(tail + take, std::memory_order_release);
    return take;
  }

  // --- consumer side -------------------------------------------------------

  /// Longest contiguous readable run: {pointer, length}. Length 0 == empty.
  /// The span stays valid until the matching pop(); items past the physical
  /// wrap surface on the next call.
  [[nodiscard]] std::pair<const T*, std::size_t> front_span() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {  // cached view empty: refresh from the producer
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return {nullptr, 0};
    }
    const std::size_t at = static_cast<std::size_t>(head) & mask_;
    const std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    return {buf_.data() + at, std::min(avail, capacity() - at)};
  }

  /// Releases n consumed items (n <= the last front_span().second). The
  /// release store also publishes everything the consumer wrote while
  /// holding them (see file comment).
  void pop(std::size_t n) {
    assert(n <= static_cast<std::size_t>(tail_cache_ - head_.load(std::memory_order_relaxed)));
    head_.store(head_.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }

  // --- shared --------------------------------------------------------------

  /// True when every pushed item has been popped. Callable from the producer
  /// (or any third thread) as a quiescence test; pairs with the consumer's
  /// release pop (see file comment).
  [[nodiscard]] bool drained() const noexcept {
    return head_.load(std::memory_order_acquire) == tail_.load(std::memory_order_acquire);
  }

  /// Instantaneous occupancy estimate (relaxed loads; exact from the
  /// producer thread, which owns tail_ - the occupancy/high-water counters
  /// the backpressure layer keeps are producer-side for that reason).
  [[nodiscard]] std::size_t approx_size() const noexcept {
    return static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                    head_.load(std::memory_order_relaxed));
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

 private:
  std::vector<T> buf_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor
  std::uint64_t tail_cache_ = 0;                    ///< consumer's view of tail_
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor
  std::uint64_t head_cache_ = 0;                    ///< producer's view of head_
};

}  // namespace memento
