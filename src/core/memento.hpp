// Memento (Algorithm 1): sliding-window heavy hitters with sampled Full
// updates and O(1) worst-case processing.
//
// The key idea (Section 4.1): decouple the expensive *Full update* (count the
// packet in the Space-Saving instance, record overflows) from the cheap
// *Window update* (advance the window clock and forget outdated data). Each
// packet triggers a Full update with probability tau and only a Window update
// otherwise, so Memento maintains a genuine W-packet window - avoiding the
// +-Theta(sqrt(W(1-tau)/tau)) reference-window error of naive uniform
// sampling - while paying the full data-structure cost on a tau fraction of
// packets. With tau = 1 Memento *is* WCSS [10].
//
// Structure (frames and blocks):
//   * the stream is cut into frames of W packets; each frame into k blocks;
//   * a Space-Saving instance `y` (k counters) approximately counts, within
//     the current frame, how often each item was *sampled*; it is flushed at
//     every frame boundary;
//   * every time an item's in-frame sampled count crosses a multiple of the
//     overflow threshold, the item is appended to the current block's queue
//     and its entry in the overflow table B is incremented;
//   * a ring of k+1 block queues covers the window; one queued item is
//     retired per packet (de-amortized, Algorithm 1 lines 8-11), so the
//     oldest queue is provably empty when its block expires. Appends only
//     go to the newest block and retirements only leave the oldest, so the
//     k+1 queues are stored as ONE FIFO ring of keys (oldest block first)
//     plus a live count per block slot.
//
// Overflow-threshold scaling: Algorithm 1 prints the threshold as W/k, which
// is exact for tau = 1. Under sampling, `y` counts *sampled* packets - about
// tau*W per frame - so the threshold must live in sampled units:
// T = max(1, round(W*tau/k)). Each overflow then still represents W/k
// *original* packets (T * tau^-1), which is what keeps the algorithm-side
// error epsilon_a = 4/k independent of tau, as required by Theorem 5.2 and
// matched by the flat error curves of Fig. 5. See DESIGN.md ("Design
// decisions"), item 3/4.
//
// Query (Algorithm 1 lines 22-25) returns a ONE-SIDED (over-)estimate:
// tau^-1 * (T*(B[x]+2) + (y.query(x) mod T)); the +2 blocks of slack absorb
// both the de-amortized retirement fuzz and the in-frame residue, mirroring
// MST's one-sided error. `query_lower` exposes the matching lower bound
// (upper minus the 4*T*tau^-1 worst-case width).
//
// Batched updates: `update_batch(xs, n)` (and the std::span overload)
// processes n packets with *identical observable state* to n scalar update()
// calls - the sampler is consumed in the same order, so the sampled sequence
// is the same for the same seed, and every queue/table mutation happens in
// the same order. There is one kernel at every tau. Per chunk,
// random_table_sampler::take hands over just the sampled offsets and
// update_batch_sampled hashes their keys in one pass, prefetching the
// counter-index slots, then walks the gaps between them, advancing the
// window in bulk - below tau = 1 a chunk costs its sampled count plus
// retirements and never touches an unsampled packet (Section 4.1). Where
// the rest of the chunk has no gap (all of it at tau = 1, where Memento is
// WCSS) the walk hands it to a run loop that hoists the per-packet
// block-boundary checks into a packets-until-boundary countdown. The
// per-packet overflow division is a multiply-based divisibility test
// throughout. H-Memento draws its decisions from this same sampler, picks
// what each sampled packet inserts, and drives the same kernel.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sketch/space_saving.hpp"
#include "util/compress.hpp"
#include "util/flat_hash.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace memento {

template <typename H>
class h_memento;

/// Construction parameters for `memento_sketch`.
struct memento_config {
  std::uint64_t window_size = 1 << 20;  ///< W, in packets
  std::size_t counters = 512;           ///< k: Space-Saving counters == blocks per frame
  double tau = 1.0;                     ///< Full-update probability; 1.0 == WCSS
  std::uint64_t seed = 1;               ///< sampler determinism handle

  /// The paper's parameterization k = ceil(4 / epsilon_a) (Section 4.1).
  [[nodiscard]] static memento_config from_epsilon(std::uint64_t window, double epsilon_a,
                                                   double tau = 1.0, std::uint64_t seed = 1) {
    memento_config c;
    c.window_size = window;
    c.counters = static_cast<std::size_t>(std::ceil(4.0 / epsilon_a));
    c.tau = tau;
    c.seed = seed;
    return c;
  }
};

template <typename Key = std::uint64_t>
class memento_sketch {
 public:
  /// A reported heavy hitter with its (one-sided) window-frequency estimate.
  struct heavy_hitter {
    Key key{};
    double estimate = 0.0;
  };

  explicit memento_sketch(const memento_config& config)
      : y_(config.counters > 0 ? config.counters : 1),
        sampler_(config.tau, 1u << 16, config.seed),
        tau_(std::clamp(config.tau, 0.0, 1.0)),
        inv_tau_(tau_ > 0.0 ? 1.0 / tau_ : 0.0),
        k_(config.counters > 0 ? config.counters : 1),
        seed_(config.seed) {
    if (config.window_size == 0) throw std::invalid_argument("memento: W must be >= 1");
    if (config.counters == 0) throw std::invalid_argument("memento: counters must be >= 1");
    if (config.tau <= 0.0 || config.tau > 1.0) {
      throw std::invalid_argument("memento: tau must be in (0, 1]");
    }
    // Round the block length up so k * block >= W; the effective frame is
    // k * block packets (>= W, < W + k). All guarantees hold for the rounded
    // window, which `window_size()` reports.
    block_len_ = (config.window_size + k_ - 1) / k_;
    if (block_len_ == 0) block_len_ = 1;
    frame_len_ = block_len_ * k_;
    until_block_end_ = block_len_;
    // Overflow threshold in *sampled* units (see file comment).
    threshold_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(frame_len_) * tau_ / static_cast<double>(k_))));
    // ceil(2^64 / T): `c * magic < magic` (mod 2^64) iff T divides c, for
    // T >= 2 [Lemire, Kaser & Granlund 2019]; T == 1 wraps magic to 0 and is
    // special-cased at the test site.
    threshold_magic_ = ~std::uint64_t{0} / threshold_ + 1;
    // Live-state bound that sizes both window structures. Every queued
    // overflow event (and so every live entry of B) comes from the last
    // k+1 blocks, which span at most two frames. Space-Saving's counts in
    // one frame sum to its S sampled adds, and a counter overflows once per
    // T of them, so a frame yields at most S/T events: exactly k at tau = 1
    // (S = frame_len, T = block_len), about k below it (S ~ tau * frame_len
    // ~ k * T). The window thus holds about 2k events and at most that many
    // live entries. Sampling noise and T's rounding can overshoot 2k a
    // little; the power-of-two round-up leaves headroom for that, and
    // enqueue() / find_or_emplace growth stays the safety net.
    live_.assign(k_ + 1, 0);
    ring_.resize(std::bit_ceil(2 * k_));
    overflows_.reserve(2 * k_);
  }

  memento_sketch(std::uint64_t window_size, std::size_t counters, double tau = 1.0,
                 std::uint64_t seed = 1)
      : memento_sketch(memento_config{window_size, counters, tau, seed}) {}

  /// Algorithm 1 UPDATE: Full update with probability tau, else Window update.
  void update(const Key& x) {
    if (sampler_.sample()) {
      full_update(x);
    } else {
      window_update();
    }
  }

  /// Batched UPDATE: equivalent to `for (i < n) update(xs[i])` - same sampled
  /// sequence for the same seed, same observable state afterwards - but
  /// amortizes sampling, hashing, and window bookkeeping over the batch (see
  /// file comment). This is the intended per-burst ingest call.
  void update_batch(const Key* xs, std::size_t n) {
    std::uint32_t idx[kBatchChunk];
    Key packed[kBatchChunk];
    for (std::size_t i = 0; i < n; i += kBatchChunk) {
      const std::size_t m = std::min(kBatchChunk, n - i);
      const std::size_t sampled = sampler_.take(idx, m);
      if (sampled == m) {  // every packet sampled (always at tau = 1): no copy
        update_batch_sampled(xs + i, idx, m, m);
        continue;
      }
      for (std::size_t t = 0; t < sampled; ++t) packed[t] = xs[i + idx[t]];
      update_batch_sampled(packed, idx, sampled, m);
    }
  }

  void update_batch(std::span<const Key> xs) { update_batch(xs.data(), xs.size()); }

  /// Batched update with the caller's decisions in COMPACTED form: of a run
  /// of n packets, exactly `sampled` trigger Full updates - the t-th at
  /// position idx[t] (strictly increasing, < n) with key keys[t]. State-
  /// identical to n scalar steps that full_update(keys[t]) at idx[t] and
  /// window_update() everywhere else, but the cost scales with the SAMPLED
  /// count plus retirements, not with n: unsampled gaps advance the window
  /// in bulk (advance_window), so a sparse-tau burst never walks per-packet
  /// scratch at all, and a gap-free tail (the whole chunk at tau = 1) runs
  /// through full_run's boundary-hoisted loop. This is the one batch kernel
  /// of update_batch and of H-Memento (h_memento::update_batch), which
  /// draws the decisions from this sketch's sampler and picks the prefixes
  /// with its own rng.
  void update_batch_sampled(const Key* keys, const std::uint32_t* idx, std::size_t sampled,
                            std::size_t n) {
    std::size_t buckets[kBatchChunk];
    std::size_t pos = 0;
    for (std::size_t t0 = 0; t0 < sampled; t0 += kBatchChunk) {
      const std::size_t c = std::min(kBatchChunk, sampled - t0);
      const Key* ks = keys + t0;
      const std::uint32_t* at = idx + t0;
      // Hash + prefetch the chunk's sampled slots up front (the hash is
      // pure); the counter-index misses then overlap the gap walks.
      for (std::size_t u = 0; u < c; ++u) buckets[u] = y_.index_bucket(ks[u]);
      for (std::size_t u = 0; u < c; ++u) y_.prefetch_bucket(buckets[u]);
      const std::size_t last = c - 1;
      for (std::size_t u = 0; u < c; ++u) {
        advance_window(static_cast<std::uint64_t>(at[u] - pos));
        // Offsets strictly increase, so they span exactly last - u packets
        // from here on iff none is skipped: the rest is gap-free.
        if (at[last] - at[u] == last - u) {
          full_run(ks + u, buckets + u, c - u);
          pos = at[last] + 1;
          break;
        }
        window_update();  // the sampled packet's own clock tick + retirement
        full_add(ks[u], buckets[u]);
        pos = at[u] + 1;
      }
    }
    advance_window(static_cast<std::uint64_t>(n - pos));
  }

  /// Algorithm 1 WINDOWUPDATE: advance the clock, expire frame/block state,
  /// retire (at most) one queued overflow of the oldest block. O(1). The
  /// block boundary fires on a decrementing countdown, not `clock % block`.
  void window_update() {
    ++stream_length_;
    ++clock_;
    if (--until_block_end_ == 0) {
      end_block();
    } else {
      retire_one();
    }
  }

  /// Algorithm 1 FULLUPDATE: a Window update plus counting x in y and
  /// recording an overflow whenever x's in-frame sampled count crosses a
  /// multiple of the threshold. O(1).
  void full_update(const Key& x) {
    window_update();
    const std::uint64_t count = y_.add(x);
    if (count % threshold_ == 0) {  // overflow (Algorithm 1 line 15)
      enqueue(x);
      ++overflows_.find_or_emplace(x, 0);
    }
  }

  /// Algorithm 1 QUERY: one-sided (never undercounting) window-frequency
  /// estimate of x, already scaled to original-packet units.
  [[nodiscard]] double query(const Key& x) const {
    return estimate(overflows_.find(x), y_.query(x));
  }

  /// query(x) when x has live state (an overflow entry in B or an in-frame
  /// counter in y), nullopt otherwise: the membership-aware lookup that
  /// HHH output resolves non-candidate ancestors with.
  [[nodiscard]] std::optional<double> query_if_live(const Key& x) const {
    const std::uint32_t* b = overflows_.find(x);
    if (b == nullptr && !y_.contains(x)) return std::nullopt;
    return estimate(b, y_.query(x));
  }

  /// Lower bound companion to query(): the estimate minus the worst-case
  /// width 4*T*tau^-1 (= epsilon_a * W for k = 4/epsilon_a), floored at 0.
  [[nodiscard]] double query_lower(const Key& x) const {
    return std::max(0.0, query(x) - estimate_width());
  }

  /// Midpoint of the [lower, upper] interval: a near-unbiased point estimate
  /// for threshold applications (e.g. rate-limit triggers) where the
  /// one-sided upper bound would systematically fire early.
  [[nodiscard]] double query_midpoint(const Key& x) const {
    return std::max(0.0, query(x) - 0.5 * estimate_width());
  }

  /// Worst-case width of the [lower, upper] estimate interval, in packets.
  [[nodiscard]] double estimate_width() const noexcept {
    return 4.0 * static_cast<double>(threshold_) * inv_tau_;
  }

  /// The one-sided slack every estimate carries even for a never-seen key:
  /// tau^-1 * 2T (Algorithm 1 line 25 with B[x] absent and zero residue) -
  /// query(x) >= miss_baseline() for every x. Subtracting it from query()
  /// yields the ATTRIBUTABLE window mass of a flow, which is the per-flow
  /// load signal the shard rebalancer samples candidates with
  /// (shard/rebalance.hpp).
  [[nodiscard]] double miss_baseline() const noexcept {
    return inv_tau_ * 2.0 * static_cast<double>(threshold_);
  }

  /// All window heavy hitters at threshold theta (fraction of W): flows whose
  /// one-sided estimate reaches theta * W. Guaranteed to contain every true
  /// window heavy hitter (every such flow overflows within the window).
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters(double theta) const {
    std::vector<heavy_hitter> out;
    out.reserve(overflows_.size());
    const double bar = theta * static_cast<double>(frame_len_);
    for_each_candidate([&](const Key& key, double est) {
      if (est >= bar) out.push_back({key, est});
    });
    std::sort(out.begin(), out.end(),
              [](const heavy_hitter& a, const heavy_hitter& b) { return a.estimate > b.estimate; });
    return out;
  }

  /// Iterates the candidate set (overflow-table entries - exactly the flows
  /// that accumulated at least one block within the window) without
  /// materializing a vector: fn(key, upper_estimate). The sharded frontend's
  /// merge path filters each shard's candidates in place through this hook,
  /// so a query across N shards allocates one output vector, not N+1.
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    overflows_.for_each([&](const Key& key, std::uint32_t) { fn(key, query(key)); });
  }

  /// Number of candidates for_each_candidate will visit; merge paths use it
  /// to reserve() their output exactly once.
  [[nodiscard]] std::size_t candidate_count() const noexcept { return overflows_.size(); }

  /// The k flows with the largest window estimates (ties broken
  /// arbitrarily). Candidates are the overflow-table entries - exactly the
  /// flows that accumulated at least one block within the window - so a
  /// flow needs roughly W/counters packets to be rankable, the same
  /// resolution as the estimates themselves.
  [[nodiscard]] std::vector<heavy_hitter> top(std::size_t k) const {
    std::vector<heavy_hitter> all;
    all.reserve(overflows_.size());
    for_each_candidate([&](const Key& key, double est) { all.push_back({key, est}); });
    const std::size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                      all.end(), [](const heavy_hitter& a, const heavy_hitter& b) {
                        return a.estimate > b.estimate;
                      });
    all.resize(keep);
    return all;
  }

  /// Visits each key with live state once - B's keys, then the keys only y
  /// counts - as fn(key, query(key)), at one table probe per visited key
  /// (B's count comes from the slot in hand; a y-only key's probe of B is
  /// its deduplication). A key is skipped with no probe when reaches()
  /// rejects a ceiling of its estimate: tau^-1 T (B[x] + 3) for B's keys
  /// (the residue is below T) and tau^-1 3T for the y-only ones, which skips
  /// that whole pass. Both are exact integers scaled by the same tau^-1, so
  /// for a monotone `reaches` a skipped key fails it on query(key) too.
  template <typename Reach, typename Fn>
  void for_each_live_key(Reach&& reaches, Fn&& fn) const {
    const double t = static_cast<double>(threshold_);
    overflows_.for_each([&](const Key& key, const std::uint32_t& b) {
      if (reaches(inv_tau_ * (t * (static_cast<double>(b) + 3.0)))) {
        fn(key, estimate(&b, y_.query(key)));
      }
    });
    if (!reaches(inv_tau_ * (3.0 * t))) return;
    y_.for_each([&](const Key& key, std::uint64_t count, std::uint64_t) {
      if (!overflows_.contains(key)) fn(key, estimate(nullptr, count));
    });
  }

  /// Keys with any live state (overflow entries plus in-frame counters), in
  /// for_each_live_key's order: the candidate set for hierarchical output
  /// (Algorithm 2 line 6).
  [[nodiscard]] std::vector<Key> monitored_keys() const {
    std::vector<Key> keys;
    keys.reserve(overflows_.size() + y_.size());
    for_each_live_key([](double) { return true; },
                      [&](const Key& key, double) { keys.push_back(key); });
    return keys;
  }

  // --- introspection ------------------------------------------------------

  /// Effective window size (W rounded up to a multiple of k; see ctor).
  [[nodiscard]] std::uint64_t window_size() const noexcept { return frame_len_; }
  [[nodiscard]] std::uint64_t block_length() const noexcept { return block_len_; }
  /// Position within the current frame (M in Algorithm 1: packets since the
  /// last frame flush, in [0, window_size())). The sharded frontend reads
  /// this to measure window-phase skew across shards.
  [[nodiscard]] std::uint64_t window_phase() const noexcept { return clock_; }
  [[nodiscard]] std::uint64_t overflow_threshold() const noexcept { return threshold_; }
  [[nodiscard]] std::size_t counters() const noexcept { return k_; }
  [[nodiscard]] double tau() const noexcept { return tau_; }
  /// The construction config recovered from live state; feeding it back
  /// through the ctor reproduces the exact geometry and sampler.
  [[nodiscard]] memento_config config_snapshot() const noexcept {
    return memento_config{frame_len_, k_, tau_, seed_};
  }
  /// Packets processed (window + full updates both advance the stream).
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return stream_length_; }
  /// Live entries in the overflow table B.
  [[nodiscard]] std::size_t overflow_entries() const noexcept { return overflows_.size(); }
  /// Defensive-drain events (should stay 0; asserted in tests).
  [[nodiscard]] std::uint64_t forced_drains() const noexcept { return forced_drains_; }
  /// Overflow appends recorded in the (still open) current block: its ring
  /// slot's live count, since retirement only ever leaves the oldest block.
  [[nodiscard]] std::uint64_t block_overflow_appends() const noexcept {
    return live_[head_];
  }
  /// Peak per-block overflow-append count over the completed blocks still
  /// in the window (all but the open block and the oldest, which is being
  /// retired from): the window-burstiness signal. Computed on demand from
  /// the block ring - each such slot's live count is exactly its block's
  /// appends. Introspection only; a restored sketch reports the restored
  /// window's peak.
  [[nodiscard]] std::uint64_t block_overflow_peak() const noexcept {
    std::size_t peak = 0;
    const std::size_t tail = tail_index();
    for (std::size_t s = 0; s < live_.size(); ++s) {
      if (s != head_ && s != tail) peak = std::max(peak, live_[s]);
    }
    return peak;
  }
  /// Probe-behavior stats of the Space-Saving counter index (flat_hash).
  [[nodiscard]] flat_hash_stats counter_index_stats() const { return y_.index_stats(); }
  /// Probe-behavior stats of the overflow table B.
  [[nodiscard]] flat_hash_stats overflow_table_stats() const { return overflows_.stats(); }

  // --- snapshot support ------------------------------------------------------
  // A snapshot captures the complete algorithm state: configuration (from
  // which the derived geometry and the sampler's random table are rebuilt),
  // the in-frame Space-Saving structure, the overflow table B, the block
  // ring (each slot's live count, then the queued keys in slot order from
  // slot 0, whatever the FIFO's position in memory), the window clock, and
  // the sampler cursor. restore(save(s)) answers every query
  // bit-identically to s and - fed the same suffix - continues the stream
  // bit-identically (pinned by tests/snapshot_test.cpp).

  static constexpr std::uint16_t kWireTag = 0x4d53;  ///< "MS"
  static constexpr std::uint16_t kWireVersion = 2;

  /// Serializes the sketch as one section: scalars, the Space-Saving and
  /// overflow substructures, then the block ring as per-slot live counts
  /// followed by ONE concatenated key column (queued keys across the whole
  /// ring compress together - they are the same key universe).
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    s.u8(wire::kCodecPacked);
    s.u64(frame_len_);
    s.varint(k_);
    s.f64(tau_);
    s.u64(seed_);
    s.u64(clock_);
    s.u64(stream_length_);
    s.u64(forced_drains_);
    s.varint(head_);
    s.varint(sampler_.cursor());
    y_.save(s);
    overflows_.save(s);
    for (const std::size_t live : live_) s.varint(live);
    std::size_t f = slot_order_start();
    wire::put_key_column<Key>(s, ring_size_, [&]() -> const Key& {
      const Key& key = queued(f);
      if (++f == ring_size_) f = 0;
      return key;
    });
    s.end_section();
  }

  /// Rebuilds a sketch from save() output; nullopt on any malformed input
  /// (version/tag mismatch, inconsistent geometry, out-of-range clock or
  /// cursor, corrupt substructures, CRC mismatch) - never a crash or a
  /// partially constructed object. The derived quantities (block length,
  /// overflow threshold, sampler table) are recomputed from the serialized
  /// configuration, so only genuine state crosses the wire.
  [[nodiscard]] static std::optional<memento_sketch> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    if (!wire::get_codec_flags(s)) return std::nullopt;
    std::uint64_t frame = 0, k = 0, seed = 0, clock = 0, stream = 0, drains = 0;
    std::uint64_t head = 0, cursor = 0;
    double tau = 0.0;
    if (!s.u64(frame) || !s.varint(k) || !s.f64(tau) || !s.u64(seed) || !s.u64(clock) ||
        !s.u64(stream) || !s.u64(drains) || !s.varint(head) || !s.varint(cursor)) {
      return std::nullopt;
    }
    // The counter cap matches space_saving::kMaxRestoreCounters: it bounds
    // the transient allocation a crafted tiny snapshot can trigger.
    if (k == 0 || k > (std::uint64_t{1} << 18) || frame == 0) return std::nullopt;
    if (!(tau > 0.0) || tau > 1.0) return std::nullopt;  // excludes NaN too
    if (clock >= frame || head > k) return std::nullopt;

    memento_sketch out(memento_config{frame, static_cast<std::size_t>(k), tau, seed});
    // An honest save's frame length is block_len * k exactly; anything else
    // would silently shift every window boundary.
    if (out.frame_len_ != frame) return std::nullopt;
    if (!out.set_restored_scalars(clock, stream, drains, head, cursor)) return std::nullopt;
    if (!out.y_.restore_in_place(s)) return std::nullopt;
    if (!out.overflows_.restore(s)) return std::nullopt;
    // No byte-budget guard is possible on a stream, so cap the total queued
    // keys absolutely: an honest ring never holds more than ~W overflow
    // events, and 2^22 (32 MB of keys) is far above any tested config while
    // bounding what a lying count can make restore allocate.
    std::uint64_t total = 0;
    for (std::size_t& live : out.live_) {
      std::uint64_t n = 0;
      if (!s.varint(n) || n > (std::uint64_t{1} << 22) - total) return std::nullopt;
      total += n;
      live = static_cast<std::size_t>(n);
    }
    // Keys land in slot order from ring position 0; one rotation at the end
    // puts the oldest block first.
    out.reserve_ring(static_cast<std::size_t>(total));
    if (!wire::get_key_column<Key>(s, static_cast<std::size_t>(total), [&](const Key& key) {
          out.ring_[out.ring_size_++] = key;
          return true;
        })) {
      return std::nullopt;
    }
    if (!s.close_section()) return std::nullopt;
    out.slot_order_to_fifo();
    return out;
  }

 private:
  friend class snapshot_builder;  ///< reshard's bulk state loader (snapshot/reshard.hpp)
  template <typename H>
  friend class h_memento;  ///< samples packets through sampler_, then inserts prefixes

  /// Packets per batch-kernel chunk: bounds the offset/key/bucket scratch
  /// (256 entries each, a few KB of stack) and the prefetch window.
  static constexpr std::size_t kBatchChunk = 256;

  /// Algorithm 1 lines 22-25 from the two lookups: x's overflow count in B
  /// (nullptr when absent) and y.query(x).
  [[nodiscard]] double estimate(const std::uint32_t* b, std::uint64_t y_count) const {
    const double residue = static_cast<double>(y_count % threshold_);
    const double t = static_cast<double>(threshold_);
    if (b != nullptr) return inv_tau_ * (t * static_cast<double>(*b + 2) + residue);
    return inv_tau_ * (2.0 * t + residue);  // no overflows (line 25)
  }

  /// The restored window clock, stream counters, ring head and sampler
  /// cursor (range-checked by the caller, except the cursor).
  [[nodiscard]] bool set_restored_scalars(std::uint64_t clock, std::uint64_t stream,
                                          std::uint64_t drains, std::uint64_t head,
                                          std::uint64_t cursor) {
    if (!sampler_.set_cursor(static_cast<std::size_t>(cursor))) return false;
    clock_ = clock;
    until_block_end_ = block_len_ - clock % block_len_;
    stream_length_ = stream;
    forced_drains_ = drains;
    head_ = static_cast<std::size_t>(head);
    return true;
  }

  /// m consecutive Full updates (m <= kBatchChunk, keys prehashed into
  /// buckets): the gap-free case of the batch kernel. Mutation order is
  /// exactly the scalar order - per packet: boundary work, one retirement,
  /// then the Full-update add - so batch and scalar runs are state-
  /// identical; the packets are replayed in runs that end at the next block
  /// boundary, so the boundary test leaves the per-packet loop entirely.
  void full_run(const Key* xs, const std::size_t* buckets, std::size_t m) {
    std::size_t j = 0;
    while (j < m) {
      const bool boundary = until_block_end_ <= static_cast<std::uint64_t>(m - j);
      const std::size_t run = boundary ? static_cast<std::size_t>(until_block_end_) : m - j;
      const std::size_t interior_end = j + run - (boundary ? 1 : 0);
      // Interior packets see no boundary. Retirements pop the oldest block's
      // queue while appends go to the newest, so once the tail queue drains
      // it stays empty for the rest of the run and the retire test vanishes.
      const std::size_t tail = tail_index();
      for (; j < interior_end && live_[tail] > 0; ++j) {
        drop_oldest(tail);
        full_add(xs[j], buckets[j]);
      }
      for (; j < interior_end; ++j) full_add(xs[j], buckets[j]);
      stream_length_ += run;
      clock_ += run;
      if (boundary) {
        end_block();  // the run's last packet closes a block
        full_add(xs[j], buckets[j]);
        ++j;
      } else {
        until_block_end_ -= run;
      }
    }
  }

  /// Full-update tail for the batch path: the Space-Saving add (prehashed)
  /// plus the overflow test, with the per-packet `% threshold_` replaced by
  /// the multiply-based divisibility check (magic == 0 encodes T == 1).
  void full_add(const Key& x, std::size_t bucket) {
    const std::uint64_t count = y_.add_prehashed(bucket, x);
    if (count * threshold_magic_ < threshold_magic_ || threshold_ == 1) {
      enqueue(x);
      ++overflows_.find_or_emplace(x, 0);
    }
  }

  /// r consecutive Window updates with no Full adds, in O(block boundaries
  /// + retirements) instead of O(r). Within one block segment the oldest
  /// queue is fixed and each packet retires at most one of its overflows,
  /// so the segment's combined effect is min(length, queued) drops; a
  /// boundary packet replays the scalar order through end_block().
  void advance_window(std::uint64_t r) {
    stream_length_ += r;
    while (r >= until_block_end_) {
      const std::uint64_t run = until_block_end_;
      retire_up_to(run - 1);
      clock_ += run;
      r -= run;
      end_block();
    }
    if (r > 0) {
      retire_up_to(r);
      clock_ += r;
      until_block_end_ -= r;
    }
  }

  /// At most `budget` retirements from the current oldest block's queue.
  void retire_up_to(std::uint64_t budget) {
    const std::size_t tail = tail_index();
    const auto avail = static_cast<std::uint64_t>(live_[tail]);
    for (std::uint64_t d = std::min(budget, avail); d > 0; --d) drop_oldest(tail);
  }

  /// The block-boundary step, run by the packet that closes a block after
  /// its clock tick: flush y at the frame edge (frame ends are block ends,
  /// so the clock hits frame_len_ exactly, never jumps over it), let the
  /// oldest queue leave the window so its slot becomes the current block
  /// (Algorithm 1 lines 5-7), restart the countdown, then the packet's own
  /// retirement from the NEW oldest queue - the scalar window_update() order.
  void end_block() {
    if (clock_ == frame_len_) {  // new frame (M = 0)
      clock_ = 0;
      y_.flush();
    }
    head_ = head_ + 1 == live_.size() ? 0 : head_ + 1;
    // The claimed slot held the expired oldest queue. De-amortized
    // retirement guarantees it is already empty; drain defensively if not
    // so the overflow table can never leak (counted for the tests).
    while (live_[head_] > 0) {
      ++forced_drains_;
      drop_oldest(head_);
    }
    until_block_end_ = block_len_;
    retire_one();
  }

  /// Retires at most one overflow of the oldest block (lines 8-11).
  void retire_one() {
    const std::size_t tail = tail_index();
    if (live_[tail] > 0) drop_oldest(tail);
  }

  /// Retires the FIFO front, which belongs to `slot`: the oldest block
  /// slot still holding events.
  void drop_oldest(std::size_t slot) {
    const Key& old_id = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --ring_size_;
    --live_[slot];
    if (std::uint32_t* count = overflows_.find(old_id)) {
      if (--(*count) == 0) overflows_.erase(old_id);
    }
  }

  /// Appends an overflow event of the current block.
  void enqueue(const Key& x) {
    if (ring_size_ == ring_.size()) reserve_ring(ring_size_ + 1);
    ring_[(ring_head_ + ring_size_) & (ring_.size() - 1)] = x;
    ++ring_size_;
    ++live_[head_];
  }

  /// Grows the ring (never shrinks) to a power of two >= n, re-laying the
  /// queued keys from position 0.
  void reserve_ring(std::size_t n) {
    if (n <= ring_.size()) return;
    std::vector<Key> grown(std::bit_ceil(n));
    for (std::size_t f = 0; f < ring_size_; ++f) grown[f] = queued(f);
    ring_ = std::move(grown);
    ring_head_ = 0;
  }

  /// The f-th queued key, oldest first.
  [[nodiscard]] const Key& queued(std::size_t f) const noexcept {
    return ring_[(ring_head_ + f) & (ring_.size() - 1)];
  }

  /// FIFO position of block slot 0's first key. The FIFO runs tail, ...,
  /// k, 0, ..., head, so slot order (the wire's) starts after the slots
  /// [tail, k] - or at the front when the tail is slot 0.
  [[nodiscard]] std::size_t slot_order_start() const noexcept {
    const std::size_t tail = tail_index();
    if (tail == 0) return 0;
    std::size_t off = 0;
    for (std::size_t s = tail; s < live_.size(); ++s) off += live_[s];
    return off == ring_size_ ? 0 : off;
  }

  /// Restore tail: the keys were read in slot order into ring positions
  /// [0, ring_size_); one rotation makes them oldest-block-first.
  void slot_order_to_fifo() {
    ring_head_ = 0;
    const std::size_t off = slot_order_start();
    if (off == 0) return;
    const auto first = ring_.begin();
    std::rotate(first, first + static_cast<std::ptrdiff_t>(ring_size_ - off),
                first + static_cast<std::ptrdiff_t>(ring_size_));
  }

  /// FIFO position of every block slot's first key (reshard's walk).
  [[nodiscard]] std::vector<std::size_t> block_starts() const {
    std::vector<std::size_t> start(live_.size());
    std::size_t at = 0;
    for (std::size_t a = 0, s = tail_index(); a < live_.size(); ++a) {
      start[s] = at;
      at += live_[s];
      s = s + 1 == live_.size() ? 0 : s + 1;
    }
    return start;
  }

  /// Oldest live block: the slot after head in the (k+1)-ring.
  [[nodiscard]] std::size_t tail_index() const noexcept {
    return head_ + 1 == live_.size() ? 0 : head_ + 1;
  }

  space_saving<Key> y_;                       ///< in-frame sampled counts
  random_table_sampler sampler_;              ///< Bernoulli(tau) decisions
  flat_hash<Key, std::uint32_t> overflows_;   ///< the table B
  std::vector<Key> ring_;                     ///< queued overflow keys, oldest block first
  std::size_t ring_head_ = 0;                 ///< ring_ position of the oldest key
  std::size_t ring_size_ = 0;                 ///< queued keys
  std::vector<std::size_t> live_;             ///< per block slot (k+1): its queued keys
  std::size_t head_ = 0;                      ///< current block slot
  double tau_;
  double inv_tau_;
  std::size_t k_;
  std::uint64_t block_len_ = 1;
  std::uint64_t frame_len_ = 1;
  std::uint64_t threshold_ = 1;
  std::uint64_t threshold_magic_ = 0;  ///< ceil(2^64 / T); 0 encodes T == 1
  std::uint64_t clock_ = 0;            ///< M: position within the frame
  std::uint64_t until_block_end_ = 1;  ///< packets until the block boundary fires
  std::uint64_t stream_length_ = 0;
  std::uint64_t forced_drains_ = 0;
  std::uint64_t seed_ = 1;             ///< construction seed (snapshots rebuild the sampler from it)
};

}  // namespace memento
