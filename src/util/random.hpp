// Fast pseudo-random primitives used on the packet-processing hot path.
//
// The Memento paper (Section 6.2) attributes part of Memento's speed edge over
// RHHH to *how* sampling is implemented: RHHH draws a geometric random
// variable per sampled packet (expensive log/division at small probabilities),
// whereas Memento consults a precomputed random-number table. Both schemes are
// provided here so the ablation bench can reproduce that comparison:
//
//   * `random_table_sampler`  - table-driven Bernoulli(tau) decisions, O(1)
//                               with no floating point on the hot path; the
//                               table keeps only its sampled positions, so a
//                               batch of n decisions costs O(tau * n).
//   * `geometric_sampler`     - skip-count sampling, one log() per *sampled*
//                               packet (amortized fast at small tau).
//
// The base generator is xoshiro256** seeded via splitmix64: fast, high
// quality, and deterministic across platforms, which keeps every experiment
// in this repository reproducible from a seed.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

namespace memento {

/// splitmix64's full-avalanche finalizer: every output bit depends on every
/// input bit. Shared by the seed expander below and by flat_hash, which
/// masks hashes to a power-of-two range and so needs avalanched low bits.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64 step; used to expand a single 64-bit seed into generator state.
/// Returns the next value and advances `state`.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  return mix64(state);
}

/// Maps a uniform 64-bit value into [0, n) without modulo bias or division
/// (Lemire's multiply-shift reduction). Consumes the *high* bits of x, so it
/// composes with mix64 even when a power-of-two consumer (flat_hash) is
/// already using the low bits of the same avalanche - the shard partitioner
/// relies on exactly that independence.
[[nodiscard]] constexpr std::uint64_t fastrange64(std::uint64_t x, std::uint64_t n) noexcept {
  __extension__ using uint128 = unsigned __int128;
  return static_cast<std::uint64_t>((static_cast<uint128>(x) * n) >> 64);
}

/// xoshiro256** by Blackman & Vigna: 256-bit state, period 2^256 - 1.
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be used
/// with <random> distributions in non-hot-path code.
class xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds all four words from `seed` via splitmix64 (never all-zero).
  explicit constexpr xoshiro256(std::uint64_t seed = 0x8f1e9a2b5c3d7e4fULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) using the top 53 bits.
  [[nodiscard]] constexpr double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  [[nodiscard]] std::uint64_t bounded(std::uint64_t bound) noexcept {
    return fastrange64((*this)(), bound);
  }

  /// Bulk counterpart of bounded() for batched update paths (the level
  /// column of H-Memento's batch kernel): writes the next n draws from
  /// [0, bound) into out, consuming the generator exactly as n sequential
  /// bounded() calls would - same draws, same state afterwards - so batch
  /// and scalar consumers pick identical generalizations from one seed.
  /// bound must fit a byte (every byte-granularity lattice does: H <= 25).
  void fill_bounded_u8(std::uint8_t* out, std::size_t n, std::uint64_t bound) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint8_t>(fastrange64((*this)(), bound));
    }
  }

  using state_type = std::array<std::uint64_t, 4>;

  /// Generator state, for checkpoint/restore (snapshot layer). Restoring the
  /// state restores the exact output sequence.
  [[nodiscard]] constexpr state_type state() const noexcept { return state_; }

  /// Replaces the state. Rejects the all-zero state (the one fixpoint the
  /// generator cannot leave), so a malformed snapshot cannot wedge the PRNG.
  constexpr bool set_state(const state_type& s) noexcept {
    if ((s[0] | s[1] | s[2] | s[3]) == 0) return false;
    state_ = s;
    return true;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Table-driven Bernoulli(tau) sampler: the paper's "random number table"
/// (Section 6.2). Decision i of the table is `draw_i < tau * 2^64` for the
/// i-th raw 64-bit draw of a seeded xoshiro256; the cursor wraps, so the
/// table acts as a recycled randomness pool: table_size only needs to be
/// large relative to the correlation structure the consumer cares about (the
/// benches use 2^16 entries, > 10x any counter count evaluated).
///
/// Only the SAMPLED positions are stored: the table is built once (one pass
/// of draws, branch-free compaction) into the sorted list of positions whose
/// decision is true, terminated by a table_size sentinel, and the raw draws
/// are dropped. State is therefore ~4 * tau * table_size bytes - 4 KB at
/// tau = 1/64, nothing at all at tau = 1 - instead of 8 bytes per entry, and
/// a run of n decisions costs O(sampled) rather than O(n): take() emits the
/// sampled offsets directly, which is what lets the sparse batch kernels'
/// per-burst cost track tau. sample(), fill(), take(), cursor() and
/// set_cursor() all walk the same decision stream, draw for draw.
class random_table_sampler {
 public:
  /// @param tau        sampling probability in [0, 1].
  /// @param table_size number of decisions in the table (> 0; 0 is taken as
  ///                   1; must be < 2^32 so positions fit 32 bits).
  /// @param seed       PRNG seed for table generation.
  explicit random_table_sampler(double tau, std::size_t table_size = 1u << 16,
                                std::uint64_t seed = 1)
      : table_size_(table_size > 0 ? table_size : 1), seed_(seed) {
    if (table_size_ > std::numeric_limits<std::uint32_t>::max() - std::size_t{1}) {
      throw std::invalid_argument("random_table_sampler: table_size must be < 2^32");
    }
    set_probability(tau);
  }

  /// Re-targets the sampler: the same seed's draws, compared against the new
  /// threshold. The cursor is kept.
  void set_probability(double tau) {
    if (tau >= 1.0) {
      threshold_ = std::numeric_limits<std::uint64_t>::max();
      always_ = true;
    } else if (tau <= 0.0) {
      threshold_ = 0;
      always_ = false;
    } else {
      threshold_ = static_cast<std::uint64_t>(
          tau * static_cast<double>(std::numeric_limits<std::uint64_t>::max()));
      always_ = false;
    }
    rebuild();
  }

  /// One Bernoulli(tau) decision; O(1), no floating point.
  [[nodiscard]] bool sample() noexcept {
    if (always_) return true;
    const bool hit = positions_[next_] == cursor_;
    next_ += hit ? 1 : 0;
    advance(1);
    return hit;
  }

  /// Bulk-decision API for batched update paths: writes the next n Bernoulli
  /// decisions into out, consuming the table exactly as n sequential sample()
  /// calls would (same decisions, same cursor advance), so batch and scalar
  /// consumers see the same sampled sequence from the same seed.
  void fill(bool* out, std::size_t n) noexcept {
    if (always_) {
      std::fill_n(out, n, true);
      return;
    }
    std::fill_n(out, n, false);
    walk(n, [out](std::size_t offset) { out[offset] = true; });
  }

  /// Compacted form of fill(): writes the offsets (in [0, n), ascending) of
  /// the sampled decisions among the next n into idx and returns how many
  /// there are. Same stream and cursor advance as fill(out, n); the cost is
  /// O(sampled), not O(n). idx must hold n entries.
  std::size_t take(std::uint32_t* idx, std::size_t n) noexcept {
    if (always_) {
      for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
      return n;
    }
    std::size_t count = 0;
    walk(n, [idx, &count](std::size_t offset) {
      idx[count++] = static_cast<std::uint32_t>(offset);
    });
    return count;
  }

  [[nodiscard]] std::size_t table_size() const noexcept { return table_size_; }

  /// Read cursor into the table, for checkpoint/restore: a sampler rebuilt
  /// from the same (tau, table_size, seed) with the cursor restored emits
  /// the exact decision sequence the original would have.
  [[nodiscard]] std::size_t cursor() const noexcept { return cursor_; }

  /// Restores the cursor; false (and no change) when out of range, so a
  /// malformed snapshot cannot park the cursor past the table.
  bool set_cursor(std::size_t c) noexcept {
    if (c >= table_size_) return false;
    cursor_ = c;
    seek();
    return true;
  }

 private:
  /// Regenerates the sampled-position list for the current threshold. The
  /// compaction writes every position and advances by the decision, so the
  /// pass has no data-dependent branch; the scratch buffer is left
  /// uninitialized, so only the pages the hits reach are ever touched.
  void rebuild() {
    positions_.clear();
    if (!always_) {
      const auto hits = std::make_unique_for_overwrite<std::uint32_t[]>(table_size_ + 1);
      xoshiro256 rng(seed_);
      std::size_t count = 0;
      for (std::size_t i = 0; i < table_size_; ++i) {
        hits[count] = static_cast<std::uint32_t>(i);
        count += rng() < threshold_ ? 1 : 0;
      }
      hits[count] = static_cast<std::uint32_t>(table_size_);  // sentinel
      positions_.assign(hits.get(), hits.get() + count + 1);
    }
    positions_.shrink_to_fit();
    seek();
  }

  /// Re-derives next_ - the first sampled position at or after the cursor.
  void seek() noexcept {
    if (always_) return;
    next_ = static_cast<std::size_t>(
        std::lower_bound(positions_.begin(), positions_.end() - 1,
                         static_cast<std::uint32_t>(cursor_)) -
        positions_.begin());
  }

  void advance(std::size_t run) noexcept {
    cursor_ += run;
    if (cursor_ == table_size_) {
      cursor_ = 0;
      next_ = 0;
    }
  }

  /// Consumes the next n decisions, calling hit(offset) for each sampled
  /// one (offset relative to the first of the n). Runs are segmented at the
  /// table edge; the sentinel (== table_size) ends every inner scan.
  template <typename Hit>
  void walk(std::size_t n, Hit&& hit) noexcept {
    std::size_t done = 0;
    while (done < n) {
      const std::size_t run = std::min(n - done, table_size_ - cursor_);
      const std::size_t end = cursor_ + run;
      const std::size_t base = done - cursor_;  // offset = base + position (mod 2^64)
      const std::uint32_t* p = positions_.data() + next_;
      for (; *p < end; ++p) hit(base + *p);
      next_ = static_cast<std::size_t>(p - positions_.data());
      done += run;
      advance(run);
    }
  }

  std::vector<std::uint32_t> positions_;  ///< sampled positions + sentinel; empty when always_
  std::size_t table_size_;
  std::uint64_t seed_;
  std::size_t cursor_ = 0;
  std::size_t next_ = 0;  ///< index into positions_ of the first position >= cursor_
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

/// Geometric skip-count sampler: decides Bernoulli(tau) per event by drawing,
/// once per *success*, the number of failures until the next success
/// (Geometric(tau) via inverse transform). This is RHHH's scheme; one `log`
/// per sampled packet, so cheap when tau is small and the skip is long, but
/// the per-sample cost dominates when tau is large. Exposed for the Fig. 7
/// discussion and the sampling ablation bench.
class geometric_sampler {
 public:
  explicit geometric_sampler(double tau, std::uint64_t seed = 1) noexcept
      : rng_(seed) {
    set_probability(tau);
  }

  void set_probability(double tau) noexcept {
    tau_ = tau;
    if (tau_ < 1.0 && tau_ > 0.0) {
      log1m_tau_ = std::log1p(-tau_);
    }
    skip_ = 0;
    draw_skip();
  }

  /// Returns true when this event is sampled.
  [[nodiscard]] bool sample() noexcept {
    if (tau_ >= 1.0) return true;
    if (tau_ <= 0.0) return false;
    if (skip_ > 0) {
      --skip_;
      return false;
    }
    draw_skip();
    return true;
  }

 private:
  void draw_skip() noexcept {
    if (tau_ >= 1.0 || tau_ <= 0.0) return;
    // Inverse-transform Geometric: floor(ln(U) / ln(1 - tau)), U in (0,1).
    double u = rng_.uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    skip_ = static_cast<std::uint64_t>(std::log(u) / log1m_tau_);
  }

  xoshiro256 rng_;
  double tau_ = 1.0;
  double log1m_tau_ = 0.0;
  std::uint64_t skip_ = 0;
};

}  // namespace memento
