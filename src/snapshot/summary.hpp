// Mergeable sliding-window summaries: the query-only, transportable form of
// a Memento instance's window state.
//
// A full snapshot (snapshot.hpp) is what you restore and CONTINUE; a
// summary is what you SHIP when the consumer only needs answers - the
// candidate set with its one-sided estimates, plus the few scalars needed
// to keep the error accounting honest. Mergeable sliding-window summaries
// are exactly the object studied by Braverman et al. (PAPERS.md): this is
// the practical counterpart, built from Memento's overflow table.
//
// Merge semantics and error growth (documented, one-sided):
//   * per-key estimates stay ONE-SIDED (never undercount) under merge for
//     DISJOINT keyspaces - hash-partitioned shards, client-hash-routed
//     vantages - which is every producer in this repository. A key present
//     in exactly one source answers with that source's estimate unchanged,
//     so a summary merged from a sharded_memento's shards reproduces the
//     frontend's heavy_hitters/top/candidate answers exactly (pinned by
//     tests/snapshot_test.cpp).
//   * a key present in SEVERAL sources (overlapping keyspaces) answers with
//     the SUM of its entries' estimates: still one-sided, but the
//     overcounts add - merging M overlapping summaries grows the per-key
//     slack from 4T/tau to at most M * 4T/tau.
//   * a key absent everywhere answers with the summed miss bound
//     (sum of each source's (3T-1)/tau): one-sided for any keyspace split,
//     and the price of merging - the miss bound grows linearly in the
//     number of merged sources, unlike the point queries of a live sharded
//     frontend which route to one shard. Heavy-hitter SETS are immune (a
//     reportable flow is a candidate somewhere); only absent-key point
//     queries pay it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/h_memento.hpp"
#include "core/memento.hpp"
#include "shard/sharded_memento.hpp"
#include "util/compress.hpp"
#include "util/flat_hash.hpp"
#include "util/wire.hpp"

namespace memento {

template <typename Key = std::uint64_t>
class window_summary {
 public:
  /// A summarized candidate with its one-sided window-frequency estimate
  /// (same shape as memento_sketch::heavy_hitter so merge paths interop).
  struct heavy_hitter {
    Key key{};
    double estimate = 0.0;
  };

  window_summary() = default;

  /// Summarizes a plain Memento instance: every overflow-table candidate
  /// with its upper estimate, in the sketch's candidate order.
  [[nodiscard]] static window_summary from(const memento_sketch<Key>& sketch) {
    window_summary s;
    s.window_ = sketch.window_size();
    s.stream_ = sketch.stream_length();
    s.width_ = sketch.estimate_width();
    // Non-candidate upper bound: tau^-1 * (2T + residue), residue <= T - 1.
    s.miss_upper_ = (3.0 * static_cast<double>(sketch.overflow_threshold()) - 1.0) /
                    sketch.tau();
    s.entries_.reserve(sketch.candidate_count());
    sketch.for_each_candidate(
        [&](const Key& key, double est) { s.entries_.push_back({key, est}); });
    s.rebuild_index();
    return s;
  }

  /// Summarizes a sharded frontend: the in-order merge of its shards'
  /// summaries (disjoint keyspaces, so candidate answers are the frontend's
  /// answers exactly).
  [[nodiscard]] static window_summary from(const sharded_memento<Key>& front) {
    window_summary s;
    for (std::size_t i = 0; i < front.num_shards(); ++i) s.merge(from(front.shard(i)));
    return s;
  }

  /// Summarizes an H-Memento: the inner candidates are prefixes and their
  /// estimates carry the H rescaling (each prefix is sampled at tau / H).
  template <typename H>
  [[nodiscard]] static window_summary from_hhh(const h_memento<H>& algo) {
    static_assert(std::is_same_v<typename H::key_type, Key>,
                  "window_summary key type must match the hierarchy key type");
    const double h = static_cast<double>(H::hierarchy_size);
    const auto& inner = algo.inner();
    window_summary s = from(inner);
    s.width_ *= h;
    // H * (3T - 1) / tau, not from()'s bound times H: the two round apart.
    s.miss_upper_ =
        h * (3.0 * static_cast<double>(inner.overflow_threshold()) - 1.0) / inner.tau();
    for (heavy_hitter& e : s.entries_) e.estimate *= h;
    return s;
  }

  /// Folds `other` into this summary (see the file comment for the exact
  /// one-sided error growth). Entries append in order; colliding keys sum.
  void merge(const window_summary& other) {
    window_ += other.window_;
    stream_ += other.stream_;
    width_ = std::max(width_, other.width_);
    miss_upper_ += other.miss_upper_;
    for (const heavy_hitter& e : other.entries_) {
      if (std::uint32_t* at = index_.find(e.key)) {
        entries_[*at].estimate += e.estimate;
      } else {
        index_.find_or_emplace(e.key, 0) = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back(e);
      }
    }
  }

  /// One-sided (never undercounting, for disjoint merges) window-frequency
  /// estimate: the entry if summarized, otherwise the summed miss bound.
  [[nodiscard]] double query(const Key& x) const {
    if (const std::uint32_t* at = index_.find(x)) return entries_[*at].estimate;
    return miss_upper_;
  }

  /// The entry's estimate alone, 0 when x was not a candidate anywhere -
  /// the near-unbiased input for cross-source aggregation (the netwide
  /// summary channel sums this across vantages).
  [[nodiscard]] double query_entry(const Key& x) const {
    const std::uint32_t* at = index_.find(x);
    return at ? entries_[*at].estimate : 0.0;
  }

  [[nodiscard]] bool contains(const Key& x) const { return index_.contains(x); }

  /// Heavy hitters at threshold theta (fraction of the summarized window):
  /// same filter + sort as the live sketches, so a summary built from a
  /// frontend reproduces its report bit-for-bit.
  [[nodiscard]] std::vector<heavy_hitter> heavy_hitters(double theta) const {
    std::vector<heavy_hitter> out;
    out.reserve(entries_.size());
    const double bar = theta * static_cast<double>(window_);
    for (const heavy_hitter& e : entries_) {
      if (e.estimate >= bar) out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const heavy_hitter& a, const heavy_hitter& b) { return a.estimate > b.estimate; });
    return out;
  }

  /// The k summarized flows with the largest estimates.
  [[nodiscard]] std::vector<heavy_hitter> top(std::size_t k) const {
    std::vector<heavy_hitter> all = entries_;
    const std::size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep), all.end(),
                      [](const heavy_hitter& a, const heavy_hitter& b) {
                        return a.estimate > b.estimate;
                      });
    all.resize(keep);
    return all;
  }

  /// Invokes fn(key, estimate) for every summarized candidate, in order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const heavy_hitter& e : entries_) fn(e.key, e.estimate);
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  /// Summarized window, in packets (sums under merge).
  [[nodiscard]] std::uint64_t window_size() const noexcept { return window_; }
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return stream_; }
  /// Worst-case per-source estimate width (max under merge).
  [[nodiscard]] double estimate_width() const noexcept { return width_; }
  /// Upper bound answered for keys with no entry (sums under merge).
  [[nodiscard]] double miss_bound() const noexcept { return miss_upper_; }

  // --- wire format -----------------------------------------------------------

  static constexpr std::uint16_t kWireTag = 0x5753;  ///< "WS"
  static constexpr std::uint16_t kWireVersion = 2;

  /// Serializes the summary as one section: scalars, one FoR key column
  /// (entry order, so a round trip preserves the exact entry sequence), one
  /// f64 estimate column.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    s.u8(wire::kCodecPacked);
    s.varint(window_);
    s.varint(stream_);
    s.f64(width_);
    s.f64(miss_upper_);
    s.varint(entries_.size());
    std::size_t i = 0;
    wire::put_key_column<Key>(s, entries_.size(),
                              [&]() -> const Key& { return entries_[i++].key; });
    for (const heavy_hitter& e : entries_) s.f64(e.estimate);
    s.end_section();
  }

  /// Rebuilds a summary from save() output; nullopt on malformed input
  /// (truncation, duplicate keys, lying counts, CRC mismatch) - never a
  /// crash.
  [[nodiscard]] static std::optional<window_summary> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    if (!wire::get_codec_flags(s)) return std::nullopt;
    window_summary out;
    std::uint64_t count = 0;
    if (!s.varint(out.window_) || !s.varint(out.stream_) || !s.f64(out.width_) ||
        !s.f64(out.miss_upper_) || !s.varint(count)) {
      return std::nullopt;
    }
    // A stream has no byte budget to check a lying count against; 2^21
    // entries (64 MB) is far beyond any real summary (candidate sets are
    // bounded by the global counter budget) while bounding the allocation.
    if (count > (std::uint64_t{1} << 21)) return std::nullopt;
    out.entries_.resize(static_cast<std::size_t>(count));
    std::size_t i = 0;
    if (!wire::get_key_column<Key>(s, static_cast<std::size_t>(count), [&](const Key& key) {
          out.entries_[i++].key = key;
          return true;
        })) {
      return std::nullopt;
    }
    for (heavy_hitter& e : out.entries_) {
      if (!s.f64(e.estimate)) return std::nullopt;
    }
    if (!s.close_section()) return std::nullopt;
    out.rebuild_index();
    if (out.index_.size() != out.entries_.size()) return std::nullopt;  // duplicate keys
    return out;
  }

  // --- delta-channel mutators ------------------------------------------------
  // The delta summary channel (netwide/summary_channel.hpp) patches a
  // controller-side baseline in place instead of replacing it: changed
  // candidates are upserted, dropped candidates erased, and the scalar
  // header (window/stream/width/miss bound) refreshed each report.

  /// Inserts or overwrites one candidate's estimate.
  void upsert(const Key& key, double estimate) {
    if (const std::uint32_t* at = index_.find(key)) {
      entries_[*at].estimate = estimate;
      return;
    }
    index_.find_or_emplace(key, 0) = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back({key, estimate});
  }

  /// Removes a candidate if present (swap-with-last, index patched).
  void erase(const Key& key) {
    const std::uint32_t* at = index_.find(key);
    if (!at) return;
    const std::uint32_t pos = *at;
    const std::uint32_t last = static_cast<std::uint32_t>(entries_.size() - 1);
    if (pos != last) {
      entries_[pos] = entries_[last];
      index_.find_or_emplace(entries_[pos].key, pos) = pos;
    }
    entries_.pop_back();
    index_.erase(key);
  }

  /// Refreshes the scalar header shipped with every report.
  void set_scalars(std::uint64_t window, std::uint64_t stream, double width,
                   double miss_upper) noexcept {
    window_ = window;
    stream_ = stream;
    width_ = width;
    miss_upper_ = miss_upper;
  }

 private:
  void rebuild_index() {
    index_.reserve(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_.find_or_emplace(entries_[i].key, static_cast<std::uint32_t>(i)) =
          static_cast<std::uint32_t>(i);
    }
  }

  std::vector<heavy_hitter> entries_;       ///< candidates, in merge order
  flat_hash<Key, std::uint32_t> index_;     ///< key -> entries_ position (rebuilt, not shipped)
  std::uint64_t window_ = 0;
  std::uint64_t stream_ = 0;
  double width_ = 0.0;
  double miss_upper_ = 0.0;
};

}  // namespace memento
