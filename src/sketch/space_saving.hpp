// Space Saving [Metwally et al., ICDT 2005] with the classic stream-summary
// structure: worst-case O(1) increments and evictions.
//
// This is the substrate of the entire repository (Section 2 of the paper):
// Memento uses one instance to count in-frame frequencies approximately; MST
// keeps H instances (one per prefix pattern); RHHH keeps H instances updated
// by sampling. The guarantees relied upon everywhere:
//
//   * no undercount:  query(x) >= f(x) for every x (monitored or not);
//   * bounded overcount:  query(x) - f(x) <= min_count() <= N / capacity,
//     where N is the number of add() calls since the last flush().
//
// Layout: counter VALUES live in their own flat array (counts_), so the
// snapshot's count column and the min cross-check (min_scan) read them
// contiguously; everything else a mutation touches (key, overestimate,
// chain links, index back-reference) is packed into one 32-byte node beside
// it - see cnode for why splitting further costs more than it buys.
// Equal-count counters are chained into a bucket; buckets form an ascending
// doubly-linked list whose head is the minimum. All links are
// 32-bit indices into flat vectors - compact and cache-predictable (Per.16 /
// Per.19), no per-update allocation (Per.14): bucket nodes are recycled
// through a free list. The dominant tau=1 operation - incrementing a counter
// that is alone in its bucket - renames the bucket in place instead of
// paying the detach/allocate/attach dance (see increment()).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/compress.hpp"
#include "util/flat_hash.hpp"
#include "util/wire.hpp"

namespace memento {

template <typename Key>
class space_saving {
 public:
  /// A monitored (key, estimate) pair; `overestimate` is the classic
  /// Space-Saving error bound recorded when the counter was last reallocated,
  /// so `count - overestimate` never exceeds the true frequency.
  struct entry {
    Key key{};
    std::uint64_t count = 0;
    std::uint64_t overestimate = 0;
  };

  /// @param capacity number of counters (the paper's k); must be >= 1.
  explicit space_saving(std::size_t capacity)
      : nodes_(capacity), counts_(capacity, 0) {
    if (capacity == 0) throw std::invalid_argument("space_saving: capacity must be >= 1");
    if (capacity >= npos) throw std::invalid_argument("space_saving: capacity too large");
    index_.reserve(capacity * 2);
    buckets_.reserve(capacity + 1);
  }

  /// Processes one arrival of `x` (Section 2's three cases: increment an
  /// existing counter, claim a free one, or evict the minimum) and returns
  /// x's post-increment counter value, sparing callers a second lookup. O(1).
  std::uint64_t add(const Key& x) { return add_prehashed(index_.bucket(x), x); }

  /// add(x) with x's home bucket precomputed via index_bucket(). Batched
  /// callers hash a chunk of keys in one vectorizable pass and replay the
  /// (serial) structural updates here; the index never grows after
  /// construction, so precomputed buckets stay valid across adds.
  std::uint64_t add_prehashed(std::size_t bucket, const Key& x) {
    ++adds_;
    if (const std::uint32_t* idx = index_.find_prehashed(bucket, x)) {
      return increment(*idx);
    }
    if (used_ < capacity()) {
      const auto idx = static_cast<std::uint32_t>(used_++);
      nodes_[idx].key = x;
      counts_[idx] = 1;
      nodes_[idx].overest = 0;
      nodes_[idx].islot = static_cast<std::uint32_t>(index_.emplace_prehashed(bucket, x, idx));
      attach_to_count_one(idx);
      return 1;
    }
    // Evict the minimum: reuse its slot for x, inheriting count (+1) and
    // recording the inherited value as the overestimate. The old key's index
    // entry is removed by stored slot position - no probe; the backward
    // shift's relocations flow back into the affected counters' islot.
    const std::uint32_t idx = buckets_[min_bucket_].head;
    index_.erase_at(nodes_[idx].islot, [this](std::uint32_t moved, std::size_t pos) {
      nodes_[moved].islot = static_cast<std::uint32_t>(pos);
    });
    nodes_[idx].overest = counts_[idx];
    nodes_[idx].key = x;
    nodes_[idx].islot = static_cast<std::uint32_t>(index_.emplace_prehashed(bucket, x, idx));
    return increment(idx);
  }

  /// Bulk add: mirrors the batched update loop the sketches run (and
  /// HammerSlide's insert(T*, start, end) shape) - hash a chunk of keys in
  /// one pure pass, prefetch their index lines, then replay the structural
  /// updates with everything resident. No sketch calls it (they run that
  /// loop themselves around add_prehashed); perfbench's layer ledger times
  /// it as sketch.ss_add_ns_per_key.
  void add_batch(const Key* xs, std::size_t n) {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t m = std::min(kAddChunk, n - i);
      std::size_t buckets[kAddChunk];
      for (std::size_t j = 0; j < m; ++j) buckets[j] = index_.bucket(xs[i + j]);
      for (std::size_t j = 0; j < m; ++j) index_.prefetch_bucket(buckets[j]);
      for (std::size_t j = 0; j < m; ++j) add_prehashed(buckets[j], xs[i + j]);
      i += m;
    }
  }

  /// Home bucket of x in the counter index (see flat_hash::bucket); feed to
  /// add_prehashed / prefetch_bucket.
  [[nodiscard]] std::size_t index_bucket(const Key& x) const noexcept {
    return index_.bucket(x);
  }

  /// Upper-bound estimate: the counter if monitored, otherwise the minimum
  /// counter once the structure is full (an unmonitored flow can have been
  /// evicted with at most that many arrivals), otherwise 0.
  [[nodiscard]] std::uint64_t query(const Key& x) const {
    if (const std::uint32_t* idx = index_.find(x)) {
      return counts_[*idx];
    }
    return used_ == capacity() ? min_count() : 0;
  }

  /// Lower-bound estimate: count minus the recorded overestimate (0 when the
  /// flow is not monitored). Never exceeds the true frequency.
  [[nodiscard]] std::uint64_t query_lower(const Key& x) const {
    if (const std::uint32_t* idx = index_.find(x)) {
      return counts_[*idx] - nodes_[*idx].overest;
    }
    return 0;
  }

  [[nodiscard]] bool contains(const Key& x) const { return index_.contains(x); }

  /// Pulls a key's index slot toward the cache ahead of its add, by
  /// precomputed home bucket (see index_bucket()).
  void prefetch_bucket(std::size_t bucket) const noexcept { index_.prefetch_bucket(bucket); }

  /// Value of the minimum counter (0 when empty). O(1) via the bucket list.
  [[nodiscard]] std::uint64_t min_count() const {
    return min_bucket_ == npos ? 0 : buckets_[min_bucket_].count;
  }

  /// The minimum counter value recomputed by a scan over the flat count
  /// array - an O(k) cross-check of the O(1) bucket-list answer, exposed so
  /// tests and monitoring can validate the structure instead of trusting it.
  [[nodiscard]] std::uint64_t min_scan() const {
    if (used_ == 0) return 0;
    std::uint64_t low = counts_[0];
    for (std::size_t i = 1; i < used_; ++i) low = std::min(low, counts_[i]);
    return low;
  }

  /// Resets all counters (Memento calls this at every frame boundary,
  /// Algorithm 1 line 4). Capacity is retained; bucket nodes are recycled.
  void flush() {
    index_.clear();
    buckets_.clear();
    bucket_free_ = npos;
    min_bucket_ = npos;
    used_ = 0;
    adds_ = 0;
  }

  /// Number of add() calls since construction or the last flush().
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return adds_; }

  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }

  /// Snapshot of all monitored entries (used by HH output, MST/RHHH lattice
  /// candidates, and the Aggregation communication method).
  [[nodiscard]] std::vector<entry> entries() const {
    std::vector<entry> out;
    out.reserve(used_);
    for (std::size_t i = 0; i < used_; ++i) {
      out.push_back({nodes_[i].key, counts_[i], nodes_[i].overest});
    }
    return out;
  }

  /// Invokes fn(key, count, overestimate) for every monitored entry.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < used_; ++i) {
      fn(nodes_[i].key, counts_[i], nodes_[i].overest);
    }
  }

  /// Probe-behavior stats of the backing key index (see flat_hash::stats).
  [[nodiscard]] flat_hash_stats index_stats() const { return index_.stats(); }

  // --- snapshot support ------------------------------------------------------
  // The structure is serialized EXACTLY - counter slots, bucket chains, the
  // bucket free list, and the index's slot layout - because behavior depends
  // on all of it: eviction takes the head of the minimum bucket's chain,
  // and chain order is operation-history. A restored instance therefore
  // continues the stream bit-identically, across dispatch tiers.

  static constexpr std::uint16_t kWireTag = 0x5353;  ///< "SS"
  static constexpr std::uint16_t kWireVersion = 2;

  /// Serializes the full structure as one section of structure-of-arrays
  /// columns (matching the in-memory split), each through the codec that
  /// fits it - zig-zag deltas for the count arrays, FoR blocks for keys and
  /// link indices. npos links are mapped to 0 on the wire (real links shift
  /// up by one) so the 2^32-1 sentinel does not blow every frame of
  /// reference.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    s.u8(wire::kCodecPacked);
    s.varint(capacity());
    s.varint(used_);
    s.u64(adds_);
    s.u32(min_bucket_);
    s.u32(bucket_free_);
    s.varint(buckets_.size());
    std::size_t i = 0;
    wire::put_zigzag_u64(s, buckets_.size(), [&] { return buckets_[i++].count; });
    i = 0;
    wire::put_u64_array(s, buckets_.size(), [&] { return wire_link(buckets_[i++].head); });
    i = 0;
    wire::put_u64_array(s, buckets_.size(), [&] { return wire_link(buckets_[i++].prev); });
    i = 0;
    wire::put_u64_array(s, buckets_.size(), [&] { return wire_link(buckets_[i++].next); });
    i = 0;
    wire::put_key_column<Key>(s, used_, [&]() -> const Key& { return nodes_[i++].key; });
    i = 0;
    wire::put_zigzag_u64(s, used_, [&] { return counts_[i++]; });
    i = 0;
    wire::put_zigzag_u64(s, used_, [&] { return nodes_[i++].overest; });
    i = 0;
    wire::put_u64_array(s, used_, [&] { return wire_link(nodes_[i++].prev); });
    i = 0;
    wire::put_u64_array(s, used_, [&] { return wire_link(nodes_[i++].next); });
    i = 0;
    wire::put_u64_array(s, used_, [&] { return wire_link(nodes_[i++].bucket); });
    i = 0;
    wire::put_u64_array(s, used_, [&] { return static_cast<std::uint64_t>(nodes_[i++].islot); });
    // The key index is fully determined by the columns above: entry i lives
    // at slot islot[i] with key key[i] and value i. Shipping only its
    // capacity and rebuilding at restore saves a second copy of every key
    // (plus positions and values).
    s.varint(index_.capacity());
    s.end_section();
  }

  /// Rebuilds an instance from save() output; nullopt on ANY malformed
  /// input - unknown version, out-of-range link, index/counter mismatch,
  /// broken chain topology, CRC mismatch - never a crash or a structurally
  /// unsound instance. Every 32-bit link is range-checked, the index is
  /// cross-checked entry-by-entry against the counters' islot
  /// back-references, and the bucket lists are walked end to end (ascending
  /// counts, doubly linked, chains owning their counters, free list
  /// disjoint), so later operations are correct by construction. The
  /// section CRC catches bit flips that still decode to range-valid values
  /// inside packed blocks.
  [[nodiscard]] static std::optional<space_saving> restore(wire::source& s) {
    wire_header h;
    if (!open_section(s, h)) return std::nullopt;
    space_saving out(static_cast<std::size_t>(h.cap));
    if (!out.load(s, h)) return std::nullopt;
    return out;
  }

 private:
  static constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();
  /// Restore-side allocation guard: far above any real config (the paper's
  /// k is hundreds to thousands) while bounding what a crafted tiny
  /// snapshot can make restore() allocate before rejection to tens of MB.
  static constexpr std::uint64_t kMaxRestoreCounters = std::uint64_t{1} << 18;
  /// add_batch's hash-ahead distance; matches the sketches' batch chunking.
  static constexpr std::size_t kAddChunk = 32;

  friend class snapshot_builder;  ///< reshard's bulk state loader (snapshot/reshard.hpp)
  /// memento_sketch restores its in-frame instance in place (restore_in_place).
  template <typename> friend class memento_sketch;

  /// The scalar preamble of a serialized instance, read and range-checked
  /// before anything is sized against it.
  struct wire_header {
    std::uint64_t cap = 0;
    std::uint64_t used = 0;
    std::uint64_t nbuckets = 0;
    std::uint64_t adds = 0;
    std::uint32_t min_bucket = 0;
    std::uint32_t bucket_free = 0;
  };

  [[nodiscard]] static bool header_valid(const wire_header& h) noexcept {
    if (h.cap == 0 || h.cap >= npos || h.cap > kMaxRestoreCounters) return false;
    return h.used <= h.cap && h.nbuckets <= 2 * h.cap + 2;
  }

  /// Opens the section (codec flags included) and reads the preamble into h.
  [[nodiscard]] static bool open_section(wire::source& s, wire_header& h) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return false;
    if (!wire::get_codec_flags(s)) return false;
    if (!s.varint(h.cap) || !s.varint(h.used) || !s.u64(h.adds) || !s.u32(h.min_bucket) ||
        !s.u32(h.bucket_free) || !s.varint(h.nbuckets)) {
      return false;
    }
    return header_valid(h);
  }

  /// Restores a serialized instance into *this, which must already have
  /// the saved capacity - the owner's constructor built it, so nothing is
  /// allocated twice. False on any malformed input, after which *this is
  /// unspecified and the owner must discard itself.
  [[nodiscard]] bool restore_in_place(wire::source& s) {
    wire_header h;
    return open_section(s, h) && h.cap == capacity() && load(s, h);
  }

  void set_scalars(const wire_header& h) {
    used_ = static_cast<std::size_t>(h.used);
    adds_ = h.adds;
    min_bucket_ = h.min_bucket;
    bucket_free_ = h.bucket_free;
    buckets_.resize(static_cast<std::size_t>(h.nbuckets));
  }

  /// Section body after the preamble: the structure-of-arrays columns, the
  /// index rebuilt from them, the cross-checks, then the section CRC.
  [[nodiscard]] bool load(wire::source& s, const wire_header& h) {
    set_scalars(h);
    const std::uint64_t nbuckets = h.nbuckets;
    const std::uint64_t used = h.used;
    const auto read_links = [&](std::uint64_t n, auto&& set) {
      std::size_t j = 0;
      return wire::get_u64_array(s, static_cast<std::size_t>(n), [&](std::uint64_t raw) {
        std::uint32_t link = 0;
        if (!unwire_link(raw, link)) return false;
        set(j++, link);
        return true;
      });
    };
    std::size_t i = 0;
    if (!wire::get_zigzag_u64(s, nbuckets, [&](std::uint64_t v) {
          buckets_[i++].count = v;
          return true;
        })) {
      return false;
    }
    if (!read_links(nbuckets, [&](std::size_t j, std::uint32_t v) { buckets_[j].head = v; }) ||
        !read_links(nbuckets, [&](std::size_t j, std::uint32_t v) { buckets_[j].prev = v; }) ||
        !read_links(nbuckets, [&](std::size_t j, std::uint32_t v) { buckets_[j].next = v; })) {
      return false;
    }
    i = 0;
    if (!wire::get_key_column<Key>(s, used, [&](const Key& key) {
          nodes_[i++].key = key;
          return true;
        })) {
      return false;
    }
    i = 0;
    if (!wire::get_zigzag_u64(s, used, [&](std::uint64_t v) {
          counts_[i++] = v;
          return true;
        })) {
      return false;
    }
    i = 0;
    if (!wire::get_zigzag_u64(s, used, [&](std::uint64_t v) {
          nodes_[i++].overest = v;
          return true;
        })) {
      return false;
    }
    if (!read_links(used, [&](std::size_t j, std::uint32_t v) { nodes_[j].prev = v; }) ||
        !read_links(used, [&](std::size_t j, std::uint32_t v) { nodes_[j].next = v; }) ||
        !read_links(used, [&](std::size_t j, std::uint32_t v) { nodes_[j].bucket = v; })) {
      return false;
    }
    i = 0;
    if (!wire::get_u64_array(s, used, [&](std::uint64_t raw) {
          if (raw > npos) return false;
          nodes_[i++].islot = static_cast<std::uint32_t>(raw);
          return true;
        })) {
      return false;
    }
    if (!restored_topology_valid()) return false;
    // Rebuild the key index from the node columns at the exact saved
    // capacity and slot positions, so the restored object probes, iterates
    // and re-saves exactly like the original. rebuild_placed
    // rejects out-of-range or colliding islot values and unreachable probe
    // layouts; restored_index_valid still cross-checks the bijection.
    std::uint64_t icap = 0;
    if (!s.varint(icap)) return false;
    std::size_t j = 0;
    if (!index_.rebuild_placed(
            icap, used, [&](std::uint64_t, std::uint64_t& pos, Key& key, std::uint64_t& value) {
              pos = nodes_[j].islot;
              key = nodes_[j].key;
              value = j;
              ++j;
            })) {
      return false;
    }
    return restored_index_valid() && s.close_section();
  }

  /// Everything a counter mutation touches besides its count, packed into
  /// ONE node (32 bytes for 8-byte keys) so an add dirties at most two data
  /// lines: this node and the counts_ entry. Only the counts stay split out
  /// as a separate flat array - they are what the count column and the min
  /// scan stream over; scattering key/overestimate/links into parallel
  /// arrays as well measurably hurt the batched update path (more resident
  /// lines per add, none of them prefetchable before the index lookup
  /// resolves).
  struct cnode {
    Key key{};
    std::uint64_t overest = 0;    ///< overestimate recorded at last reallocation
    std::uint32_t prev = npos;    ///< previous counter in the same bucket
    std::uint32_t next = npos;    ///< next counter in the same bucket
    std::uint32_t bucket = npos;  ///< owning bucket index
    std::uint32_t islot = npos;   ///< key's slot in index_ (probe-free eviction erase)
  };

  struct bucket_node {
    std::uint64_t count = 0;
    std::uint32_t head = npos;  ///< first counter in this bucket
    std::uint32_t prev = npos;  ///< bucket with the next-smaller count
    std::uint32_t next = npos;  ///< bucket with the next-larger count
  };

  /// Wire image of a link field: npos becomes 0, real links shift up by
  /// one. Keeps the 2^32-1 sentinel out of FoR frames of reference (one
  /// npos in a column of small indices would force 32-bit deltas).
  [[nodiscard]] static std::uint64_t wire_link(std::uint32_t link) noexcept {
    return link == npos ? 0 : static_cast<std::uint64_t>(link) + 1;
  }

  /// Inverse of wire_link; rejects values that would alias npos.
  [[nodiscard]] static bool unwire_link(std::uint64_t raw, std::uint32_t& link) noexcept {
    if (raw > npos) return false;  // raw - 1 would forge npos or overflow
    link = raw == 0 ? npos : static_cast<std::uint32_t>(raw - 1);
    return true;
  }

  /// Shared restore validation, phase 1: everything checkable without the
  /// key index. Range-checks every link and count, then walks the live
  /// bucket list (ascending, doubly linked, every chain owning its counters
  /// at the bucket's count) and the free list, requiring them to partition
  /// the bucket array exactly - range-valid links are not enough, a counter
  /// pointing at the wrong (but in-range) bucket would silently corrupt
  /// counts on the next add.
  [[nodiscard]] bool restored_topology_valid() const {
    const std::uint64_t nbuckets = buckets_.size();
    const auto link_ok = [](std::uint32_t link, std::uint64_t bound) {
      return link == npos || link < bound;
    };
    for (const auto& b : buckets_) {
      if (!link_ok(b.head, used_) || !link_ok(b.prev, nbuckets) || !link_ok(b.next, nbuckets)) {
        return false;
      }
    }
    for (std::size_t i = 0; i < used_; ++i) {
      const cnode& m = nodes_[i];
      if (counts_[i] == 0 || m.overest >= counts_[i]) return false;
      if (!link_ok(m.prev, used_) || !link_ok(m.next, used_)) return false;
      if (m.bucket >= nbuckets) return false;  // live counters own a bucket
    }
    if (!link_ok(min_bucket_, nbuckets) || !link_ok(bucket_free_, nbuckets)) return false;
    // The eviction path dereferences buckets_[min_bucket_].head whenever the
    // structure is non-empty; an empty structure must have no minimum.
    if ((used_ > 0) != (min_bucket_ != npos)) return false;
    std::vector<std::uint8_t> counter_seen(used_, 0);
    std::vector<std::uint8_t> bucket_seen(buckets_.size(), 0);
    std::uint64_t live_counters = 0;
    std::uint64_t prev_count = 0;
    std::uint32_t prev_bkt = npos;
    for (std::uint32_t bkt = min_bucket_; bkt != npos; bkt = buckets_[bkt].next) {
      if (bucket_seen[bkt]) return false;  // cycle
      bucket_seen[bkt] = 1;
      const bucket_node& b = buckets_[bkt];
      if (b.prev != prev_bkt) return false;
      if (prev_bkt != npos && b.count <= prev_count) return false;  // ascending
      if (b.head == npos) return false;  // emptied buckets are freed, never linked
      prev_count = b.count;
      prev_bkt = bkt;
      std::uint32_t prev_counter = npos;
      for (std::uint32_t c = b.head; c != npos; c = nodes_[c].next) {
        if (counter_seen[c]) return false;  // cycle or shared counter
        counter_seen[c] = 1;
        if (nodes_[c].bucket != bkt || counts_[c] != b.count || nodes_[c].prev != prev_counter) {
          return false;
        }
        prev_counter = c;
        ++live_counters;
      }
    }
    if (live_counters != used_) return false;
    for (std::uint32_t bkt = bucket_free_; bkt != npos; bkt = buckets_[bkt].next) {
      if (bucket_seen[bkt]) return false;  // cycle, or stealing a live node
      bucket_seen[bkt] = 1;
    }
    for (const std::uint8_t seen : bucket_seen) {
      if (!seen) return false;  // every node is live or free, nothing leaks
    }
    return true;
  }

  /// Shared restore validation, phase 2: the key index against the counter
  /// arrays, after index_ itself has been restored.
  [[nodiscard]] bool restored_index_valid() const {
    if (index_.size() != used_) return false;
    // The index must keep the constructor's headroom (reserve(2 * cap)):
    // add()'s prehashed probes assume the table never needs to grow, so an
    // undersized image would overflow or spin on a later add, and bucket()
    // values computed against it would be wrong. Honest saves always ship
    // the reserved capacity; anything smaller is malformed.
    if (index_.capacity() - index_.capacity() / 4 < 2 * capacity()) return false;
    // Cross-check: the index must be a bijection onto the live counters,
    // with each counter's islot naming its key's exact slot. Together with
    // the size check this rejects duplicated or dangling entries.
    bool consistent = true;
    index_.for_each_slot([&](std::size_t pos, const Key& key, std::uint32_t value) {
      if (value >= used_ || !(nodes_[value].key == key) || nodes_[value].islot != pos) {
        consistent = false;
      }
    });
    return consistent;
  }

  /// Allocates a bucket node, recycling from the free list when possible.
  std::uint32_t new_bucket(std::uint64_t count) {
    std::uint32_t idx;
    if (bucket_free_ != npos) {
      idx = bucket_free_;
      bucket_free_ = buckets_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    buckets_[idx] = bucket_node{count, npos, npos, npos};
    return idx;
  }

  void free_bucket(std::uint32_t idx) {
    buckets_[idx].next = bucket_free_;
    bucket_free_ = idx;
  }

  /// Unlinks a counter from its bucket's chain; frees the bucket if emptied.
  void detach_counter(std::uint32_t idx) {
    cnode& m = nodes_[idx];
    const std::uint32_t bkt = m.bucket;
    if (m.prev != npos) nodes_[m.prev].next = m.next;
    if (m.next != npos) nodes_[m.next].prev = m.prev;
    if (buckets_[bkt].head == idx) buckets_[bkt].head = m.next;
    m.prev = m.next = npos;
    m.bucket = npos;
    if (buckets_[bkt].head == npos) unlink_bucket(bkt);
  }

  void unlink_bucket(std::uint32_t bkt) {
    bucket_node& b = buckets_[bkt];
    if (b.prev != npos) buckets_[b.prev].next = b.next;
    if (b.next != npos) buckets_[b.next].prev = b.prev;
    if (min_bucket_ == bkt) min_bucket_ = b.next;
    free_bucket(bkt);
  }

  /// Pushes a counter onto a bucket's chain (order within a bucket is
  /// irrelevant, so head insertion keeps it O(1)).
  void push_counter(std::uint32_t idx, std::uint32_t bkt) {
    cnode& m = nodes_[idx];
    m.bucket = bkt;
    m.prev = npos;
    m.next = buckets_[bkt].head;
    if (m.next != npos) nodes_[m.next].prev = idx;
    buckets_[bkt].head = idx;
  }

  /// Places a fresh count-1 counter: into the head bucket if its count is 1,
  /// otherwise into a new bucket prepended as the minimum.
  void attach_to_count_one(std::uint32_t idx) {
    if (min_bucket_ != npos && buckets_[min_bucket_].count == 1) {
      push_counter(idx, min_bucket_);
      return;
    }
    const std::uint32_t bkt = new_bucket(1);
    buckets_[bkt].next = min_bucket_;
    if (min_bucket_ != npos) buckets_[min_bucket_].prev = bkt;
    min_bucket_ = bkt;
    push_counter(idx, bkt);
  }

  /// count += 1 and migrate to the adjacent bucket, creating it if needed.
  /// Returns the new count.
  ///
  /// Fast path first: a counter alone in its bucket whose successor bucket
  /// is not at count+1 keeps its node and renames the bucket in place -
  /// ascending order is preserved (the successor, if any, is >= count+2)
  /// and no node is allocated or freed. At tau=1 on heavy-tailed traces
  /// this is the overwhelmingly common case (every elephant past the pack
  /// sits alone in its bucket), and it turns the per-packet structure cost
  /// into two array writes.
  std::uint64_t increment(std::uint32_t idx) {
    const cnode& m = nodes_[idx];
    const std::uint32_t bkt = m.bucket;
    const std::uint64_t target = counts_[idx] + 1;
    const std::uint32_t nxt = buckets_[bkt].next;

    if (m.prev == npos && m.next == npos &&
        (nxt == npos || buckets_[nxt].count != target)) {
      buckets_[bkt].count = target;
      counts_[idx] = target;
      return target;
    }

    if (nxt != npos && buckets_[nxt].count == target) {
      detach_counter(idx);  // may free bkt; `nxt` survives (it holds counters)
      push_counter(idx, nxt);
    } else {
      // Create the target bucket after bkt *before* detaching, so bkt's list
      // position anchors the insertion even if bkt becomes empty.
      const std::uint32_t fresh = new_bucket(target);
      bucket_node& b = buckets_[bkt];
      buckets_[fresh].prev = bkt;
      buckets_[fresh].next = b.next;
      if (b.next != npos) buckets_[b.next].prev = fresh;
      b.next = fresh;
      detach_counter(idx);
      push_counter(idx, fresh);
    }
    counts_[idx] = target;
    return target;
  }

  std::vector<cnode> nodes_;             ///< per-counter key + overestimate + links
  std::vector<std::uint64_t> counts_;    ///< counter values - contiguous for column scans
  std::vector<bucket_node> buckets_;
  flat_hash<Key, std::uint32_t> index_;
  std::uint32_t bucket_free_ = npos;
  std::uint32_t min_bucket_ = npos;
  std::size_t used_ = 0;
  std::uint64_t adds_ = 0;
};

}  // namespace memento
