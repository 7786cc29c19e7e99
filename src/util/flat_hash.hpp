// Flat open-addressing hash map for the packet-processing hot path.
//
// std::unordered_map costs the sketch stack one node allocation per insert
// and one deallocation per erase - and Space-Saving's eviction path (the
// common case on heavy-tailed traces, where most packets miss the counter
// set) pays both, plus pointer-chasing on every find. This map removes all
// of that: one flat power-of-two slot array, linear probing, and
// tombstone-free deletion by backward shifting (Knuth TAOCP 6.4 Algorithm R),
// so a long-running sketch never degrades from accumulated tombstones and
// never allocates after reserve().
//
// Alongside the slots lives a 1-byte control array - the top 7 hash bits
// (H2) for a used slot, kCtrlEmpty for an empty one. A probe reads the
// control byte first: it is both the empty test that ends the probe and a
// tag prefilter, so a key comparison (and the slot's cache line) is only
// paid on a 1-in-128 tag match. At load <= 3/4 the mean probe distance is
// ~0.1-0.2 slots, so almost every lookup is settled by the home slot alone.
// Iteration walks the control array eight bytes per word
// (for_each_used_ctrl).
//
// Values are small (32-bit counter indices / overflow counts across the
// stack), so slots stay 16 bytes for 64-bit keys - four per cache line - and
// the control array for a full-size counter index is ~2 KB, i.e. L1-resident
// while the slot array is not.
//
// Used by space_saving::index_ and memento_sketch::overflows_, and through
// them by WCSS, H-Memento, MST and RHHH. References into the table are
// invalidated by rehash (growth only - erase never moves the table).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "util/compress.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace memento {

/// Control byte for an unoccupied flat_hash slot. H2 tags occupy [0, 0x80).
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

/// Probe-behavior introspection (flat_hash::stats): how the table actually
/// probes, so probe chain lengths are observable, not inferred. Probe
/// distance of an entry = slots walked past its home bucket (0 = sits at
/// home); a lookup touches distance+1 slots.
struct flat_hash_stats {
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::size_t max_probe = 0;    ///< worst entry's probe distance
  double mean_probe = 0.0;      ///< average probe distance over entries
  double load_factor = 0.0;     ///< size / capacity (0 for an empty table)
};

/// Calls fn(i) for every used control byte ctrl[i], i < n, in ascending
/// order - the iteration kernel under flat_hash's for_each family. Eight
/// control bytes are tested per 64-bit word (a used byte holds an H2 tag in
/// [0, 0x80), so its top bit is clear), so a sparse table costs one load per
/// eight slots plus one step per entry rather than a byte-wise walk. Reads
/// stay inside ctrl[0, n): the tail below a whole word is walked byte-wise.
template <typename Fn>
void for_each_used_ctrl(const std::uint8_t* ctrl, std::size_t n, Fn&& fn) {
  static_assert(kCtrlEmpty == 0x80, "used bytes are exactly those with the top bit clear");
  constexpr std::uint64_t kTopBits = 0x8080808080808080ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, ctrl + i, sizeof word);
    if constexpr (std::endian::native == std::endian::big) word = __builtin_bswap64(word);
    for (std::uint64_t used = ~word & kTopBits; used != 0; used &= used - 1) {
      fn(i + (static_cast<std::size_t>(std::countr_zero(used)) >> 3));
    }
  }
  for (; i < n; ++i) {
    if (ctrl[i] != kCtrlEmpty) fn(i);
  }
}

template <typename Key, typename Value = std::uint32_t, typename Hash = std::hash<Key>>
class flat_hash {
 public:
  flat_hash() = default;

  /// Pre-sizes the table for `expected` entries without exceeding the
  /// maximum load factor (3/4).
  explicit flat_hash(std::size_t expected) { reserve(expected); }

  /// Grows the table (never shrinks) so `expected` entries fit at load <= 3/4.
  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    while (cap - cap / 4 < expected) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Pointer to x's value, or nullptr when absent. Stable until the next
  /// rehashing insert.
  [[nodiscard]] Value* find(const Key& x) noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t i = find_index(token_of(x), x);
    return i == knpos ? nullptr : &slots_[i].value;
  }

  [[nodiscard]] const Value* find(const Key& x) const noexcept {
    return const_cast<flat_hash*>(this)->find(x);
  }

  [[nodiscard]] bool contains(const Key& x) const noexcept { return find(x) != nullptr; }

  /// Inserts {x, v}; x must not already be present (the sketches always
  /// find() first, so the full probe is only repeated in debug builds).
  void emplace(const Key& x, Value v) {
    grow_if_needed();
    const std::uint64_t token = token_of(x);
    assert(find_index(token, x) == knpos && "flat_hash::emplace: key already present");
    place(first_empty(token), token, x, v);
  }

  /// Value of x, inserting `init` first when absent (the `++map[x]` idiom).
  /// Probes before growing, so a hit never rehashes (and never invalidates
  /// outstanding find() pointers).
  [[nodiscard]] Value& find_or_emplace(const Key& x, Value init) {
    if (slots_.empty()) rehash(kMinCapacity);
    const std::uint64_t token = token_of(x);
    const std::size_t hit = find_index(token, x);
    if (hit != knpos) return slots_[hit].value;
    if (size_ + 1 > slots_.size() - slots_.size() / 4) rehash(slots_.size() * 2);
    const std::size_t i = first_empty(token);
    place(i, token, x, init);
    return slots_[i].value;
  }

  /// Removes x (returns false when absent) by backward shift: every entry in
  /// the probe chain after the hole moves up unless it already sits at or
  /// past its home bucket, so lookups never need tombstones.
  bool erase(const Key& x) {
    if (slots_.empty()) return false;
    const std::size_t pos = find_index(token_of(x), x);
    if (pos == knpos) return false;
    erase_slot(pos, [](Value, std::size_t) {});
    return true;
  }

  /// erase() by slot position (as returned by emplace_prehashed), skipping
  /// the probe entirely - Space-Saving's eviction path keeps each monitored
  /// key's slot on its counter. The backward shift relocates other entries,
  /// so on_move(value, new_pos) fires for each one, letting the caller
  /// maintain those back-references.
  template <typename MoveFn>
  void erase_at(std::size_t pos, MoveFn&& on_move) {
    assert(pos < slots_.size() && is_used(pos));
    erase_slot(pos, std::forward<MoveFn>(on_move));
  }

  /// Drops all entries; capacity is retained (flush() happens every frame).
  void clear() noexcept {
    for (auto& s : slots_) s = slot{};
    if (!ctrl_.empty()) std::fill(ctrl_.begin(), ctrl_.end(), kCtrlEmpty);
    size_ = 0;
  }

  /// Invokes fn(key, value) for every entry. Iteration order is the slot
  /// order - deterministic for a given operation history.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_used([&](std::size_t i) { fn(slots_[i].key, slots_[i].value); });
  }

  // --- prehashed hot-path entry points -------------------------------------
  // Batched callers hash a whole chunk of keys up front (a vectorizable pure
  // loop) and replay the probes later with the finished hash - the probe
  // token - already in hand. The token carries the full mixed hash (home
  // bucket in the low bits, the control tag in the high bits). Prehashed
  // mutation is restricted to pre-reserved tables that never grow
  // (asserted): growth would relocate entries under outstanding slot
  // positions returned by emplace_prehashed.

  /// Probe token of x; the table must be non-empty (reserve() first).
  [[nodiscard]] std::size_t bucket(const Key& x) const noexcept {
    assert(!slots_.empty() && "flat_hash::bucket: reserve() before prehashing");
    return token_of(x);
  }

  /// find(x), probing from a bucket() token computed earlier.
  [[nodiscard]] Value* find_prehashed(std::size_t bucket, const Key& x) noexcept {
    assert(!slots_.empty() && bucket == token_of(x));
    const std::size_t i = find_index(bucket, x);
    return i == knpos ? nullptr : &slots_[i].value;
  }

  /// emplace(x, v) from a bucket() token; the table must have spare reserved
  /// capacity (growth would invalidate every outstanding slot position).
  /// Returns the slot position x landed in (stable until a rehash or until a
  /// backward-shift erase relocates it - see erase_at's on_move).
  std::size_t emplace_prehashed(std::size_t bucket, const Key& x, Value v) {
    assert(!slots_.empty() && bucket == token_of(x));
    assert(size_ + 1 <= slots_.size() - slots_.size() / 4 &&
           "flat_hash::emplace_prehashed: table would need to grow");
    assert(find_index(bucket, x) == knpos && "flat_hash::emplace_prehashed: key already present");
    const std::size_t i = first_empty(bucket);
    place(i, bucket, x, v);
    return i;
  }

  /// Prefetches a home slot by bucket() token: the probe's first lines - the
  /// control byte read first by every lookup, then the slot itself - are
  /// then resident when the batched caller replays the probe.
  void prefetch_bucket(std::size_t bucket) const noexcept {
    const std::size_t i = bucket & mask_;
    __builtin_prefetch(ctrl_.data() + i);
    __builtin_prefetch(&slots_[i]);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slot-array size (a power of two; 0 before the first insert/reserve).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Probe-length / occupancy introspection: max and mean probe distance
  /// over the live entries plus the load factor. O(capacity); a monitoring
  /// call, not a hot-path one.
  [[nodiscard]] flat_hash_stats stats() const {
    flat_hash_stats st;
    st.size = size_;
    st.capacity = slots_.size();
    if (slots_.empty()) return st;
    st.load_factor = static_cast<double>(size_) / static_cast<double>(slots_.size());
    std::size_t total = 0;
    for_each_used([&](std::size_t i) {
      const std::size_t dist = (i - (token_of(slots_[i].key) & mask_)) & mask_;
      total += dist;
      if (dist > st.max_probe) st.max_probe = dist;
    });
    if (size_ > 0) st.mean_probe = static_cast<double>(total) / static_cast<double>(size_);
    return st;
  }

  // --- snapshot support ------------------------------------------------------
  // The table is serialized by EXACT slot layout, not as a key/value bag:
  // slot positions feed back into behavior (Space-Saving keeps islot
  // back-references; for_each order is slot order, and through it candidate
  // iteration order), so a restored table must probe, iterate and relocate
  // exactly like the original - the bit-identical-continuation guarantee of
  // the snapshot layer rests on it. The control array is derived state,
  // rebuilt from the keys.

  /// Invokes fn(slot_pos, key, value) for every entry in slot order. Used by
  /// restore-side cross-checks (e.g. Space-Saving's islot validation).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for_each_used([&](std::size_t i) { fn(i, slots_[i].key, slots_[i].value); });
  }

  /// Serializes capacity + size, then the used slots (ascending position)
  /// in tiles of up to wire::kPackBlock entries - per tile an
  /// ascending-delta position column, a FoR key column, and a FoR value
  /// column. Tiling (rather than three whole-table columns) is what keeps
  /// the RESTORE side bounded too: it rebuilds from one tile of scratch,
  /// never a table-sized temporary. Inline in the owner's section, whose
  /// codec-flags byte covers these columns.
  void save(wire::sink& s) const {
    s.varint(slots_.size());
    s.varint(size_);
    std::uint64_t pos[wire::kPackBlock];
    std::size_t m = 0;
    const auto put_tile = [&] {
      std::size_t i = 0;
      wire::put_ascending_u64(s, m, [&] { return pos[i++]; });
      i = 0;
      wire::put_key_column<Key>(s, m, [&]() -> const Key& { return slots_[pos[i++]].key; });
      i = 0;
      wire::put_u64_array(s, m, [&] {
        return static_cast<std::uint64_t>(slots_[pos[i++]].value);
      });
      m = 0;
    };
    for_each_used([&](std::size_t i) {
      pos[m++] = i;
      if (m == wire::kPackBlock) put_tile();
    });
    if (m > 0) put_tile();
  }

  /// Rebuilds the exact layout from save() output. Returns false - leaving
  /// the table empty - on ANY structural violation: capacity not a power of
  /// two (or absurd), overload, positions out of range or non-ascending
  /// (across tiles, not just within them), or an entry that a probe from
  /// its home bucket would not reach (which would make it silently
  /// unfindable). Malformed bytes can never produce a table that crashes
  /// later. A table already at the saved capacity is refilled in place (see
  /// begin_restore).
  [[nodiscard]] bool restore(wire::source& s) {
    if (size_ != 0) clear();
    std::uint64_t cap = 0, count = 0;
    if (!s.varint(cap) || !s.varint(count) || !begin_restore(cap, count)) return false;
    std::uint64_t pos[wire::kPackBlock];
    Key keys[wire::kPackBlock];
    std::uint64_t prev_pos = 0;
    bool any = false;
    std::uint64_t left = count;
    while (left > 0) {
      const std::size_t m = std::min<std::uint64_t>(wire::kPackBlock, left);
      std::size_t i = 0;
      const bool pos_ok = wire::get_ascending_u64(s, m, [&](std::uint64_t p) {
        if (p >= cap || (any && p <= prev_pos)) return false;
        prev_pos = p;
        any = true;
        pos[i++] = p;
        return true;
      });
      if (!pos_ok) {
        clear();
        return false;
      }
      i = 0;
      if (!wire::get_key_column<Key>(s, m, [&](const Key& key) {
            keys[i++] = key;
            return true;
          })) {
        clear();
        return false;
      }
      i = 0;
      const bool values_ok = wire::get_u64_array(s, m, [&](std::uint64_t raw) {
        if (raw > std::numeric_limits<Value>::max()) return false;
        place(static_cast<std::size_t>(pos[i]), token_of(keys[i]), keys[i],
              static_cast<Value>(raw));
        ++i;
        return true;
      });
      if (!values_ok) {
        clear();
        return false;
      }
      left -= m;
    }
    return probe_layout_valid();
  }

  /// Rebuilds the exact layout from externally held (position, key, value)
  /// triples, for owners that already persist every entry's slot position
  /// next to the entry itself (space_saving's islot column) and so need not
  /// ship this table's contents a second time. `next_entry(n, pos, key,
  /// value)` fills the n-th triple; entries arrive in the owner's order, not
  /// necessarily by position - duplicates are caught by the occupancy map.
  /// Same contract as restore(): false on any structural violation, leaving
  /// the table empty.
  template <typename EmitFn>
  [[nodiscard]] bool rebuild_placed(std::uint64_t cap, std::uint64_t count, EmitFn&& next_entry) {
    if (size_ != 0) clear();
    if (!begin_restore(cap, count)) return false;
    for (std::uint64_t n = 0; n < count; ++n) {
      std::uint64_t pos = 0, value = 0;
      Key key{};
      next_entry(n, pos, key, value);
      if (pos >= cap || is_used(static_cast<std::size_t>(pos)) ||
          value > std::numeric_limits<Value>::max()) {
        clear();
        return false;
      }
      place(static_cast<std::size_t>(pos), token_of(key), key, static_cast<Value>(value));
    }
    return probe_layout_valid();
  }

 private:
  /// Shared restore preamble, on an already emptied table: validates the
  /// saved shape (capacity a sane power of two, or 0 with no entries; load
  /// within 3/4) and sizes the table to exactly `cap` slots. A table that
  /// already has that capacity - the one its owner's constructor reserved,
  /// in every honest restore - is filled where it stands; only a differing
  /// capacity reallocates.
  [[nodiscard]] bool begin_restore(std::uint64_t cap, std::uint64_t count) {
    if (cap == 0) {
      slots_.clear();
      ctrl_.clear();
      mask_ = 0;
      return count == 0;
    }
    if (cap < kMinCapacity || cap > kMaxRestoreCapacity || (cap & (cap - 1)) != 0) return false;
    if (count > cap - cap / 4) return false;
    if (cap != slots_.size()) {
      slots_.assign(static_cast<std::size_t>(cap), slot{});
      ctrl_.assign(static_cast<std::size_t>(cap), kCtrlEmpty);
      mask_ = static_cast<std::size_t>(cap) - 1;
    }
    return true;
  }

  /// Probe-reachability check shared by both restore paths: every entry must
  /// be findable by walking from its home bucket through used slots.
  /// Rejecting (and clearing) here keeps find()'s "empty slot terminates the
  /// probe" invariant true for restored tables - malformed bytes can never
  /// produce a table with silently unfindable entries.
  [[nodiscard]] bool probe_layout_valid() {
    bool ok = true;
    for_each_used([&](std::size_t i) {
      std::size_t walk = token_of(slots_[i].key) & mask_;
      for (std::size_t steps = 0; ok && walk != i; walk = next(walk)) {
        ok = is_used(walk) && ++steps <= size_;
      }
    });
    if (!ok) clear();
    return ok;
  }

  static constexpr std::size_t kMinCapacity = 8;
  /// Restore-side allocation guard: real sketch tables run thousands of
  /// slots, so anything near this in a snapshot is garbage, not data. The
  /// cap also bounds the transient allocation a malicious tiny payload can
  /// trigger before rejection (~50 MB of slots at 2^21).
  static constexpr std::size_t kMaxRestoreCapacity = std::size_t{1} << 21;
  static constexpr std::size_t knpos = std::numeric_limits<std::size_t>::max();

  struct slot {
    Key key{};
    Value value{};
  };

  /// mix64 finalizer on top of Hash: the probe token. Low bits (masked)
  /// select the home bucket; the top 7 bits are the control tag - disjoint
  /// bit ranges for any realistic capacity, so the tag adds entropy the
  /// bucket does not already spend.
  [[nodiscard]] std::uint64_t token_of(const Key& x) const noexcept {
    return mix64(static_cast<std::uint64_t>(Hash{}(x)));
  }

  /// Control tag of a token: top 7 bits, always in [0, 0x80) - never the
  /// empty sentinel.
  [[nodiscard]] static std::uint8_t h2(std::uint64_t token) noexcept {
    return static_cast<std::uint8_t>(token >> 57);
  }

  [[nodiscard]] bool is_used(std::size_t i) const noexcept {
    return ctrl_[i] != kCtrlEmpty;
  }

  /// fn(i) for every used slot, ascending.
  template <typename Fn>
  void for_each_used(Fn&& fn) const {
    for_each_used_ctrl(ctrl_.data(), slots_.size(), std::forward<Fn>(fn));
  }

  [[nodiscard]] std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask_; }

  // --- probes ------------------------------------------------------------------

  /// Slot index of x, or knpos: a linear probe from the home bucket, with
  /// the control byte doing double duty as the tag prefilter and the empty
  /// test that ends the probe.
  [[nodiscard]] std::size_t find_index(std::uint64_t token, const Key& x) const noexcept {
    const std::uint8_t tag = h2(token);
    for (std::size_t i = token & mask_;; i = next(i)) {
      const std::uint8_t c = ctrl_[i];
      if (c == tag && slots_[i].key == x) return i;
      if (c == kCtrlEmpty) return knpos;
    }
  }

  /// First empty slot in probe order from the token's home bucket: the
  /// insert position.
  [[nodiscard]] std::size_t first_empty(std::uint64_t token) const noexcept {
    std::size_t i = token & mask_;
    while (is_used(i)) i = next(i);
    return i;
  }

  /// Shared backward-shift deletion tail: pos holds the doomed entry.
  template <typename MoveFn>
  void erase_slot(std::size_t pos, MoveFn&& on_move) {
    std::size_t hole = pos;
    for (std::size_t i = next(hole); is_used(i); i = next(i)) {
      // Entry at i may fill the hole iff its home bucket is not inside the
      // circular interval (hole, i] - i.e. probing for it still reaches i's
      // chain through `hole`. Distance arithmetic handles the wraparound.
      const std::size_t home = token_of(slots_[i].key) & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole].key = std::move(slots_[i].key);
        slots_[hole].value = slots_[i].value;
        ctrl_[hole] = ctrl_[i];  // the tag travels with the key
        on_move(slots_[hole].value, hole);
        hole = i;
      }
    }
    slots_[hole] = slot{};
    ctrl_[hole] = kCtrlEmpty;
    --size_;
  }

  void place(std::size_t i, std::uint64_t token, const Key& x, Value v) {
    slots_[i].key = x;
    slots_[i].value = v;
    ctrl_[i] = h2(token);
    ++size_;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rehash(kMinCapacity);
    } else if (size_ + 1 > slots_.size() - slots_.size() / 4) {
      rehash(slots_.size() * 2);
    }
  }

  void rehash(std::size_t new_capacity) {
    std::vector<slot> old = std::move(slots_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(new_capacity, slot{});
    ctrl_.assign(new_capacity, kCtrlEmpty);
    mask_ = new_capacity - 1;
    const std::size_t moved = size_;
    size_ = 0;
    for (std::size_t i = 0; i < old.size(); ++i) {
      if (old_ctrl[i] == kCtrlEmpty) continue;
      const std::uint64_t token = token_of(old[i].key);
      place(first_empty(token), token, std::move(old[i].key), old[i].value);
    }
    assert(size_ == moved);
    (void)moved;
  }

  // place() overload used by rehash (moves the key).
  void place(std::size_t i, std::uint64_t token, Key&& x, Value v) {
    slots_[i].key = std::move(x);
    slots_[i].value = v;
    ctrl_[i] = h2(token);
    ++size_;
  }

  std::vector<slot> slots_;
  std::vector<std::uint8_t> ctrl_;  ///< H2 tags / empty sentinels, one per slot
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace memento
