// Elastic reshard: re-route a sharded Memento deployment from N shards to M
// through its snapshot state, without replaying the stream.
//
// This is the ROADMAP's "octet -> shard rebalancing" enabler: scale a
// frontend out (N < M) when a box saturates, or in (N > M) when traffic
// drops, keeping the window's heavy-hitter state alive across the change.
// The partition function is pure (key hash mod shard count), so resharding
// is a deterministic re-bucketing of per-key state:
//
//   * overflow-table entries (the candidate set and its block counts) carry
//     over EXACTLY - a flow's B[x] is the same number in its new shard;
//   * block-queue occurrences carry over with their ring AGE rescaled from
//     the old ring (k_old + 1 slots) to the new (k_new + 1), so each
//     overflow still expires roughly when its originating block leaves the
//     window;
//   * in-frame Space-Saving entries re-bucket by their new owner; when a
//     new shard inherits more entries than its k_new counters (possible
//     when M < N), the smallest-count entries are dropped - each loses at
//     most one in-frame residue (< T sampled packets, i.e. < T/tau original
//     packets, within the +-2T slack the query already carries);
//   * the new shards start at the old deployment's average window phase and
//     a fresh sampler sequence (continuation is deterministic but not
//     bit-identical to any pre-reshard timeline - there is no such timeline
//     to match).
//
// Accuracy contract (pinned by tests/snapshot_test.cpp): estimates move by
// at most one threshold unit per key plus the usual per-shard coverage
// drift, so the Zipf recall/precision bars of tests/shard_test.cpp hold
// across an N -> M reshard. Queue retirement pacing restarts, so a burst of
// carried overflows can momentarily exceed the one-retirement-per-packet
// dent; the defensive drain in rotate_blocks() (counted, never unsafe)
// absorbs the difference.
//
// Requirements checked at runtime (nullopt otherwise): same tau and same
// per-shard overflow threshold between the old and new geometry - i.e. the
// same GLOBAL window/counter/tau budget, with only the shard count
// changing. Heterogeneous or incompatible inputs are rejected, never
// mis-merged.
//
// The weighted overload takes a bucket -> shard table (partitioner TABLE
// mode) for the replacement frontend: same transport, different routing
// function. That is the rebalancer's migration primitive - shard/
// rebalance.hpp plans the table from the live load picture, this file moves
// the state onto it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/memento.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/space_saving.hpp"
#include "snapshot/snapshot.hpp"

namespace memento {

/// Privileged assembler of sketch state for the snapshot layer: the one
/// friend of space_saving / memento_sketch / sharded_memento that may build
/// instances from parts instead of from a stream.
class snapshot_builder {
 public:
  /// Re-partitions a live N-shard frontend into config.shards shards.
  /// nullopt when the geometries are incompatible (different tau or
  /// per-shard overflow threshold, heterogeneous source shards).
  template <typename Key>
  [[nodiscard]] static std::optional<sharded_memento<Key>> reshard(
      const sharded_memento<Key>& old, const shard_config& config) {
    return reshard_impl(old, config, /*table=*/nullptr);
  }

  /// Weighted overload: the replacement frontend routes through `table`
  /// (partitioner TABLE mode) instead of plain hashing - this is the
  /// rebalancer's migration primitive (shard/rebalance.hpp plans the table,
  /// this call moves the window state onto it). Same geometry contract as
  /// the plain overload, plus the table must fit config.shards.
  template <typename Key>
  [[nodiscard]] static std::optional<sharded_memento<Key>> reshard(
      const sharded_memento<Key>& old, const shard_config& config, const shard_table& table) {
    return reshard_impl(old, config, &table);
  }

  /// Snapshot-bytes overload: restore the old frontend, then reshard it.
  template <typename Key>
  [[nodiscard]] static std::optional<sharded_memento<Key>> reshard(
      std::span<const std::uint8_t> snapshot_bytes, const shard_config& config) {
    auto old = snapshot::restore<sharded_memento<Key>>(snapshot_bytes);
    if (!old) return std::nullopt;
    return reshard_impl(*old, config, /*table=*/nullptr);
  }

  /// Streamed-snapshot overload: the old frontend arrives through a
  /// wire::source (a controller pulling a checkpoint off the network or
  /// disk in chunks) instead of a materialized buffer - the only O(state)
  /// memory is the restored frontend itself, never a byte image of it.
  template <typename Key>
  [[nodiscard]] static std::optional<sharded_memento<Key>> reshard(wire::source& snapshot_stream,
                                                                  const shard_config& config) {
    auto old = snapshot::stream_restore<sharded_memento<Key>>(snapshot_stream);
    if (!old) return std::nullopt;
    return reshard_impl(*old, config, /*table=*/nullptr);
  }

  /// Hierarchical overload: migrate a sharded_h_memento onto a planned
  /// bucket table - the HHH rebalancer's primitive. The shard COUNT must be
  /// unchanged (config.shards == old.num_shards()): HHH routing sends
  /// non-routable (wildcard-dimension) prefixes back to their original
  /// shard index, which is only meaningful while the shard set is stable;
  /// elastic N -> M scaling of the hierarchical frontend is future work.
  /// Same transport bounds as the flat path; the per-shard sampler/PRNG
  /// timelines restart (deterministic continuation, as always for reshard).
  template <typename H>
  [[nodiscard]] static std::optional<sharded_h_memento<H>> reshard(
      const sharded_h_memento<H>& old, const hhh_shard_config& config,
      const shard_table& table) {
    if (config.shards == 0 || config.shards != old.num_shards()) return std::nullopt;
    if (config.base.window_size == 0 || config.base.counters == 0) return std::nullopt;
    if (!table.valid_for(config.shards)) return std::nullopt;
    const h_memento_config target =
        sharded_h_memento<H>::shard_config_for(config.base, config.shards, /*shard=*/0);
    if (!compatible(
            old.num_shards(), [&](std::size_t o) -> const auto& { return old.shard(o).inner(); },
            memento_config{target.window_size, target.counters, target.tau, target.seed})) {
      return std::nullopt;
    }
    auto fresh = sharded_h_memento<H>(config.base, config.shards, table);
    if (!transport_hhh(old, fresh)) return std::nullopt;
    return fresh;
  }

 private:
  /// The single guard + construct + transport path every public overload
  /// lands on; `table` selects TABLE-mode routing when non-null.
  template <typename Key>
  [[nodiscard]] static std::optional<sharded_memento<Key>> reshard_impl(
      const sharded_memento<Key>& old, const shard_config& config, const shard_table* table) {
    if (config.shards == 0 || config.window_size == 0 || config.counters == 0) {
      return std::nullopt;
    }
    if (table != nullptr && !table->valid_for(config.shards)) return std::nullopt;
    if (!compatible(
            old.num_shards(), [&](std::size_t o) -> const auto& { return old.shard(o); },
            sharded_memento<Key>::shard_config_for(config, /*shard=*/0))) {
      return std::nullopt;
    }
    auto fresh = table != nullptr ? sharded_memento<Key>(config, *table)
                                  : sharded_memento<Key>(config);
    if (!transport(old, fresh)) return std::nullopt;
    return fresh;
  }
  /// Source shards must be one geometry (restore() accepts any sequence of
  /// individually valid shards; reshard does not), and the target must keep
  /// tau and the per-shard overflow threshold - i.e. the same GLOBAL
  /// window/counter/tau budget with only the routing changing. sketch_of(o)
  /// is source shard o's memento_sketch (a hierarchical shard's inner
  /// sketch: the wrapper adds no window geometry of its own, and its
  /// sampler/PRNG state restarts on migration by design); `target` is the
  /// config of the target's shard 0.
  template <typename SketchOf>
  [[nodiscard]] static bool compatible(std::size_t shards, const SketchOf& sketch_of,
                                       const memento_config& target) {
    const auto& ref = sketch_of(std::size_t{0});
    for (std::size_t o = 1; o < shards; ++o) {
      const auto& s = sketch_of(o);
      if (s.counters() != ref.counters() || s.window_size() != ref.window_size() ||
          s.tau() != ref.tau()) {
        return false;
      }
    }
    const std::remove_cvref_t<decltype(ref)> probe(target);
    return probe.tau() == ref.tau() &&
           probe.overflow_threshold() == ref.overflow_threshold();
  }

  /// The state move, flat frontend: every key's new owner is fresh's
  /// partition function - which is what lets the same code serve plain
  /// N -> M reshard (hash routing) and weighted rebalance (table routing).
  template <typename Key>
  [[nodiscard]] static bool transport(const sharded_memento<Key>& old,
                                      sharded_memento<Key>& fresh) {
    const shard_partitioner<Key>& owner = fresh.partitioner();
    return transport_state<Key>(
        old.num_shards(), fresh.num_shards(),
        [&](std::size_t o) -> const memento_sketch<Key>& { return old.shard(o); },
        [&](std::size_t s) -> memento_sketch<Key>& { return fresh.shards_[s]; },
        [&](const Key& key, std::size_t) { return owner(key); });
  }

  /// The state move, hierarchical frontend: routable prefixes follow
  /// fresh's prefix routing; wildcard-pattern keys keep their old shard
  /// index (M == N, enforced by the public overload), so the disjointness
  /// invariant - no key contributed twice to one new shard - is preserved.
  template <typename H>
  [[nodiscard]] static bool transport_hhh(const sharded_h_memento<H>& old,
                                          sharded_h_memento<H>& fresh) {
    using Key = typename H::key_type;
    return transport_state<Key>(
        old.num_shards(), fresh.num_shards(),
        [&](std::size_t o) -> const memento_sketch<Key>& { return old.shard(o).inner(); },
        [&](std::size_t s) -> memento_sketch<Key>& { return fresh.shards_[s].inner_; },
        [&](const Key& key, std::size_t o) {
          return sharded_h_memento<H>::routable(key) ? fresh.shard_of_key(key) : o;
        });
  }

  /// The shared re-bucketing engine behind both transports: walks the old
  /// sketches' counters / overflow tables / block rings, assigns each piece
  /// of state through `owner_of(key, old_shard)`, and loads the new
  /// sketches in canonical form. False when the source is not a valid
  /// disjoint partition.
  template <typename Key, typename OldSketchAt, typename NewSketchAt, typename OwnerFn>
  [[nodiscard]] static bool transport_state(std::size_t n_old, std::size_t m,
                                            OldSketchAt&& old_at, NewSketchAt&& new_at,
                                            OwnerFn&& owner_of) {
    const std::size_t k_old = old_at(0).counters();
    const std::size_t k_new = new_at(0).counters();

    struct carried {
      Key key{};
      std::uint64_t count = 0;
      std::uint64_t overestimate = 0;
    };
    std::vector<std::vector<carried>> counters(m);
    std::vector<std::vector<std::pair<Key, std::uint32_t>>> overflow(m);
    std::vector<std::vector<std::pair<std::uint32_t, Key>>> queued(m);  // (new age, key)

    std::uint64_t sum_clock = 0, sum_frame = 0, sum_stream = 0;
    for (std::size_t o = 0; o < n_old; ++o) {
      const auto& src = old_at(o);
      sum_clock += src.window_phase();
      sum_frame += src.window_size();
      sum_stream += src.stream_length();
      src.y_.for_each([&](const Key& key, std::uint64_t count, std::uint64_t over) {
        counters[owner_of(key, o)].push_back({key, count, over});
      });
      src.overflows_.for_each([&](const Key& key, std::uint32_t b) {
        overflow[owner_of(key, o)].push_back({key, b});
      });
      // Walk the ring newest-first so ages are deterministic: age 0 is the
      // current block, age k_old the one about to expire.
      const std::size_t ring = src.live_.size();
      const std::vector<std::size_t> start = src.block_starts();
      for (std::size_t age = 0; age < ring; ++age) {
        const std::size_t slot = (src.head_ + ring - age) % ring;
        const auto new_age = scale_age(age, k_old, k_new);
        for (std::size_t i = 0; i < src.live_[slot]; ++i) {
          const Key& key = src.queued(start[slot] + i);
          queued[owner_of(key, o)].push_back({new_age, key});
        }
      }
    }

    // All new shards restart at the old deployment's average window phase.
    const std::uint64_t frame = new_at(0).window_size();
    std::uint64_t clock = sum_frame == 0 ? 0
                                         : static_cast<std::uint64_t>(
                                               static_cast<double>(sum_clock) /
                                               static_cast<double>(sum_frame) *
                                               static_cast<double>(frame));
    if (clock >= frame) clock = frame - 1;

    for (std::size_t s = 0; s < m; ++s) {
      auto& dst = new_at(s);
      if (!load_space_saving(dst.y_, counters[s], k_new)) return false;
      for (const auto& [key, b] : overflow[s]) {
        // Disjoint old shards can never contribute the same key twice; a
        // duplicate means the snapshot is not a valid partition (e.g. a
        // crafted buffer repeating one shard section). Reject, never
        // double-merge.
        if (dst.overflows_.contains(key)) return false;
        dst.overflows_.find_or_emplace(key, 0) += b;
      }
      // Age a lives at slot (ring - a) % ring. Each block keeps its keys in
      // arrival order; the FIFO holds the blocks oldest first, so count the
      // keys per slot, then place each at its slot's next FIFO position.
      const std::size_t ring = dst.live_.size();  // k_new + 1
      dst.head_ = 0;
      for (const auto& entry : queued[s]) ++dst.live_[(ring - entry.first) % ring];
      dst.reserve_ring(queued[s].size());
      dst.ring_size_ = queued[s].size();
      std::vector<std::size_t> next = dst.block_starts();
      for (const auto& [age, key] : queued[s]) dst.ring_[next[(ring - age) % ring]++] = key;
      dst.clock_ = clock;
      dst.until_block_end_ = dst.block_len_ - clock % dst.block_len_;
      // Spread the remainder so the global stream length survives the move
      // exactly: sum over shards of stream_length() is an accounting
      // identity the controller's kill/restore soak pins packet-for-packet.
      dst.stream_length_ = sum_stream / m + (s < sum_stream % m ? 1 : 0);
    }
    return true;
  }

  /// Maps an old-ring age onto the new ring, rounding to nearest so carried
  /// overflows expire as close as possible to their original schedule.
  [[nodiscard]] static std::uint32_t scale_age(std::size_t age, std::size_t k_old,
                                               std::size_t k_new) noexcept {
    const std::size_t scaled = (age * k_new + k_old / 2) / k_old;
    return static_cast<std::uint32_t>(std::min(scaled, k_new));
  }

  /// Rebuilds a (flushed) Space-Saving instance from carried entries in
  /// canonical form: counters ascending by count, one bucket per distinct
  /// count, chains in insertion order. Inherits at most `capacity` entries,
  /// keeping the heaviest. Returns false - the snapshot is not a valid
  /// disjoint partition - when a key appears twice.
  template <typename Key, typename Carried>
  [[nodiscard]] static bool load_space_saving(space_saving<Key>& ss,
                                              std::vector<Carried>& entries,
                                              std::size_t capacity) {
    using ss_t = space_saving<Key>;
    ss.flush();
    std::sort(entries.begin(), entries.end(), [](const Carried& a, const Carried& b) {
      return a.count != b.count ? a.count < b.count : a.key < b.key;
    });
    const std::size_t skip = entries.size() > capacity ? entries.size() - capacity : 0;
    std::uint32_t last_bucket = ss_t::npos;
    std::uint64_t adds = 0;
    for (std::size_t n = skip; n < entries.size(); ++n) {
      const Carried& e = entries[n];
      const std::size_t home = ss.index_.bucket(e.key);
      if (ss.index_.find_prehashed(home, e.key) != nullptr) return false;  // duplicate key
      const auto idx = static_cast<std::uint32_t>(ss.used_++);
      ss.nodes_[idx].key = e.key;
      ss.counts_[idx] = e.count;
      ss.nodes_[idx].overest = e.overestimate;
      ss.nodes_[idx].islot =
          static_cast<std::uint32_t>(ss.index_.emplace_prehashed(home, e.key, idx));
      if (last_bucket == ss_t::npos || ss.buckets_[last_bucket].count != e.count) {
        const std::uint32_t bkt = ss.new_bucket(e.count);
        ss.buckets_[bkt].prev = last_bucket;
        if (last_bucket != ss_t::npos) {
          ss.buckets_[last_bucket].next = bkt;
        } else {
          ss.min_bucket_ = bkt;
        }
        last_bucket = bkt;
      }
      ss.push_counter(idx, last_bucket);
      adds += e.count;
    }
    ss.adds_ = adds;
    return true;
  }
};

/// Elastic N -> M scale: reshards `old` onto `shards` shards with the rest
/// of its global geometry (window, counters, tau, seed) unchanged - the
/// one sequence every rescale hook runs (front_host, pipeline::rescale).
/// Routing restarts on plain hashing, so a weighted table does not survive.
/// nullopt when the transport refuses the geometry (e.g. shards == 0).
template <typename Key>
[[nodiscard]] std::optional<sharded_memento<Key>> reshard_to(const sharded_memento<Key>& old,
                                                             std::size_t shards) {
  shard_config config = old.config_snapshot();
  config.shards = shards;
  return snapshot_builder::reshard(old, config);
}

}  // namespace memento
