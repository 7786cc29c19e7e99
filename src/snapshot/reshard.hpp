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
// dent; the defensive drain in end_block() (counted, never unsafe)
// absorbs the difference.
//
// Requirements checked at runtime (nullopt otherwise): same tau and same
// per-shard overflow threshold between the old and new geometry - i.e. the
// same GLOBAL window/counter/tau budget, with only the shard count
// changing. Heterogeneous or incompatible inputs are rejected, never
// mis-merged. One path serves both frontends (flat and hierarchical, see
// shard/sharded_memento.hpp); where the routing leaves keys without a
// single owner (the hierarchical wildcard prefixes), those keys stay on
// their old shard index and the shard count may not change.
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
#include <utility>
#include <vector>

#include "core/memento.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_h_memento.hpp"
#include "shard/sharded_memento.hpp"
#include "sketch/space_saving.hpp"

namespace memento {

/// Privileged assembler of sketch state for the snapshot layer: the one
/// friend of space_saving / memento_sketch / h_memento / sharded that may
/// build instances from parts instead of from a stream.
class snapshot_builder {
 public:
  /// Re-partitions a live frontend onto config.shards shards. nullopt when
  /// the geometries are incompatible (different tau or per-shard overflow
  /// threshold, heterogeneous source shards), or when the frontend's
  /// routing leaves some keys unroutable and the shard count changes:
  /// those keys keep their old shard index, which is only meaningful while
  /// the shard set is stable (elastic N -> M scaling of the hierarchical
  /// frontend is future work).
  template <typename Sketch>
  [[nodiscard]] static std::optional<sharded<Sketch>> reshard(
      const sharded<Sketch>& old, const typename sharded<Sketch>::config_type& config) {
    return reshard_impl(old, config, /*table=*/nullptr);
  }

  /// Weighted overload: the replacement frontend routes through `table`
  /// (partitioner TABLE mode) instead of plain hashing - this is the
  /// rebalancer's migration primitive (shard/rebalance.hpp plans the table,
  /// this call moves the window state onto it). Same geometry contract as
  /// the plain overload, plus the table must fit config.shards.
  template <typename Sketch>
  [[nodiscard]] static std::optional<sharded<Sketch>> reshard(
      const sharded<Sketch>& old, const typename sharded<Sketch>::config_type& config,
      const shard_table& table) {
    return reshard_impl(old, config, &table);
  }

 private:
  /// The single guard + construct + transport path both public overloads
  /// land on; `table` selects TABLE-mode routing when non-null.
  template <typename Sketch>
  [[nodiscard]] static std::optional<sharded<Sketch>> reshard_impl(
      const sharded<Sketch>& old, const typename sharded<Sketch>::config_type& config,
      const shard_table* table) {
    using front_t = sharded<Sketch>;
    using routing = typename front_t::routing_type;
    const auto& budget = routing::budget(config);
    if (config.shards == 0 || budget.window_size == 0 || budget.counters == 0) {
      return std::nullopt;
    }
    if (!routing::every_key_routable && config.shards != old.num_shards()) return std::nullopt;
    if (table != nullptr && !table->valid_for(config.shards)) return std::nullopt;
    auto fresh = table != nullptr ? front_t(config, *table) : front_t(config);
    if (!compatible(old, fresh) || !transport(old, fresh)) return std::nullopt;
    return fresh;
  }

  /// A shard's memento_sketch: the shard itself, or a hierarchical shard's
  /// inner sketch (the wrapper adds no window geometry of its own, and its
  /// generalization PRNG restarts on migration by design).
  template <typename Sketch>
  [[nodiscard]] static auto& core_of(Sketch& shard) noexcept {
    if constexpr (requires { shard.inner_; }) {
      return shard.inner_;
    } else {
      return shard;
    }
  }

  /// Source shards must be one geometry (restore() accepts any sequence of
  /// individually valid shards; reshard does not), and the target must keep
  /// tau and the per-shard overflow threshold - i.e. the same GLOBAL
  /// window/counter/tau budget with only the routing changing.
  template <typename Sketch>
  [[nodiscard]] static bool compatible(const sharded<Sketch>& old, const sharded<Sketch>& fresh) {
    const auto& ref = core_of(old.shard(0));
    for (std::size_t o = 1; o < old.num_shards(); ++o) {
      const auto& s = core_of(old.shard(o));
      if (s.counters() != ref.counters() || s.window_size() != ref.window_size() ||
          s.tau() != ref.tau()) {
        return false;
      }
    }
    const auto& target = core_of(fresh.shard(0));
    return target.tau() == ref.tau() && target.overflow_threshold() == ref.overflow_threshold();
  }

  /// The state move: walks the old sketches' counters / overflow tables /
  /// block rings, assigns each piece of state to its new owner, and loads
  /// the new sketches in canonical form. A routable key's owner is fresh's
  /// routing - which is what lets one transport serve plain N -> M reshard
  /// (hash routing) and weighted rebalance (table routing); an unroutable
  /// key keeps its old shard index (the guard pins M == N for those), so
  /// the disjointness invariant - no key contributed twice to one new
  /// shard - is preserved. False when the source is not a valid disjoint
  /// partition.
  template <typename Sketch>
  [[nodiscard]] static bool transport(const sharded<Sketch>& old, sharded<Sketch>& fresh) {
    using Key = typename sharded<Sketch>::key_type;
    using routing = typename sharded<Sketch>::routing_type;
    const std::size_t m = fresh.num_shards();
    const auto owner_of = [&](const Key& key, std::size_t o) {
      return routing::routable(key) ? fresh.shard_of_key(key) : o;
    };
    const std::size_t k_old = core_of(old.shard(0)).counters();
    const std::size_t k_new = core_of(fresh.shard(0)).counters();

    struct carried {
      Key key{};
      std::uint64_t count = 0;
      std::uint64_t overestimate = 0;
    };
    std::vector<std::vector<carried>> counters(m);
    std::vector<std::vector<std::pair<Key, std::uint32_t>>> overflow(m);
    std::vector<std::vector<std::pair<std::uint32_t, Key>>> queued(m);  // (new age, key)

    std::uint64_t sum_clock = 0, sum_frame = 0, sum_stream = 0;
    for (std::size_t o = 0; o < old.num_shards(); ++o) {
      const auto& src = core_of(old.shard(o));
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
    const std::uint64_t frame = core_of(fresh.shard(0)).window_size();
    std::uint64_t clock = sum_frame == 0 ? 0
                                         : static_cast<std::uint64_t>(
                                               static_cast<double>(sum_clock) /
                                               static_cast<double>(sum_frame) *
                                               static_cast<double>(frame));
    if (clock >= frame) clock = frame - 1;

    for (std::size_t s = 0; s < m; ++s) {
      auto& dst = core_of(fresh.shards_[s]);
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
/// nullopt when the transport refuses the geometry (e.g. shards == 0, or
/// any change of shard count for the hierarchical frontend).
template <typename Sketch>
[[nodiscard]] std::optional<sharded<Sketch>> reshard_to(const sharded<Sketch>& old,
                                                        std::size_t shards) {
  auto config = old.config_snapshot();
  config.shards = shards;
  return snapshot_builder::reshard(old, config);
}

}  // namespace memento
