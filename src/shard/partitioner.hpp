// Keyspace partitioner for the sharded Memento frontend.
//
// Sharding Memento across cores is a *keyspace* partition, not a packet
// spray: every packet of a flow must land on the same shard, or no shard
// sees the flow's full window frequency and the merged answers stop being
// one-sided. The partitioner is therefore a pure function of the flow key -
// deterministic across calls, processes, and machines for a given shard
// count - and the whole frontend inherits replayability from it.
//
// Hashing reuses the mix64 avalanche that flat_hash builds its buckets from
// (util/random.hpp), with two decorrelation twists:
//   * a fixed salt is XORed into the raw std::hash value *before* the
//     avalanche, so the partitioner's bit-mixing trajectory differs from
//     flat_hash::bucket_of even though both finish with mix64;
//   * the shard index is taken from the *high* bits via fastrange64
//     (multiply-shift), while flat_hash masks the low bits - so even with
//     an identical avalanche the two selections would stay independent.
// Without this, keys colliding into one shard could systematically collide
// inside that shard's counter index too, concentrating probe chains.
//
// Two routing modes share that hash:
//
//   * HASH mode (the default): shard = fastrange64(mix64(h ^ salt), N).
//     Pure, stateless, uniform in expectation - but blind to keyspace skew:
//     a flow carrying 20% of traffic overloads whichever shard its hash
//     picked, forever.
//   * TABLE mode (skew-aware): the key is first reduced to one of B = c*N
//     BUCKETS (fastrange64 over the same avalanche), and a compact
//     bucket -> shard assignment table picks the shard. The table is the
//     rebalancer's knob (shard/rebalance.hpp): hot buckets migrate to cold
//     shards while every key's bucket stays fixed, so migrating a bucket
//     moves a deterministic, enumerable slice of the keyspace.
//
// The two modes agree bit-for-bit on the UNIFORM table (bucket b -> shard
// b/c): fastrange64 is floor(h*n / 2^64), and with B = c*N,
//
//     floor(fastrange64(h, c*N) / c) == fastrange64(h, N)
//
// by the nested-floor identity floor(floor(x)/c) = floor(x/c). That is why
// shard_table::uniform exists and why a table-mode frontend with a uniform
// table is differentially bit-identical to a hash-mode one (pinned by
// tests/rebalance_test.cpp) - the weighted router costs one extra L1-resident
// table read and otherwise changes nothing until a policy actually skews the
// assignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace memento {

/// Per-shard seed derivation shared by every sharded frontend: the base
/// seed XOR-folded with a per-shard odd multiple of phi64, then avalanched,
/// so shards never sample in lockstep. One definition on purpose -
/// differential tests reconstruct standalone per-shard references from it.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) noexcept {
  return mix64(base ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
}

/// Even split of a global budget (window packets, counters) across shards:
/// ceil(total / shards), floored at 1 so degenerate budgets stay legal.
[[nodiscard]] constexpr std::uint64_t shard_share(std::uint64_t total,
                                                 std::size_t shards) noexcept {
  const std::uint64_t n = shards > 0 ? shards : 1;
  const std::uint64_t share = (total + n - 1) / n;
  return share > 0 ? share : 1;
}

/// The burst partition pass of the sharded frontend and the pipeline: reset the
/// per-shard scratch buffers (capacity retained) and append each item to its
/// owner's buffer, preserving arrival order within each shard. shard_of is
/// any item -> shard index function (the frontend's routing, the pipeline's
/// core_of).
template <typename Item, typename ShardOf>
void partition_into(std::vector<std::vector<Item>>& scratch, const ShardOf& shard_of,
                    const Item* items, std::size_t n) {
  for (auto& buf : scratch) buf.clear();
  for (std::size_t i = 0; i < n; ++i) scratch[shard_of(items[i])].push_back(items[i]);
}

/// Buckets per shard in the two-level router: the rebalancer's placement
/// granularity. 64 buckets/shard keeps the heaviest single migration unit at
/// ~1.6% of a balanced shard's cold load (one flow can still dominate its
/// bucket - an unsplittable elephant is the placement floor either way) while
/// the whole table for an 8-shard box is 512 entries, L1-resident.
inline constexpr std::size_t kBucketsPerShard = 64;

/// Compact bucket -> shard assignment table for the partitioner's TABLE
/// mode. Invariants (enforced by valid_for / the consumers): non-empty, a
/// multiple of the shard count (so the uniform layout exists), every entry
/// in [0, shards).
struct shard_table {
  std::vector<std::uint32_t> to_shard;  ///< bucket b is owned by shard to_shard[b]

  [[nodiscard]] std::size_t buckets() const noexcept { return to_shard.size(); }

  /// The identity layout: bucket b -> shard b / (B/N), which routes
  /// bit-identically to HASH mode (see file comment).
  [[nodiscard]] static shard_table uniform(std::size_t shards,
                                           std::size_t buckets_per_shard = kBucketsPerShard) {
    shard_table t;
    t.to_shard.resize(shards * buckets_per_shard);
    for (std::size_t b = 0; b < t.to_shard.size(); ++b) {
      t.to_shard[b] = static_cast<std::uint32_t>(b / buckets_per_shard);
    }
    return t;
  }

  /// Structural validity for a given shard count: the conditions every
  /// consumer (ctor, wire restore) checks before routing through the table.
  [[nodiscard]] bool valid_for(std::size_t shards) const noexcept {
    if (to_shard.empty() || shards == 0 || to_shard.size() % shards != 0) return false;
    for (const std::uint32_t s : to_shard) {
      if (s >= shards) return false;
    }
    return true;
  }

  /// True when the table is exactly the uniform layout for `shards` - i.e.
  /// routing through it is bit-identical to HASH mode.
  [[nodiscard]] bool is_uniform(std::size_t shards) const noexcept {
    if (!valid_for(shards)) return false;
    const std::size_t per = to_shard.size() / shards;
    for (std::size_t b = 0; b < to_shard.size(); ++b) {
      if (to_shard[b] != b / per) return false;
    }
    return true;
  }

  [[nodiscard]] bool operator==(const shard_table&) const = default;
};

template <typename Key, typename Hash = std::hash<Key>>
class shard_partitioner {
 public:
  /// HASH mode. @param shards number of shards (>= 1).
  explicit shard_partitioner(std::size_t shards) : shards_(shards) {
    if (shards == 0) throw std::invalid_argument("shard_partitioner: shards must be >= 1");
    buckets_ = shards_ * kBucketsPerShard;
  }

  /// TABLE mode: routes key -> bucket -> table[bucket]. The table must be
  /// valid_for(shards); a uniform table routes bit-identically to HASH mode.
  shard_partitioner(std::size_t shards, shard_table table)
      : shards_(shards), table_(std::move(table)) {
    if (shards == 0) throw std::invalid_argument("shard_partitioner: shards must be >= 1");
    if (!table_.valid_for(shards)) {
      throw std::invalid_argument("shard_partitioner: table does not fit the shard count");
    }
    buckets_ = table_.buckets();
  }

  /// Owning shard of x, in [0, shards()). Pure and O(1) in both modes.
  [[nodiscard]] std::size_t operator()(const Key& x) const noexcept {
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(Hash{}(x)) ^ kSalt);
    if (table_.to_shard.empty()) {
      return static_cast<std::size_t>(fastrange64(h, shards_));
    }
    return table_.to_shard[static_cast<std::size_t>(fastrange64(h, buckets_))];
  }

  /// The key's bucket in [0, buckets()): the migration unit the rebalancer
  /// plans over. Defined in both modes (HASH mode uses the default bucket
  /// count), so a policy can plan a first table from a hash-mode frontend.
  [[nodiscard]] std::size_t bucket_of(const Key& x) const noexcept {
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(Hash{}(x)) ^ kSalt);
    return static_cast<std::size_t>(fastrange64(h, buckets_));
  }

  /// Owning shard of a bucket (bucket_of/shard composition without a key).
  [[nodiscard]] std::size_t shard_of_bucket(std::size_t bucket) const noexcept {
    if (table_.to_shard.empty()) return bucket / (buckets_ / shards_);
    return table_.to_shard[bucket];
  }

  [[nodiscard]] std::size_t shards() const noexcept { return static_cast<std::size_t>(shards_); }
  [[nodiscard]] std::size_t buckets() const noexcept { return static_cast<std::size_t>(buckets_); }
  /// Empty in HASH mode; the live assignment in TABLE mode.
  [[nodiscard]] const shard_table& table() const noexcept { return table_; }
  [[nodiscard]] bool weighted() const noexcept { return !table_.to_shard.empty(); }

 private:
  /// Arbitrary odd constant (phi64 with halves swapped); decorrelates the
  /// partition hash from flat_hash's bucket hash of the same key.
  static constexpr std::uint64_t kSalt = 0x7f4a7c159e3779b9ULL;

  std::uint64_t shards_;
  std::uint64_t buckets_;
  shard_table table_;  ///< empty => HASH mode
};

}  // namespace memento
