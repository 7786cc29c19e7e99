// flat_hash: the open-addressing map under the whole sketch stack.
//
// Directed tests pin the structural invariants (power-of-two growth, load
// bound, backward-shift erase leaving no unreachable keys, prehashed entry
// points, move callbacks); a randomized mixed workload checks every
// observable against a std::unordered_map oracle, including across rehashes,
// clear() and mid-stream save -> restore round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_hash.hpp"
#include "util/random.hpp"
#include "util/wire.hpp"

namespace memento {
namespace {

std::vector<std::uint8_t> save_bytes(const flat_hash<std::uint64_t>& h) {
  std::vector<std::uint8_t> out;
  wire::sink s(out);
  h.save(s);
  EXPECT_TRUE(s.finish());
  return out;
}

/// Restores `h` from save_bytes() output; false unless every byte is used.
bool restore_bytes(flat_hash<std::uint64_t>& h, std::span<const std::uint8_t> image) {
  wire::source s(image);
  return h.restore(s) && s.done();
}

TEST(FlatHash, StartsEmptyAndUnallocated) {
  flat_hash<std::uint64_t> h;
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.capacity(), 0u);
  EXPECT_EQ(h.find(42), nullptr);
  EXPECT_FALSE(h.erase(42));
}

TEST(FlatHash, InsertFindEraseRoundTrip) {
  flat_hash<std::uint64_t> h;
  h.emplace(7, 70);
  h.emplace(8, 80);
  ASSERT_NE(h.find(7), nullptr);
  EXPECT_EQ(*h.find(7), 70u);
  ASSERT_NE(h.find(8), nullptr);
  EXPECT_EQ(*h.find(8), 80u);
  EXPECT_EQ(h.find(9), nullptr);
  EXPECT_TRUE(h.erase(7));
  EXPECT_EQ(h.find(7), nullptr);
  EXPECT_FALSE(h.erase(7));
  EXPECT_EQ(h.size(), 1u);
}

TEST(FlatHash, FindOrEmplaceIsTheCounterIdiom) {
  flat_hash<std::uint64_t> h;
  ++h.find_or_emplace(5, 0);
  ++h.find_or_emplace(5, 0);
  ++h.find_or_emplace(6, 10);
  ASSERT_NE(h.find(5), nullptr);
  EXPECT_EQ(*h.find(5), 2u);
  EXPECT_EQ(*h.find(6), 11u);
}

TEST(FlatHash, CapacityIsPowerOfTwoAndLoadStaysBounded) {
  flat_hash<std::uint64_t> h;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    h.emplace(i, static_cast<std::uint32_t>(i));
    const std::size_t cap = h.capacity();
    EXPECT_EQ(cap & (cap - 1), 0u) << "capacity not a power of two";
    EXPECT_LE(h.size(), cap - cap / 4) << "load factor above 3/4";
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(h.find(i), nullptr) << i;
    EXPECT_EQ(*h.find(i), i);
  }
}

TEST(FlatHash, ReserveIsEnoughForThatManyInserts) {
  flat_hash<std::uint64_t> h(600);
  const std::size_t cap = h.capacity();
  EXPECT_GE(cap - cap / 4, 600u);
  for (std::uint64_t i = 0; i < 600; ++i) h.emplace(i, 1);
  EXPECT_EQ(h.capacity(), cap) << "reserve() did not prevent growth";
}

TEST(FlatHash, ClearKeepsCapacity) {
  flat_hash<std::uint64_t> h;
  for (std::uint64_t i = 0; i < 100; ++i) h.emplace(i, 1);
  const std::size_t cap = h.capacity();
  h.clear();
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.capacity(), cap);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(h.find(i), nullptr);
  h.emplace(3, 33);
  EXPECT_EQ(*h.find(3), 33u);
}

// The backward-shift invariant: after any erase, every remaining key is
// still reachable by probing from its home bucket (no tombstone needed, no
// orphan left behind a hole). Colliding keys are forced by inserting more
// keys than buckets-with-distinct-homes, then erasing from chain heads.
TEST(FlatHash, BackwardShiftKeepsAllChainsReachable) {
  xoshiro256 rng(2024);
  for (int round = 0; round < 50; ++round) {
    flat_hash<std::uint64_t> h;
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t k = rng() % 128;  // small universe -> heavy collisions
      if (!h.contains(k)) {
        h.emplace(k, static_cast<std::uint32_t>(k + 1));
        keys.push_back(k);
      }
    }
    // Erase half in random order; after each erase, every survivor must
    // still be found and carry its value.
    for (std::size_t e = 0; e < keys.size() / 2; ++e) {
      const std::size_t victim = rng() % keys.size();
      const std::uint64_t k = keys[victim];
      keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(victim));
      ASSERT_TRUE(h.erase(k));
      for (const auto survivor : keys) {
        ASSERT_NE(h.find(survivor), nullptr)
            << "key " << survivor << " unreachable after erasing " << k;
        EXPECT_EQ(*h.find(survivor), survivor + 1);
      }
    }
  }
}

TEST(FlatHash, PrehashedEntryPointsMatchPlainOnes) {
  flat_hash<std::uint64_t> h(64);
  for (std::uint64_t i = 0; i < 40; ++i) {
    h.emplace_prehashed(h.bucket(i), i, static_cast<std::uint32_t>(i));
  }
  for (std::uint64_t i = 0; i < 40; ++i) {
    ASSERT_NE(h.find_prehashed(h.bucket(i), i), nullptr);
    EXPECT_EQ(*h.find_prehashed(h.bucket(i), i), i);
    EXPECT_EQ(h.find_prehashed(h.bucket(i), i), h.find(i));
  }
  EXPECT_EQ(h.find_prehashed(h.bucket(999), 999), nullptr);
}

TEST(FlatHash, EraseAtReportsEveryRelocation) {
  // Maintain an external slot map through erase_at's move callback, exactly
  // as space_saving keeps counter->slot back-references, and verify the
  // tracked positions keep dereferencing to the right keys.
  flat_hash<std::uint64_t> h(128);
  std::unordered_map<std::uint32_t, std::size_t> slot_of_value;
  std::unordered_map<std::uint64_t, std::uint32_t> value_of_key;
  xoshiro256 rng(7);
  std::vector<std::uint64_t> keys;
  for (std::uint32_t v = 0; v < 80; ++v) {
    const std::uint64_t k = rng() % 200;
    if (value_of_key.count(k)) continue;
    slot_of_value[v] = h.emplace_prehashed(h.bucket(k), k, v);
    value_of_key[k] = v;
    keys.push_back(k);
  }
  while (!keys.empty()) {
    const std::uint64_t k = keys.back();
    keys.pop_back();
    const std::uint32_t v = value_of_key[k];
    h.erase_at(slot_of_value[v], [&](std::uint32_t moved, std::size_t pos) {
      slot_of_value[moved] = pos;
    });
    slot_of_value.erase(v);
    value_of_key.erase(k);
    // Every tracked slot still holds the claimed entry.
    for (const auto& [value, pos] : slot_of_value) {
      (void)pos;
      std::uint64_t key_of_value = 0;
      for (const auto& [kk, vv] : value_of_key) {
        if (vv == value) key_of_value = kk;
      }
      ASSERT_NE(h.find(key_of_value), nullptr);
      EXPECT_EQ(*h.find(key_of_value), value);
    }
  }
  EXPECT_TRUE(h.empty());
}

TEST(FlatHash, ForEachVisitsExactlyTheLiveEntries) {
  flat_hash<std::uint64_t> h;
  std::unordered_map<std::uint64_t, std::uint32_t> expect;
  for (std::uint64_t i = 0; i < 200; ++i) {
    h.emplace(i * 3, static_cast<std::uint32_t>(i));
    expect[i * 3] = static_cast<std::uint32_t>(i);
  }
  for (std::uint64_t i = 0; i < 200; i += 2) {
    h.erase(i * 3);
    expect.erase(i * 3);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  h.for_each([&](std::uint64_t k, std::uint32_t v) { seen[k] = v; });
  EXPECT_EQ(seen, expect);
}

// The iteration kernel against the scalar control-byte walk it replaced, on
// raw control arrays of every length 0..72 (word-sized or not) followed by
// 31 used bytes past the end that must never be visited.
TEST(FlatHash, ForEachUsedCtrlMatchesScalarWalk) {
  xoshiro256 rng(0xc7);
  const double densities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  for (std::size_t n = 0; n <= 72; ++n) {
    for (const double density : densities) {
      std::vector<std::uint8_t> ctrl(n + 31);
      for (std::size_t i = 0; i < ctrl.size(); ++i) {
        const bool used = i >= n || rng.uniform01() < density;
        ctrl[i] = used ? static_cast<std::uint8_t>(rng.bounded(0x80)) : kCtrlEmpty;
      }
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < n; ++i) {
        if (ctrl[i] != kCtrlEmpty) expect.push_back(i);
      }
      std::vector<std::size_t> seen;
      for_each_used_ctrl(ctrl.data(), n, [&](std::size_t i) { seen.push_back(i); });
      EXPECT_EQ(seen, expect) << "n=" << n << " density=" << density;
    }
  }
}

// for_each / for_each_slot visit every used slot exactly once, ascending,
// and nothing else - checked on real tables of every capacity from 8 to
// 1024 after backward-shift erases, against slot positions tracked
// independently through emplace_prehashed and erase_at's move callback.
TEST(FlatHash, ForEachVisitsUsedSlotsOnceInSlotOrder) {
  xoshiro256 rng(0xf0);
  for (std::size_t cap = 8; cap <= 1024; cap *= 2) {
    flat_hash<std::uint64_t> h(cap - cap / 4);
    ASSERT_EQ(h.capacity(), cap);
    std::unordered_map<std::uint32_t, std::size_t> slot_of_value;
    std::unordered_map<std::uint32_t, std::uint64_t> key_of_value;
    std::uint32_t next_value = 0;
    for (int round = 0; round < 6; ++round) {
      while (h.size() < cap - cap / 4) {  // fill to the load bound
        const std::uint64_t k = rng() % (4 * cap);
        if (h.contains(k)) continue;
        slot_of_value[next_value] = h.emplace_prehashed(h.bucket(k), k, next_value);
        key_of_value[next_value++] = k;
      }
      for (std::size_t e = 0; e < cap / 3; ++e) {  // backward-shift erases
        auto victim = slot_of_value.begin();
        std::advance(victim, static_cast<std::ptrdiff_t>(rng.bounded(slot_of_value.size())));
        const std::uint32_t v = victim->first;
        h.erase_at(victim->second,
                   [&](std::uint32_t moved, std::size_t pos) { slot_of_value[moved] = pos; });
        slot_of_value.erase(v);
        key_of_value.erase(v);
      }
      std::vector<std::pair<std::size_t, std::uint32_t>> expect;
      for (const auto& [value, pos] : slot_of_value) expect.emplace_back(pos, value);
      std::sort(expect.begin(), expect.end());

      std::vector<std::pair<std::size_t, std::uint32_t>> seen;
      h.for_each_slot([&](std::size_t pos, std::uint64_t key, std::uint32_t value) {
        EXPECT_EQ(key, key_of_value[value]);
        seen.emplace_back(pos, value);
      });
      ASSERT_EQ(seen, expect) << "cap=" << cap << " round=" << round;
      std::size_t i = 0;
      h.for_each([&](std::uint64_t key, std::uint32_t value) {
        ASSERT_LT(i, expect.size());
        EXPECT_EQ(value, expect[i].second);
        EXPECT_EQ(key, key_of_value[value]);
        ++i;
      });
      EXPECT_EQ(i, h.size());
    }
  }
}

// Randomized differential test: a long mixed op stream, checked against
// std::unordered_map after every operation batch and exhaustively at the
// end. Small key universe maximizes collision/backshift traffic. Each stream
// runs twice: once straight through, once replacing the table every 977th
// op with its own save -> restore round trip, which must reproduce the
// image byte for byte and carry on as if nothing happened.
TEST(FlatHash, RandomOpsMatchUnorderedMapOracle) {
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> straight_through;
  for (const int restore_every : {0, 977}) {
    for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
      xoshiro256 rng(seed);
      flat_hash<std::uint64_t> h;
      std::unordered_map<std::uint64_t, std::uint32_t> oracle;
      for (int op = 0; op < 20000; ++op) {
        if (restore_every != 0 && op % restore_every == 0) {
          const auto image = save_bytes(h);
          flat_hash<std::uint64_t> back;
          ASSERT_TRUE(restore_bytes(back, image)) << "mid-stream restore failed at op " << op;
          EXPECT_EQ(save_bytes(back), image) << "restore-save not a fixed point at op " << op;
          h = std::move(back);
        }
        const std::uint64_t key = rng() % 512;
        switch (rng() % 4) {
          case 0: {  // insert-if-absent
            if (!oracle.count(key)) {
              const auto v = static_cast<std::uint32_t>(rng());
              h.emplace(key, v);
              oracle.emplace(key, v);
            }
            break;
          }
          case 1: {  // counter bump
            ++h.find_or_emplace(key, 0);
            ++oracle[key];
            break;
          }
          case 2: {  // erase
            EXPECT_EQ(h.erase(key), oracle.erase(key) > 0);
            break;
          }
          default: {  // lookup
            const auto it = oracle.find(key);
            const std::uint32_t* p = h.find(key);
            if (it == oracle.end()) {
              EXPECT_EQ(p, nullptr);
            } else {
              ASSERT_NE(p, nullptr);
              EXPECT_EQ(*p, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(h.size(), oracle.size());
        if (op % 4096 == 0) {
          h.clear();
          oracle.clear();
        }
      }
      for (const auto& [k, v] : oracle) {
        ASSERT_NE(h.find(k), nullptr) << k;
        EXPECT_EQ(*h.find(k), v);
      }
      std::size_t visited = 0;
      h.for_each([&](std::uint64_t k, std::uint32_t v) {
        ++visited;
        auto it = oracle.find(k);
        ASSERT_NE(it, oracle.end());
        EXPECT_EQ(it->second, v);
      });
      EXPECT_EQ(visited, oracle.size());
      if (restore_every == 0) {
        straight_through[seed] = save_bytes(h);
      } else {
        EXPECT_EQ(save_bytes(h), straight_through[seed]) << "round trips changed the end state";
      }
    }
  }
}

// --- probe introspection -----------------------------------------------------

TEST(FlatHash, StatsOnEmptyAndPopulatedTables) {
  flat_hash<std::uint64_t> h;
  flat_hash_stats st = h.stats();
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(st.capacity, 0u);
  EXPECT_EQ(st.load_factor, 0.0);

  for (std::uint64_t i = 0; i < 300; ++i) h.emplace(i, 1);
  st = h.stats();
  EXPECT_EQ(st.size, 300u);
  EXPECT_EQ(st.capacity, h.capacity());
  EXPECT_NEAR(st.load_factor, 300.0 / static_cast<double>(h.capacity()), 1e-12);
  EXPECT_LE(st.mean_probe, static_cast<double>(st.max_probe));
  // The load bound caps the table at 3/4 full; probe chains stay short.
  EXPECT_LT(st.max_probe, st.capacity);
}

TEST(FlatHash, StatsSeeProbeChainsGrowWithLoad) {
  flat_hash<std::uint64_t> h(1024);
  double last_mean = 0.0;
  for (std::uint64_t i = 0; i < 700; ++i) h.emplace(i, 1);
  const flat_hash_stats st = h.stats();
  last_mean = st.mean_probe;
  EXPECT_GE(last_mean, 0.0);
  // At ~68% load some probe displacement is statistically certain.
  EXPECT_GT(st.max_probe, 0u);
}

}  // namespace
}  // namespace memento
