// flat_hash: the open-addressing map under the whole sketch stack.
//
// Directed tests pin the structural invariants (power-of-two growth, load
// bound, backward-shift erase leaving no unreachable keys, prehashed entry
// points, move callbacks); a randomized mixed workload checks every
// observable against a std::unordered_map oracle, including across rehashes
// and clear(). The tier-differential suites then force each SIMD dispatch
// tier in turn (simd::scoped_tier) and require bit-identical behavior down
// to the save() bytes - the group probes must choose exactly the slots the
// scalar oracle chooses.
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
#include "util/simd.hpp"
#include "util/wire.hpp"

namespace memento {
namespace {

/// Every dispatch tier this host can run (ascending, scalar first).
std::vector<simd::tier> host_tiers() {
  std::vector<simd::tier> out{simd::tier::scalar};
  if (simd::detect() >= simd::tier::sse2) out.push_back(simd::tier::sse2);
  if (simd::detect() >= simd::tier::avx2) out.push_back(simd::tier::avx2);
  return out;
}

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
// raw control arrays of every length 0..72 (word-sized or not) followed by a
// fully used wraparound mirror that must never be visited.
TEST(FlatHash, ForEachUsedCtrlMatchesScalarWalk) {
  xoshiro256 rng(0xc7);
  const double densities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
  for (std::size_t n = 0; n <= 72; ++n) {
    for (const double density : densities) {
      std::vector<std::uint8_t> ctrl(n + 31);
      for (std::size_t i = 0; i < ctrl.size(); ++i) {
        const bool used = i >= n || rng.uniform01() < density;
        ctrl[i] = used ? static_cast<std::uint8_t>(rng.bounded(0x80)) : simd::kCtrlEmpty;
      }
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < n; ++i) {
        if (ctrl[i] != simd::kCtrlEmpty) expect.push_back(i);
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
// end. Small key universe maximizes collision/backshift traffic.
TEST(FlatHash, RandomOpsMatchUnorderedMapOracle) {
  for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
    xoshiro256 rng(seed);
    flat_hash<std::uint64_t> h;
    std::unordered_map<std::uint64_t, std::uint32_t> oracle;
    for (int op = 0; op < 20000; ++op) {
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

// --- SIMD dispatch differentials ---------------------------------------------
// The acceptance bar of the SIMD rework: the group-probed tiers must be
// bit-identical to the scalar oracle - same lookup results, same insert
// slots, same backward-shift relocations, and therefore the same save()
// bytes after any operation history.

/// One deterministic mixed op stream (insert / bump / erase / lookup /
/// save+restore), run entirely under the given tier. Writes the final
/// serialized state to `out`; records every lookup outcome in `probe_log`.
/// (void-returning so gtest ASSERTs are usable inside.)
void run_op_stream(simd::tier t, std::uint64_t seed, std::vector<std::uint64_t>* probe_log,
                   std::vector<std::uint8_t>* out) {
  simd::scoped_tier guard(t);
  xoshiro256 rng(seed);
  flat_hash<std::uint64_t> h;
  for (int op = 0; op < 12000; ++op) {
    const std::uint64_t key = rng() % 384;
    switch (rng() % 5) {
      case 0:
        if (!h.contains(key)) h.emplace(key, static_cast<std::uint32_t>(rng()));
        break;
      case 1:
        ++h.find_or_emplace(key, 0);
        break;
      case 2:
        probe_log->push_back(h.erase(key) ? 1 : 0);
        break;
      case 3: {
        const std::uint32_t* p = h.find(key);
        probe_log->push_back(p ? *p : ~0ull);
        break;
      }
      default: {  // save/restore interleaving mid-stream
        if (op % 977 == 0) {
          flat_hash<std::uint64_t> back;
          ASSERT_TRUE(restore_bytes(back, save_bytes(h))) << "mid-stream restore failed";
          probe_log->push_back(back.size());
          h = std::move(back);
        }
        break;
      }
    }
  }
  *out = save_bytes(h);
}

TEST(FlatHashSimd, EveryTierProducesIdenticalBytesAndLookups) {
  for (const std::uint64_t seed : {3ull, 777ull, 424242ull}) {
    std::vector<std::uint64_t> scalar_log;
    std::vector<std::uint8_t> scalar_bytes;
    run_op_stream(simd::tier::scalar, seed, &scalar_log, &scalar_bytes);
    for (const simd::tier t : host_tiers()) {
      if (t == simd::tier::scalar) continue;
      std::vector<std::uint64_t> log;
      std::vector<std::uint8_t> bytes;
      run_op_stream(t, seed, &log, &bytes);
      EXPECT_EQ(log, scalar_log) << "lookup divergence under " << simd::tier_name(t);
      EXPECT_EQ(bytes, scalar_bytes) << "save() divergence under " << simd::tier_name(t);
    }
  }
}

TEST(FlatHashSimd, SaveRestoreCrossesDispatchTiers) {
  // Build under the widest tier, restore and continue under scalar (and the
  // reverse): the wire format carries no tier-dependent state, so the
  // continuations must stay byte-identical.
  const auto tiers = host_tiers();
  const simd::tier widest = tiers.back();
  for (const auto& [build_tier, continue_tier] :
       {std::pair{widest, simd::tier::scalar}, std::pair{simd::tier::scalar, widest}}) {
    std::vector<std::uint8_t> image;
    {
      simd::scoped_tier guard(build_tier);
      flat_hash<std::uint64_t> h(256);
      xoshiro256 rng(99);
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t k = rng() % 300;
        if (!h.contains(k)) h.emplace(k, static_cast<std::uint32_t>(k * 3));
        if (i % 7 == 0) h.erase(rng() % 300);
      }
      image = save_bytes(h);
    }
    // Continue identically under both the continue tier and scalar; states
    // must match each other (and the restored images must equal the saved).
    std::vector<std::uint8_t> final_a, final_b;
    for (int which = 0; which < 2; ++which) {
      simd::scoped_tier guard(which == 0 ? continue_tier : simd::tier::scalar);
      flat_hash<std::uint64_t> h;
      ASSERT_TRUE(restore_bytes(h, image));
      EXPECT_EQ(save_bytes(h), image) << "restore-save not a fixed point";
      xoshiro256 rng(1717);
      for (int i = 0; i < 400; ++i) {
        const std::uint64_t k = rng() % 300;
        ++h.find_or_emplace(k, 0);
        if (i % 5 == 0) h.erase(rng() % 300);
      }
      (which == 0 ? final_a : final_b) = save_bytes(h);
    }
    EXPECT_EQ(final_a, final_b) << "cross-tier continuation diverged";
  }
}

TEST(FlatHashSimd, PrehashedPathsMatchAcrossTiers) {
  // The prehashed entry points (token-based) under each tier against plain
  // find/emplace under scalar - same table, same bytes.
  std::vector<std::uint8_t> reference;
  {
    simd::scoped_tier guard(simd::tier::scalar);
    flat_hash<std::uint64_t> h(128);
    for (std::uint64_t i = 0; i < 90; ++i) h.emplace(i * 17, static_cast<std::uint32_t>(i));
    reference = save_bytes(h);
  }
  for (const simd::tier t : host_tiers()) {
    simd::scoped_tier guard(t);
    flat_hash<std::uint64_t> h(128);
    for (std::uint64_t i = 0; i < 90; ++i) {
      h.emplace_prehashed(h.bucket(i * 17), i * 17, static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(save_bytes(h), reference) << simd::tier_name(t);
    for (std::uint64_t i = 0; i < 90; ++i) {
      ASSERT_NE(h.find_prehashed(h.bucket(i * 17), i * 17), nullptr);
      EXPECT_EQ(*h.find_prehashed(h.bucket(i * 17), i * 17), i);
    }
    EXPECT_EQ(h.find_prehashed(h.bucket(5555), 5555), nullptr);
  }
}

}  // namespace
}  // namespace memento
