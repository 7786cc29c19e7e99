// Differential tests for the batched update path: update_batch (and the
// composite-sampler kernel behind h_memento::update_batch) must leave a
// sketch in state *identical* to the same packets fed through scalar
// update() - same sampled sequence, same queries, same heavy-hitter output,
// same forced-drain count, same save() bytes - for every tau regime and for
// batch sizes that straddle block and frame boundaries. This is what
// licenses every batch-path shortcut (sampled-offset gap walks, prehashed
// adds, hoisted boundary checks, the multiply-based overflow test).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <vector>

#include "core/h_memento.hpp"
#include "core/memento.hpp"
#include "hierarchy/hhh_solver.hpp"
#include "hierarchy/prefix1d.hpp"
#include "hierarchy/prefix2d.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"
#include "util/simd.hpp"
#include "snapshot/snapshot.hpp"

namespace memento {
namespace {

using sketch = memento_sketch<std::uint64_t>;

std::vector<std::uint64_t> skewed_ids(std::size_t n, std::uint64_t seed) {
  // Zipf-like mix over a small universe: plenty of repeats (overflows) and
  // plenty of distinct tail keys (evictions).
  trace_generator gen(trace_config{1u << 12, 1.2, seed, 0});
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(flow_id(gen.next()));
  return ids;
}

/// Asserts every observable of the two sketches is identical. Exact vector
/// comparison (keys AND estimates, in order) on purpose: the batch path must
/// replay the scalar mutation order bit-for-bit, so even iteration order and
/// tie-breaks agree.
void expect_identical(const sketch& a, const sketch& b) {
  ASSERT_EQ(a.stream_length(), b.stream_length());
  ASSERT_EQ(a.forced_drains(), b.forced_drains());
  ASSERT_EQ(a.overflow_entries(), b.overflow_entries());
  ASSERT_EQ(snapshot::save(a), snapshot::save(b));

  const auto keys_a = a.monitored_keys();
  const auto keys_b = b.monitored_keys();
  ASSERT_EQ(keys_a, keys_b);
  for (const auto& k : keys_a) {
    ASSERT_DOUBLE_EQ(a.query(k), b.query(k)) << "key " << k;
    ASSERT_DOUBLE_EQ(a.query_lower(k), b.query_lower(k)) << "key " << k;
  }
  // An unmonitored key exercises the no-overflow query branch.
  ASSERT_DOUBLE_EQ(a.query(0xFFFF'FFFF'FFFF'0001ull), b.query(0xFFFF'FFFF'FFFF'0001ull));

  for (double theta : {0.001, 0.01, 0.1}) {
    const auto hh_a = a.heavy_hitters(theta);
    const auto hh_b = b.heavy_hitters(theta);
    ASSERT_EQ(hh_a.size(), hh_b.size()) << "theta " << theta;
    for (std::size_t i = 0; i < hh_a.size(); ++i) {
      ASSERT_EQ(hh_a[i].key, hh_b[i].key) << "theta " << theta << " rank " << i;
      ASSERT_DOUBLE_EQ(hh_a[i].estimate, hh_b[i].estimate);
    }
  }
  const auto top_a = a.top(16);
  const auto top_b = b.top(16);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (std::size_t i = 0; i < top_a.size(); ++i) {
    ASSERT_EQ(top_a[i].key, top_b[i].key) << "rank " << i;
    ASSERT_DOUBLE_EQ(top_a[i].estimate, top_b[i].estimate);
  }
}

/// Full-update probability of one BatchEquivalence case. It prints as
/// 1/tau to three digits, which keeps the inverse-power cases' test ids
/// (/1, /2, ..., /256) and names tau = 0.9 /1.11.
struct tau_case {
  double tau;
};

void PrintTo(const tau_case& c, std::ostream* os) {
  *os << std::setprecision(3) << 1.0 / c.tau;
}

class BatchEquivalence : public ::testing::TestWithParam<tau_case> {};

TEST_P(BatchEquivalence, BatchEqualsScalarAcrossTauAndBatchSizes) {
  // W = 1000, k = 8 -> block 125, frame 1000: 5000 packets cross 5 frame and
  // 40 block boundaries, so every batch size below lands on and straddles
  // boundaries many times. Batch sizes exercise: single packet, unaligned
  // small, exactly one block, one block + 1, prime, exactly one frame,
  // bigger than a frame, and everything at once.
  // tau = 0.9 gives long gap-free runs cut by single gaps, so the batch
  // kernel's gap-free tails start mid-chunk and straddle the blocks.
  const double tau = GetParam().tau;
  const auto ids = skewed_ids(5000, 42 + static_cast<std::uint64_t>(std::lround(1.0 / tau)));

  for (std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{125}, std::size_t{126},
        std::size_t{997}, std::size_t{1000}, std::size_t{1024}, ids.size()}) {
    sketch scalar(1000, 8, tau, /*seed=*/5);
    sketch batched(1000, 8, tau, /*seed=*/5);
    for (const auto id : ids) scalar.update(id);
    for (std::size_t i = 0; i < ids.size(); i += batch) {
      batched.update_batch(ids.data() + i, std::min(batch, ids.size() - i));
    }
    SCOPED_TRACE("tau=" + std::to_string(tau) + " batch=" + std::to_string(batch));
    expect_identical(scalar, batched);
  }
}

INSTANTIATE_TEST_SUITE_P(TauRegimes, BatchEquivalence,
                         ::testing::Values(tau_case{1.0}, tau_case{0.9}, tau_case{1.0 / 2},
                                           tau_case{1.0 / 4}, tau_case{1.0 / 8},
                                           tau_case{1.0 / 16}, tau_case{1.0 / 256}));

TEST(BatchEquivalence, SpanOverloadAndMixedScalarBatchInterleaving) {
  // Switching between scalar and batch ingestion mid-stream must be seamless
  // (same sampler sequence): scalar x2000, one batch of 1111, scalar again.
  const auto ids = skewed_ids(5000, 7);
  sketch scalar(1000, 8, 1.0 / 16, /*seed=*/9);
  sketch mixed(1000, 8, 1.0 / 16, /*seed=*/9);
  for (const auto id : ids) scalar.update(id);

  std::size_t i = 0;
  for (; i < 2000; ++i) mixed.update(ids[i]);
  mixed.update_batch(std::span<const std::uint64_t>(ids.data() + i, 1111));
  i += 1111;
  for (; i < ids.size(); ++i) mixed.update(ids[i]);
  expect_identical(scalar, mixed);
}

TEST(BatchEquivalence, TinyWindowDegenerateGeometry) {
  // W rounds up to k*block; k = 1 gives a 2-slot ring and threshold 1 (every
  // sampled add overflows) - the degenerate geometry where off-by-one
  // boundary bugs in the run segmentation would surface.
  const auto ids = skewed_ids(600, 3);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    sketch scalar(5, k, 1.0, /*seed=*/2);
    sketch batched(5, k, 1.0, /*seed=*/2);
    for (const auto id : ids) scalar.update(id);
    for (std::size_t i = 0; i < ids.size(); i += 17) {
      batched.update_batch(ids.data() + i, std::min<std::size_t>(17, ids.size() - i));
    }
    SCOPED_TRACE("k=" + std::to_string(k));
    expect_identical(scalar, batched);
  }
}

TEST(BatchEquivalence, HMementoBatchMatchesScalar) {
  // The composite-sampler kernel: h_memento draws its own decisions and
  // random generalizations; batch and scalar must consume sampler and rng
  // identically and produce the same HHH output.
  trace_generator gen(trace_kind::datacenter, 11);
  std::vector<packet> packets;
  for (int i = 0; i < 4000; ++i) packets.push_back(gen.next());

  for (double tau : {1.0, 0.9, 1.0 / 2, 1.0 / 4, 1.0 / 16}) {
    h_memento<source_hierarchy> scalar(1000, 8 * source_hierarchy::hierarchy_size,
                                       tau, 1e-3, /*seed=*/4);
    h_memento<source_hierarchy> batched(1000, 8 * source_hierarchy::hierarchy_size,
                                        tau, 1e-3, /*seed=*/4);
    for (const auto& p : packets) scalar.update(p);
    for (std::size_t i = 0; i < packets.size(); i += 300) {
      batched.update_batch(packets.data() + i, std::min<std::size_t>(300, packets.size() - i));
    }
    SCOPED_TRACE("tau=" + std::to_string(tau));
    ASSERT_EQ(scalar.stream_length(), batched.stream_length());
    ASSERT_EQ(snapshot::save(scalar), snapshot::save(batched));
    const auto out_a = scalar.output(0.05);
    const auto out_b = batched.output(0.05);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      ASSERT_EQ(out_a[i].key, out_b[i].key);
      ASSERT_DOUBLE_EQ(out_a[i].conditioned_frequency, out_b[i].conditioned_frequency);
      ASSERT_DOUBLE_EQ(out_a[i].upper_estimate, out_b[i].upper_estimate);
    }
  }
}

TEST(BatchEquivalence, TwoDimHMementoBatchMatchesScalar) {
  // The 2-D lattice through the same composite-sampler kernel: level choices
  // split into (src_depth, dst_depth) = (i/5, i%5) and both address columns
  // mask through the vectorized kernel, but the sampler and rng consumption
  // order must still replay the scalar path exactly.
  trace_generator gen(trace_kind::datacenter, 19);
  std::vector<packet> packets;
  for (int i = 0; i < 4000; ++i) packets.push_back(gen.next());

  for (double tau : {1.0, 0.9, 1.0 / 2, 1.0 / 4, 1.0 / 16}) {
    h_memento<two_dim_hierarchy> scalar(1000, 8 * two_dim_hierarchy::hierarchy_size,
                                        tau, 1e-3, /*seed=*/6);
    h_memento<two_dim_hierarchy> batched(1000, 8 * two_dim_hierarchy::hierarchy_size,
                                         tau, 1e-3, /*seed=*/6);
    for (const auto& p : packets) scalar.update(p);
    for (std::size_t i = 0; i < packets.size(); i += 300) {
      batched.update_batch(packets.data() + i, std::min<std::size_t>(300, packets.size() - i));
    }
    SCOPED_TRACE("tau=" + std::to_string(tau));
    ASSERT_EQ(scalar.stream_length(), batched.stream_length());
    ASSERT_EQ(snapshot::save(scalar), snapshot::save(batched));
    const auto out_a = scalar.output(0.05);
    const auto out_b = batched.output(0.05);
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) {
      ASSERT_EQ(out_a[i].key, out_b[i].key);
      ASSERT_DOUBLE_EQ(out_a[i].conditioned_frequency, out_b[i].conditioned_frequency);
      ASSERT_DOUBLE_EQ(out_a[i].upper_estimate, out_b[i].upper_estimate);
    }
  }
}

/// Naive Algorithm 2/4 reference: one flat pass over the candidates in
/// (combined depth, lexicographic) order, recomputing G(q|P) and the 2-D
/// inclusion-exclusion from first principles each time. Deliberately written
/// independently of hhh_solver.hpp (no level grouping, no dedup tricks) so
/// optimizations there keep an oracle to answer to.
template <typename H>
std::vector<hhh_entry<typename H::key_type>> naive_hhh(
    std::vector<typename H::key_type> candidates,
    const std::function<freq_bounds(const typename H::key_type&)>& bounds, double threshold,
    double compensation) {
  using key_type = typename H::key_type;
  std::sort(candidates.begin(), candidates.end(), [](const key_type& a, const key_type& b) {
    return H::depth(a) != H::depth(b) ? H::depth(a) < H::depth(b) : a < b;
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  std::vector<key_type> selected;
  std::vector<hhh_entry<key_type>> out;
  for (const auto& q : candidates) {
    std::vector<key_type> inside;
    for (const auto& h : selected) {
      if (H::strictly_generalizes(q, h)) inside.push_back(h);
    }
    std::vector<key_type> g;
    for (const auto& h : inside) {
      bool dominated = false;
      for (const auto& m : inside) {
        if (!(m == h) && H::strictly_generalizes(m, h)) dominated = true;
      }
      if (!dominated) g.push_back(h);
    }
    double conditioned = bounds(q).upper + compensation;
    for (const auto& h : g) conditioned -= bounds(h).lower;
    if constexpr (H::two_dimensional) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        for (std::size_t j = i + 1; j < g.size(); ++j) {
          const auto common = prefix2::glb(g[i], g[j]);
          if (!common) continue;
          bool covered = false;
          for (const auto& h3 : g) {
            if (!(h3 == g[i]) && !(h3 == g[j]) && prefix2::generalizes(*common, h3)) {
              covered = true;
            }
          }
          if (!covered) conditioned += bounds(*common).upper;
        }
      }
    }
    if (conditioned >= threshold) {
      selected.push_back(q);
      out.push_back({q, conditioned, bounds(q).upper});
    }
  }
  return out;
}

TEST(BatchEquivalence, TwoDimLatticeOutputMatchesNaivePerLevelReference) {
  // One heavy (src, dst) pair at 25% of traffic over uniform 2-D mice. The
  // production solver must agree entry-for-entry with the naive reference on
  // the live sketch's own bounds, and the lattice semantics must hold by
  // hand: the heavy pair and the root are HHHs, while every strict ancestor
  // in between holds only the pair's (already conditioned-away) mass.
  constexpr std::uint64_t kWindow = 50000;
  const packet heavy{0x0a141e28u, 0xc0a80101u};
  h_memento<two_dim_hierarchy> h(kWindow, 1024, 1.0, 1e-3, /*seed=*/5);
  xoshiro256 rng(71);
  for (std::uint64_t i = 0; i < 2 * kWindow; ++i) {
    if (i % 4 == 0) {
      h.update(heavy);
    } else {
      const std::uint32_t src = static_cast<std::uint32_t>(rng());
      h.update(packet{src, static_cast<std::uint32_t>(rng())});
    }
  }

  const double theta = 0.15;
  const std::function<freq_bounds(const prefix2d&)> bounds = [&](const prefix2d& k) {
    return freq_bounds{h.query(k), h.query_lower(k)};
  };
  for (const double comp : {0.0, h.sampling_compensation()}) {
    SCOPED_TRACE("compensation=" + std::to_string(comp));
    const auto fast = h.output(theta, comp);
    const auto naive = naive_hhh<two_dim_hierarchy>(
        h.inner().monitored_keys(), bounds, theta * static_cast<double>(kWindow), comp);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].key, naive[i].key);
      ASSERT_DOUBLE_EQ(fast[i].conditioned_frequency, naive[i].conditioned_frequency);
      ASSERT_DOUBLE_EQ(fast[i].upper_estimate, naive[i].upper_estimate);
    }
  }

  // Hand-pinned lattice shape at comp = 0: exactly {heavy pair, root}.
  const auto out = h.output(theta, 0.0);
  const auto key = two_dim_hierarchy::full_key(heavy);
  const auto root = prefix2::make(0, 4, 0, 4);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::any_of(out.begin(), out.end(), [&](const auto& e) { return e.key == key; }));
  EXPECT_TRUE(std::any_of(out.begin(), out.end(), [&](const auto& e) { return e.key == root; }));
}

TEST(BatchEquivalence, EmptyAndSingleElementBatches) {
  sketch scalar(100, 4, 0.5, /*seed=*/1);
  sketch batched(100, 4, 0.5, /*seed=*/1);
  const auto ids = skewed_ids(300, 1);
  for (const auto id : ids) scalar.update(id);
  batched.update_batch(ids.data(), 0);  // no-op
  for (const auto id : ids) batched.update_batch(&id, 1);
  expect_identical(scalar, batched);
}

// --- SIMD dispatch differentials ---------------------------------------------
// The hierarchical batch path is the only sketch code with tier-dependent
// kernels (prefix masking): the same trace under every dispatch tier must
// produce identical save() bytes - the SIMD kernels may only change speed,
// never state.

std::vector<simd::tier> host_tiers() {
  std::vector<simd::tier> out{simd::tier::scalar};
  if (simd::detect() >= simd::tier::avx2) out.push_back(simd::tier::avx2);
  return out;
}

TEST(BatchSimd, HMementoEveryTierIsByteIdenticalOnBothHierarchies) {
  // The hierarchical batch kernel's tier differential: the vectorized prefix
  // masking (mask_addr_by_depth / make_prefix_keys) behind materialize_keys
  // may only change speed, never the sampled keys - pinned as save()-byte
  // equality against the scalar tier for the 1-D hierarchy AND the 2-D
  // lattice, across the full and sampled tau regimes.
  trace_generator gen(trace_kind::backbone, 43);
  std::vector<packet> packets;
  for (int i = 0; i < 20000; ++i) packets.push_back(gen.next());

  auto bytes_of = [](const auto& h) { return snapshot::save(h); };
  auto run = [&](auto tag, simd::tier t, double tau) {
    using hierarchy = decltype(tag);
    simd::scoped_tier guard(t);
    h_memento<hierarchy> h(4000, 16 * hierarchy::hierarchy_size, tau, 1e-3, /*seed=*/9);
    for (std::size_t i = 0; i < packets.size(); i += 997) {
      h.update_batch(packets.data() + i, std::min<std::size_t>(997, packets.size() - i));
    }
    return bytes_of(h);
  };

  for (const double tau : {1.0, 1.0 / 8}) {
    const auto scalar_1d = run(source_hierarchy{}, simd::tier::scalar, tau);
    const auto scalar_2d = run(two_dim_hierarchy{}, simd::tier::scalar, tau);
    for (const simd::tier t : host_tiers()) {
      if (t == simd::tier::scalar) continue;
      EXPECT_EQ(run(source_hierarchy{}, t, tau), scalar_1d)
          << "1-D tau=" << tau << " tier=" << simd::tier_name(t);
      EXPECT_EQ(run(two_dim_hierarchy{}, t, tau), scalar_2d)
          << "2-D tau=" << tau << " tier=" << simd::tier_name(t);
    }
  }
}

TEST(BatchSimd, OverflowPeakWindowTracksBursts) {
  // tau=1, threshold = W/k: the overflow-peak introspection must see at
  // least one append per completed block on a skewed trace, and the peak is
  // bounded by the heaviest block's append count.
  sketch s(1000, 8, 1.0, /*seed=*/3);
  const auto ids = skewed_ids(5000, 55);
  s.update_batch(ids.data(), ids.size());
  EXPECT_GT(s.block_overflow_peak(), 0u);
  // The scalar and batch paths account appends identically.
  sketch scalar(1000, 8, 1.0, /*seed=*/3);
  for (const auto id : ids) scalar.update(id);
  EXPECT_EQ(scalar.block_overflow_peak(), s.block_overflow_peak());
  EXPECT_EQ(scalar.block_overflow_appends(), s.block_overflow_appends());
}

TEST(BatchSimd, ProbeStatsAreExposedThroughTheSketch) {
  sketch s(1000, 8, 1.0, /*seed=*/3);
  const auto ids = skewed_ids(3000, 91);
  s.update_batch(ids.data(), ids.size());
  const flat_hash_stats idx = s.counter_index_stats();
  EXPECT_GT(idx.capacity, 0u);
  EXPECT_LE(idx.size, s.counters()) << "index holds at most k monitored keys";
  EXPECT_LE(idx.mean_probe, static_cast<double>(idx.max_probe));
  const flat_hash_stats ovf = s.overflow_table_stats();
  EXPECT_EQ(ovf.size, s.overflow_entries());
  EXPECT_LE(ovf.load_factor, 0.75 + 1e-9);
}

}  // namespace
}  // namespace memento
