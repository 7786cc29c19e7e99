// H-Memento (Algorithm 2): hierarchical heavy hitters on a sliding window in
// constant time per packet.
//
// Unlike MST/RHHH's lattice of H separate HH instances, H-Memento keeps a
// SINGLE large Memento instance and feeds it sampled *prefixes*: with
// probability tau the packet triggers a Full update of one uniformly chosen
// generalization (Figure 2b), otherwise only the shared window clock
// advances. Every prefix is therefore sampled with probability tau / H - the
// paper's V = H / tau balls-and-bins model - and one sliding window measures
// all subnets at once, which is what makes sliding-window HHH practical
// (Section 4.2: "engineering benefits such as code reuse, simplicity, and
// maintainability").
//
// Output (Algorithm 2 lines 3-10) walks the lattice bottom-up computing
// conditioned frequencies via calcPred (Algorithm 3 in 1D, Algorithm 4 with
// glb inclusion-exclusion in 2D) and compensates the sampling error with
// + 2 Z_{1-delta} sqrt(V W) (line 8). Correct for any
// tau >= Z_{1-delta/2} H W^-1 eps_s^-2 (Theorem 5.3).
//
// Sampling: the tau decision comes from the inner sketch's
// random_table_sampler (util/random.hpp), whose table holds only the
// positions of its sampled draws - H-Memento owns no sampler of its own. At
// every tau the batch path takes a chunk's sampled offsets straight from it
// and hands the compacted prefix keys to the inner sketch's gap walk
// (memento_sketch::update_batch_sampled), so per-chunk cost tracks
// tau * chunk rather than the chunk length.
//
// Template parameter H supplies the hierarchy (source_hierarchy with H = 5,
// two_dim_hierarchy with H = 25, or any user-defined traits with the same
// shape).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/memento.hpp"
#include "hierarchy/hhh_solver.hpp"
#include "util/normal.hpp"
#include "util/random.hpp"

namespace memento {

/// Construction parameters for `h_memento`.
struct h_memento_config {
  std::uint64_t window_size = 1 << 20;  ///< W, in packets
  std::size_t counters = 512 * 5;       ///< total counters of the single Memento instance
  double tau = 1.0;   ///< overall Full-update probability (per-prefix rate tau / H)
  double delta = 1e-3;///< confidence for the sampling compensation (Alg. 2 line 8)
  std::uint64_t seed = 1;
};

template <typename H>
class h_memento {
  static_assert(H::hierarchy_size <= 255,
                "h_memento: the batch kernel's level column is one byte per packet");

 public:
  using key_type = typename H::key_type;
  using hhh_result = std::vector<hhh_entry<key_type>>;

  explicit h_memento(const h_memento_config& config)
      : inner_(memento_config{config.window_size, config.counters, config.tau,
                              sampler_seed(config.seed)}),
        rng_(config.seed + 1),
        delta_(config.delta),
        seed_(config.seed) {
    if (config.delta <= 0.0 || config.delta >= 1.0) {
      throw std::invalid_argument("h_memento: delta must be in (0, 1)");
    }
  }

  h_memento(std::uint64_t window_size, std::size_t counters, double tau, double delta = 1e-3,
            std::uint64_t seed = 1)
      : h_memento(h_memento_config{window_size, counters, tau, delta, seed}) {}

  /// Algorithm 2 UPDATE: with probability tau, Full-update one uniformly
  /// random generalization of the packet; otherwise a Window update. O(1).
  void update(const packet& p) {
    if (inner_.sampler_.sample()) {
      full_update(p);
    } else {
      inner_.window_update();
    }
  }

  /// Batched UPDATE: state-identical to n scalar update(p) calls with the
  /// same seed (sampler and generalization rng are consumed in the same
  /// order). Per 256-packet chunk the pipeline is columnar:
  ///   1. take the chunk's sampled packet offsets straight from the
  ///      sampler's position list (random_table_sampler::take - O(sampled),
  ///      no per-packet decision scan);
  ///   2. bulk-draw one generalization level per sampled packet
  ///      (xoshiro256::fill_bounded_u8 - the rng is consumed exactly as the
  ///      scalar path's per-sample bounded() calls would);
  ///   3. materialize the sampled prefix keys: a key_at loop, or the
  ///      hierarchy's H::materialize_keys where it has one (the 2-D lattice
  ///      writes each prefix2d's fields in place);
  ///   4. hand the compacted keys and offsets to the inner Memento's
  ///      update_batch_sampled, whose gap walk skips unsampled packets in
  ///      bulk, so chunk cost tracks the sampled count.
  void update_batch(const packet* ps, std::size_t n) {
    constexpr std::size_t kChunk = 256;
    std::uint32_t idx[kChunk];
    std::uint8_t levels[kChunk];
    key_type packed[kChunk];
    for (std::size_t i = 0; i < n; i += kChunk) {
      const std::size_t m = std::min(kChunk, n - i);
      const std::size_t sampled = inner_.sampler_.take(idx, m);
      rng_.fill_bounded_u8(levels, sampled, H::hierarchy_size);
      if constexpr (requires {
                      H::materialize_keys(ps, idx, levels, packed, sampled);
                    }) {
        H::materialize_keys(ps + i, idx, levels, packed, sampled);
      } else {
        for (std::size_t t = 0; t < sampled; ++t) {
          packed[t] = H::key_at(ps[i + idx[t]], levels[t]);
        }
      }
      inner_.update_batch_sampled(packed, idx, sampled, m);
    }
  }

  void update_batch(std::span<const packet> ps) { update_batch(ps.data(), ps.size()); }

  /// Forced Full update (the sampling decision was made elsewhere, e.g. by a
  /// D-H-Memento measurement point): inserts one random generalization.
  void full_update(const packet& p) {
    const auto i = static_cast<std::size_t>(rng_.bounded(H::hierarchy_size));
    inner_.full_update(H::key_at(p, i));
  }

  /// Forced Window update (unsampled packet replayed by the controller).
  void window_update() { inner_.window_update(); }

  /// One-sided (never undercounting) window-frequency estimate of a prefix,
  /// in packets: H * inner estimate, since each prefix is sampled at rate
  /// tau / H while the inner query rescales by tau^-1 only.
  [[nodiscard]] double query(const key_type& prefix) const {
    return static_cast<double>(H::hierarchy_size) * inner_.query(prefix);
  }

  /// Matching lower bound (upper minus the worst-case estimate width).
  [[nodiscard]] double query_lower(const key_type& prefix) const {
    return static_cast<double>(H::hierarchy_size) * inner_.query_lower(prefix);
  }

  /// {query, query_lower} from one inner lookup - the bound oracle of the
  /// HHH output, bit-identical to calling the two separately.
  [[nodiscard]] freq_bounds query_bounds(const key_type& prefix) const {
    const double h = static_cast<double>(H::hierarchy_size);
    const double u = inner_.query(prefix);
    return freq_bounds{h * u, h * std::max(0.0, u - inner_.estimate_width())};
  }

  /// Near-unbiased point estimate (see memento_sketch::query_midpoint).
  [[nodiscard]] double query_midpoint(const key_type& prefix) const {
    return static_cast<double>(H::hierarchy_size) * inner_.query_midpoint(prefix);
  }

  /// Algorithm 2 OUTPUT: the approximate window HHH set at threshold theta,
  /// with the paper's full sampling compensation (guarantees coverage but is
  /// deliberately loose - Definition 4.2 allows false positives).
  [[nodiscard]] hhh_result output(double theta) const {
    return output(theta, sampling_compensation());
  }

  /// OUTPUT with an explicit compensation term. Benches that compare
  /// *estimates* across algorithms symmetrically (e.g. the flood-detection
  /// rate-limiter of Section 6.3, which thresholds window frequency directly)
  /// pass 0 here.
  [[nodiscard]] hhh_result output(double theta, double compensation) const {
    const double threshold = theta * static_cast<double>(inner_.window_size());
    return solve_hhh<H>(
        inner_.monitored_keys(),
        [this](const key_type& k) { return query_bounds(k); },
        threshold, compensation);
  }

  /// The Alg. 2 line 8 term: 2 Z_{1-delta} sqrt(V W), V = H / tau.
  [[nodiscard]] double sampling_compensation() const {
    const double v = sampling_ratio();
    return 2.0 * z_value(1.0 - delta_) *
           std::sqrt(v * static_cast<double>(inner_.window_size()));
  }

  /// V = H / tau: the expected packets per sampled prefix (Table 1).
  [[nodiscard]] double sampling_ratio() const noexcept {
    return static_cast<double>(H::hierarchy_size) / inner_.tau();
  }

  [[nodiscard]] std::uint64_t window_size() const noexcept { return inner_.window_size(); }
  [[nodiscard]] double tau() const noexcept { return inner_.tau(); }
  [[nodiscard]] double delta() const noexcept { return delta_; }
  [[nodiscard]] std::size_t counters() const noexcept { return inner_.counters(); }
  [[nodiscard]] std::uint64_t stream_length() const noexcept { return inner_.stream_length(); }

  /// Estimate floor in PREFIX units (H * the inner floor): query(x) is at
  /// least this for every x, so attributable prefix mass is est minus this.
  /// The shard rebalancer's load model consumes it (shard/rebalance.hpp).
  [[nodiscard]] double miss_baseline() const noexcept {
    return static_cast<double>(H::hierarchy_size) * inner_.miss_baseline();
  }

  /// Visits every candidate prefix with its one-sided window estimate in
  /// prefix units - the same scaling query() applies. The rebalancer samples
  /// per-bucket load from this; HHH output deliberately does NOT use it (the
  /// lattice walk needs monitored_keys(), which includes in-frame-only keys).
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    inner_.for_each_candidate([&](const key_type& key, double est) {
      fn(key, static_cast<double>(H::hierarchy_size) * est);
    });
  }

  [[nodiscard]] std::size_t candidate_count() const noexcept {
    return inner_.candidate_count();
  }

  /// The construction budget recovered from live state; feeding it back
  /// through the ctor reproduces the exact geometry (reshard rebuilds
  /// replacement shards from it).
  [[nodiscard]] h_memento_config config_snapshot() const noexcept {
    return h_memento_config{inner_.window_size(), inner_.counters(), inner_.tau(), delta_,
                            seed_};
  }
  /// Window-phase accessor (see memento_sketch::window_phase); lets a shard
  /// frontend monitor per-shard phase skew without reaching through inner().
  /// (Candidate iteration for HHH output deliberately stays on
  /// inner().monitored_keys(): the HHH candidate set must include keys with
  /// only in-frame state, which the overflow-table hook does not visit.)
  [[nodiscard]] std::uint64_t window_phase() const noexcept { return inner_.window_phase(); }
  [[nodiscard]] const memento_sketch<key_type>& inner() const noexcept { return inner_; }

  // --- snapshot support ------------------------------------------------------
  // On top of the inner Memento's snapshot (which carries the sampler
  // cursor), H-Memento only adds the generalization-choice PRNG state; both
  // are restored exactly, so a restored instance samples the same packets
  // AND picks the same prefixes - continuation is bit-identical.

  static constexpr std::uint16_t kWireTag = 0x484d;  ///< "HM"
  /// HM adds no columns of its own, so no codec-flags byte here - the inner
  /// section carries one.
  static constexpr std::uint16_t kWireVersion = 3;

  /// Serializes the algorithm as one section: a handful of scalars, then
  /// the inner Memento's section, which does the heavy lifting.
  void save(wire::sink& s) const {
    s.begin_section(kWireTag, kWireVersion);
    s.f64(delta_);
    s.u64(seed_);
    for (const std::uint64_t word : rng_.state()) s.u64(word);
    inner_.save(s);
    s.end_section();
  }

  /// Rebuilds an instance from save() output; nullopt on any malformed
  /// input (see memento_sketch::restore for the validation contract).
  [[nodiscard]] static std::optional<h_memento> restore(wire::source& s) {
    std::uint16_t version = 0;
    if (!s.open_section(kWireTag, version) || version != kWireVersion) return std::nullopt;
    double delta = 0.0;
    std::uint64_t seed = 0;
    xoshiro256::state_type state{};
    if (!s.f64(delta) || !s.u64(seed)) return std::nullopt;
    for (auto& word : state) {
      if (!s.u64(word)) return std::nullopt;
    }
    if (!(delta > 0.0) || !(delta < 1.0)) return std::nullopt;  // excludes NaN

    auto inner = memento_sketch<key_type>::restore(s);
    if (!inner || !s.close_section()) return std::nullopt;
    if (inner->config_snapshot().seed != sampler_seed(seed)) return std::nullopt;
    h_memento out(std::move(*inner), delta, seed);
    if (!out.rng_.set_state(state)) return std::nullopt;
    return out;
  }

 private:
  friend class snapshot_builder;  ///< reshard's bulk state transport (snapshot/reshard.hpp)

  /// The inner sketch's seed: it feeds only the sketch's sampler, which
  /// is H-Memento's packet sampler.
  [[nodiscard]] static constexpr std::uint64_t sampler_seed(std::uint64_t seed) noexcept {
    return seed ^ 0x9e3779b97f4a7c15ULL;
  }

  /// Restore's constructor: adopts the already restored inner sketch
  /// (sampler cursor included) instead of building a fresh one only to
  /// overwrite it. The rng is derived exactly as the public constructor
  /// derives it.
  h_memento(memento_sketch<key_type>&& inner, double delta, std::uint64_t seed)
      : inner_(std::move(inner)),
        rng_(seed + 1),
        delta_(delta),
        seed_(seed) {}

  memento_sketch<key_type> inner_;  ///< also owns the packet sampler (sampler_seed(seed_))
  xoshiro256 rng_;
  double delta_;
  std::uint64_t seed_ = 1;  ///< construction seed (snapshots rebuild the rng from it)
};

}  // namespace memento
