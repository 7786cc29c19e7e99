// Workload specifications and the passes every workload and the layer
// ledger share. A pass is one fixed amount of work - construct the
// program's objects, ingest the whole generated trace, poll, checkpoint and
// restore - so every count a pass produces repeats exactly for a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "core/h_memento.hpp"
#include "hierarchy/prefix2d.hpp"
#include "lb/mitigation_policy.hpp"
#include "pipeline/pipeline.hpp"
#include "trace/trace_generator.hpp"

namespace perfbench {

using flat_frontend = memento::sharded_memento<std::uint64_t>;
using hhh2d_sketch = memento::h_memento<memento::two_dim_hierarchy>;

/// Keys packets by their source /8 subnet: the measurement domain of flood
/// detection (the paper's Fig. 10 compares against an exact window over
/// /8 prefixes). Flood packets come from random hosts to random
/// destinations, so as flows they never repeat; as subnets they dominate.
struct subnet_key_traits {
  using key_type = std::uint64_t;
  [[nodiscard]] static key_type key_of(const memento::packet& p) noexcept {
    return std::uint64_t{p.src & 0xFF000000u} << 32;
  }
  [[nodiscard]] static std::uint32_t src_of(key_type key) noexcept {
    return static_cast<std::uint32_t>(key >> 32);
  }
};

/// A flat pipeline workload.
struct flat_spec {
  const char* name = "";
  bool flood = false;         ///< inject_flood trace instead of the plain backbone trace
  bool subnet_keys = false;   ///< subnet_key_traits instead of the (src, dst) flow key
  std::size_t packets = 0;    ///< offered packets per pass (the fixed work)
  memento::pipeline_config config;
  bool push = false;          ///< threaded push front door (start/process/drain)
  std::size_t burst = 256;    ///< packets per process() call
  double theta = 0.01;        ///< operator heavy-hitter poll threshold
};

/// The hierarchical (2-D) workload.
struct hhh_spec {
  memento::trace_kind trace = memento::trace_kind::backbone;
  std::size_t packets = 0;
  memento::h_memento_config config;
  double theta = 0.05;
  std::size_t poll_stride = 0;        ///< packets between operator polls
  std::size_t checkpoint_stride = 0;  ///< packets between checkpoints
  std::size_t burst = 256;
};

[[nodiscard]] flat_spec hh_dense_spec();
[[nodiscard]] flat_spec flood_sampled_spec();
[[nodiscard]] hhh_spec hhh2d_poll_spec();

/// Backbone trace, or a backbone trace with the Section 6.4 HTTP flood
/// injected over its middle half, from the seed.
[[nodiscard]] trace_input make_input(bool flood, std::size_t packets, std::uint64_t seed,
                                     memento::trace_kind kind = memento::trace_kind::backbone);

/// Checkpoint saves and restores of the final state in every pass: enough
/// samples per pass that each of them has a fast one over a run.
inline constexpr int kOperationReps = 17;

/// What one flat pass measured.
struct flat_pass : pass_times {
  double drain_ms = 0.0;
  memento::pipeline_report total;
  std::uint64_t detect_sweeps = 0;
  std::uint64_t stream_length = 0;
  std::vector<std::uint8_t> image;  ///< streamed snapshot of the final frontend
  std::vector<double> burst_ns;     ///< traced passes: span of every process() call
};

/// The key a workload's pipeline counts a packet under.
[[nodiscard]] inline std::uint64_t key_of(const flat_spec& spec, const memento::packet& p) {
  return spec.subnet_keys ? subnet_key_traits::key_of(p) : memento::flow_id(p);
}

using flat_inspector = std::function<void(const flat_frontend&)>;

/// One pass of a flat workload. `inspect` (optional) sees the pipeline's
/// frontend after the timed parts, before it is destroyed.
flat_pass run_flat_pass(const flat_spec& spec, std::span<const memento::packet> trace,
                        calibrator& cal, checks& chk, bool traced,
                        const flat_inspector& inspect = {});

/// What one hhh pass measured: ingest_s is update_batch time only (polls
/// and checkpoints excluded), query_ms the median operator poll and
/// checkpoint_ms the median checkpoint save.
struct hhh_pass : pass_times {
  std::vector<std::size_t> hhh_counts;  ///< result size of every poll
  std::size_t candidates = 0;           ///< monitored prefixes at the final poll
  std::vector<std::uint8_t> image;      ///< buffered snapshot of the final state
  std::vector<double> burst_ns;
};

using hhh_inspector = std::function<void(const hhh2d_sketch&)>;

hhh_pass run_hhh_pass(const hhh_spec& spec, std::span<const memento::packet> trace,
                      calibrator& cal, checks& chk, bool traced,
                      const hhh_inspector& inspect = {});

/// The traced run's standalone layer ladder: drives each layer's public
/// entry point on this workload's packets (flat layers with `flat`'s
/// parameters, hierarchy layers with `hhh`'s) and reports every per-layer
/// metric. The workload's own path (the flat pipeline, or the hierarchy when
/// `hhh_path`) also runs untraced and traced in alternation for half of
/// args.seconds, which gives the tracing overhead and the proof that
/// tracing only observes.
void run_ledger(const run_args& args, const flat_spec& flat, const hhh_spec& hhh, bool hhh_path,
                const trace_input& in, calibrator& cal, checks& chk, report& out);

/// Flood ground truth of one inline enforce-mode replay: how many flood and
/// legitimate packets the parse stage dropped.
struct flood_accounting {
  std::uint64_t flood_offered = 0;
  std::uint64_t flood_dropped = 0;
  std::uint64_t legit_offered = 0;
  std::uint64_t legit_dropped = 0;
  [[nodiscard]] double undetected_pct() const {
    return flood_offered == 0 ? 0.0
                              : 100.0 * static_cast<double>(flood_offered - flood_dropped) /
                                    static_cast<double>(flood_offered);
  }
  [[nodiscard]] double collateral_share() const {
    return legit_offered == 0
               ? 0.0
               : static_cast<double>(legit_dropped) / static_cast<double>(legit_offered);
  }
};

/// Replays the trace through an inline pipeline, reading each core's block
/// bitmap before every burst (inline stages read it only at burst start),
/// and splits the parse-stage drops into flood and legitimate packets.
/// Checks that the split adds up to the pipeline's own mitigated count.
flood_accounting account_flood(const flat_spec& spec, const trace_input& in, checks& chk);

}  // namespace perfbench
