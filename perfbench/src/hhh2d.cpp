// hhh2d_poll: 2-D hierarchical heavy hitters with operator polls and
// checkpoints at fixed packet strides, so reads run beside writes.
#include <algorithm>
#include <string>
#include <unordered_set>

#include "sketch/exact_hhh.hpp"
#include "snapshot/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {

using memento::packet;
using memento::two_dim_hierarchy;

hhh_spec hhh2d_poll_spec() {
  hhh_spec s;
  // The skewed datacenter trace: its final window holds HHHs below the
  // root (its heaviest flows are ~32% and ~12% of the traffic), so the
  // coverage check has more to cover than (*, *).
  s.trace = memento::trace_kind::datacenter;
  s.packets = std::size_t{3} << 20;
  s.config.window_size = std::uint64_t{1} << 18;
  s.config.counters = 4096;
  // tau = 1/4 is the lowest rate that keeps the dense (decided-batch)
  // kernel; V = H/tau = 100 puts the sampling compensation at ~12% of W,
  // so theta sits above it.
  s.config.tau = 0.25;
  s.config.delta = 1e-3;
  s.config.seed = 1;
  s.theta = 0.15;
  // Polls every 16384 packets cost about twice the ingest between them.
  s.poll_stride = std::size_t{1} << 14;
  s.checkpoint_stride = std::size_t{1} << 19;
  s.burst = 1024;
  return s;
}

hhh_pass run_hhh_pass(const hhh_spec& spec, std::span<const packet> trace, calibrator& cal,
                      checks& chk, bool traced, const hhh_inspector& inspect) {
  hhh_pass out;
  const double rate_before = cal.rate();
  const std::size_t rss0 = resident_baseline();

  auto t0 = clock_type::now();
  auto hm = std::make_unique<hhh2d_sketch>(spec.config);
  out.setup_s = seconds_since(t0);

  if (traced) out.burst_ns.reserve(trace.size() / spec.burst + 1);
  std::size_t next_poll = spec.poll_stride;
  std::size_t next_ckpt = spec.checkpoint_stride;
  std::size_t checkpoints = 0;  // bytes, so the periodic saves are not optimized away
  double segment = 0.0;
  for (std::size_t at = 0; at < trace.size();) {
    const std::size_t n = std::min(spec.burst, trace.size() - at);
    t0 = clock_type::now();
    hm->update_batch(trace.data() + at, n);
    const double dt = seconds_since(t0);
    segment += dt;
    if (traced) out.burst_ns.push_back(dt * 1e9);
    at += n;
    if (at >= next_poll || at == trace.size()) {  // the ingest between polls is one segment
      out.segments.push_back(segment);
      out.ingest_s += segment;
      segment = 0.0;
      next_poll += spec.poll_stride;
      t0 = clock_type::now();
      const auto result = hm->output(spec.theta);
      out.polls.push_back(seconds_since(t0) * 1e3);
      out.hhh_counts.push_back(result.size());
    }
    if (at >= next_ckpt && at < trace.size()) {  // periodic checkpoints: work, not a metric
      next_ckpt += spec.checkpoint_stride;
      checkpoints += memento::snapshot::save(*hm).size();
    }
  }
  out.rss_mb = static_cast<double>(std::max(rss_bytes(), rss0) - rss0) / (1 << 20);
  out.calib_rate = std::max(rate_before, cal.rate());
  out.candidates = hm->inner().monitored_keys().size();

  chk.expect(hm->stream_length() == trace.size(), "hhh2d_poll: stream_length == offered");
  chk.expect(checkpoints > 0, "hhh2d_poll: periodic checkpoints produced images");

  // Checkpoint (buffered: 2-D prefixes have no streamed image) and restore
  // of the final state.
  for (int i = 0; i < kOperationReps; ++i) {
    t0 = clock_type::now();
    auto image = memento::snapshot::save(*hm);
    out.saves.push_back(seconds_since(t0) * 1e3);
    if (i == 0) out.image = std::move(image);
  }
  chk.expect(!out.image.empty(), "hhh2d_poll: checkpoint produced an image");

  std::vector<std::uint8_t> restored_image;
  for (int i = 0; i < kOperationReps; ++i) {
    std::vector<std::uint8_t> input = out.image;
    if (i == 0 && chk.corrupting(corruption::image)) input[input.size() / 2] ^= 0x5A;
    t0 = clock_type::now();
    auto back = memento::snapshot::restore<hhh2d_sketch>(input);
    out.restores.push_back(seconds_since(t0) * 1e3);
    if (i == 0 && chk.expect(back.has_value(), "hhh2d_poll: checkpoint restores")) {
      restored_image = memento::snapshot::save(*back);
    }
  }
  chk.expect(restored_image == out.image,
             "hhh2d_poll: restored snapshot re-saves byte-identically");
  if (inspect) inspect(*hm);
  return out;
}

namespace {

/// HHH coverage at the final poll: every exact HHH of the last window
/// (exact_hhh over the window's packets) is in the sketch's output.
void check_coverage(const hhh_spec& spec, std::span<const packet> trace,
                    const hhh2d_sketch& hm, checks& chk) {
  const std::size_t w = hm.window_size();
  memento::exact_hhh<two_dim_hierarchy> exact(w);
  for (std::size_t i = trace.size() > w ? trace.size() - w : 0; i < trace.size(); ++i) {
    exact.update(trace[i]);
  }
  std::unordered_set<memento::prefix2d> reported;
  for (const auto& e : hm.output(spec.theta)) reported.insert(e.key);
  const auto truth = exact.output(spec.theta);
  if (!truth.empty() && chk.corrupting(corruption::hhh)) reported.erase(truth.front().key);
  std::size_t missed = 0;
  for (const auto& e : truth) missed += reported.count(e.key) == 0;
  chk.expect(truth.size() >= 2, "hhh2d_poll: the exact window has HHHs below the root");
  chk.expect(missed == 0, "hhh2d_poll: output covers every exact HHH (" +
                              std::to_string(missed) + " of " + std::to_string(truth.size()) +
                              " missed)");
}

}  // namespace

void run_hhh2d_poll(const run_args& args, checks& chk, report& out) {
  const hhh_spec spec = hhh2d_poll_spec();
  const trace_input in = make_input(false, spec.packets, args.seed, spec.trace);
  const std::span<const packet> trace(in.packets);
  calibrator cal;
  out.note("tracegen_s", in.tracegen_s);
  out.note("fixed_work_packets", static_cast<double>(trace.size()));

  if (args.trace) {
    run_ledger(args, hh_dense_spec(), spec, true, in, cal, chk, out);
    return;
  }

  std::vector<hhh_pass> passes;
  repeat_for(args.seconds, 4, 400, [&](std::size_t n) {
    passes.push_back(run_hhh_pass(spec, trace, cal, chk, false,
                                  n == 0 ? hhh_inspector([&](const hhh2d_sketch& hm) {
                                    check_coverage(spec, trace, hm, chk);
                                  })
                                         : hhh_inspector{}));
    if (n > 0) {
      chk.expect(passes.back().image == passes.front().image,
                 "hhh2d_poll: every pass ends in the same state");
      chk.expect(passes.back().hhh_counts == passes.front().hhh_counts,
                 "hhh2d_poll: poll results repeat exactly");
    }
  });

  report_end_to_end(out, trace.size(), {passes.begin(), passes.end()});
  out.note("polls", static_cast<double>(passes.front().hhh_counts.size()));
  out.note("final_hhh_count", static_cast<double>(passes.front().hhh_counts.back()));
  out.note("snapshot_bytes", static_cast<double>(passes.front().image.size()));
}

}  // namespace perfbench
