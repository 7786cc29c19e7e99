// The two flat-pipeline workloads, hh_dense (inline, tau = 1) and the
// flood_sampled mitigation path (inline, tau = 1/64, enforce), and the flat
// passes the layer ledger runs, the threaded push one among them.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

#include "sketch/exact_window.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/flood_injector.hpp"
#include "trace/trace_generator.hpp"
#include "workloads.hpp"

namespace perfbench {

using memento::packet;

namespace {

memento::pipeline_config flat_config(std::size_t shards, double tau) {
  memento::pipeline_config c;
  c.sharding.window_size = std::uint64_t{1} << 18;
  c.sharding.counters = 4096;
  c.sharding.tau = tau;
  c.sharding.seed = 1;
  c.sharding.shards = shards;
  c.ring_capacity = std::size_t{1} << 14;
  c.policy = memento::backpressure_policy::block;
  c.detect_stride = std::uint64_t{1} << 14;
  return c;
}

}  // namespace

flat_spec hh_dense_spec() {
  flat_spec s;
  s.name = "hh_dense";
  s.packets = std::size_t{3} << 20;
  s.config = flat_config(4, 1.0);
  s.burst = 1024;
  return s;
}

flat_spec flood_sampled_spec() {
  flat_spec s;
  s.name = "flood_sampled";
  s.flood = true;
  s.packets = std::size_t{8} << 20;
  s.subnet_keys = true;
  s.config = flat_config(4, 1.0 / 64.0);
  // A /8 lives on one of the 4 shards, so a flooding /8 (~1.4% of all
  // traffic: 50 subnets share 70%) is ~5.6% of its shard's window, and a
  // clean /8 ~0.5%, or ~1.6% once the flood is blocked and only clean
  // traffic is admitted. The block line sits between the two.
  s.config.detect_stride = std::uint64_t{1} << 12;
  s.config.mitigation = {0.03, 0.025, 0.01, 256};
  s.config.enforce = true;
  s.burst = 1024;
  return s;
}

trace_input make_input(bool flood, std::size_t packets, std::uint64_t seed,
                       memento::trace_kind kind) {
  trace_input in;
  const auto t0 = clock_type::now();
  if (!flood) {
    in.packets = memento::make_trace(kind, packets, seed);
  } else {
    // Clean traffic, then the flood (Section 6.4: 50 random /8 subnets,
    // each line an attack packet with probability 0.7) over the middle
    // half, then clean traffic again, at the same offsets for every seed:
    // the work does not depend on where a random start would land, and the
    // final state (what checkpoint and restore handle) is the clean
    // window after the rules are lifted, not a seed-dependent point of the
    // block/release cycle.
    const std::size_t head = packets / 4;
    const std::size_t flood = packets / 2;
    const std::size_t tail = packets - head - flood;
    const std::size_t flood_base = flood * 3 / 10 + flood / 20;  // ~5% spare, cut below
    const auto base =
        memento::make_trace(kind, head + flood_base + tail, seed);
    memento::flood_config fc;
    fc.start_range = 1;  // flood from the first line of the composed part
    fc.seed = seed * 0x9E3779B97F4A7C15ull + 7;
    const auto composed = memento::inject_flood(
        std::span<const packet>(base.data() + head, flood_base), fc);
    in.packets.reserve(packets);
    in.packets.assign(base.begin(), base.begin() + static_cast<std::ptrdiff_t>(head));
    in.attack.assign(head, 0);
    for (std::size_t i = 0; i < composed.packets.size() && in.packets.size() < head + flood; ++i) {
      in.packets.push_back(composed.packets[i].pkt);
      in.attack.push_back(composed.packets[i].is_attack ? 1 : 0);
    }
    in.packets.insert(in.packets.end(), base.end() - static_cast<std::ptrdiff_t>(tail), base.end());
    in.attack.resize(in.packets.size(), 0);
  }
  in.tracegen_s = seconds_since(t0);
  return in;
}

namespace {

/// Packets per timed ingest segment: small enough that some pass runs each
/// segment undisturbed, large enough that the clock reads cost nothing.
constexpr std::size_t kSegment = std::size_t{1} << 16;

template <typename Traits>
flat_pass flat_pass_with(const flat_spec& spec, std::span<const packet> trace, calibrator& cal,
                         checks& chk, bool traced, const flat_inspector& inspect) {
  using flat_pipeline = memento::pipeline<Traits>;
  flat_pass out;
  const double rate_before = cal.rate();
  const std::size_t rss0 = resident_baseline();

  auto t0 = clock_type::now();
  auto pipe = std::make_unique<flat_pipeline>(spec.config);
  if (spec.push) pipe->start();
  out.setup_s = seconds_since(t0);

  if (traced) out.burst_ns.reserve(trace.size() / spec.burst + 1);
  const auto ingest0 = clock_type::now();
  for (std::size_t seg = 0; seg < trace.size(); seg += kSegment) {
    const std::size_t seg_end = std::min(trace.size(), seg + kSegment);
    t0 = clock_type::now();
    for (std::size_t at = seg; at < seg_end; at += spec.burst) {
      const std::size_t n = std::min(spec.burst, seg_end - at);
      if (traced) {
        const auto b0 = clock_type::now();
        pipe->process(trace.data() + at, n);
        out.burst_ns.push_back(seconds_since(b0) * 1e9);
      } else {
        pipe->process(trace.data() + at, n);
      }
    }
    out.segments.push_back(seconds_since(t0));
  }
  if (spec.push) {
    const auto d0 = clock_type::now();
    pipe->drain();
    out.drain_ms = seconds_since(d0) * 1e3;
  }
  out.ingest_s = seconds_since(ingest0);
  pipe->stop();
  out.rss_mb = static_cast<double>(std::max(rss_bytes(), rss0) - rss0) / (1 << 20);
  out.calib_rate = std::max(rate_before, cal.rate());

  out.total = pipe->report();
  for (std::size_t c = 0; c < pipe->cores(); ++c) out.detect_sweeps += pipe->report(c).detect_sweeps;
  const auto& front = pipe->frontend();
  out.stream_length = front.stream_length();

  // Operator polls of the final state.
  std::size_t reported = 0;
  for (int i = 0; i < 101; ++i) {
    t0 = clock_type::now();
    const auto hh = front.heavy_hitters(spec.theta);
    out.polls.push_back(seconds_since(t0) * 1e3);
    reported = hh.size();
  }
  if (!spec.config.enforce) {
    chk.expect(reported > 0, std::string(spec.name) + ": the operator poll reports heavy hitters");
  }

  // Checkpoint (streamed v2) and restore of the final state.
  for (int i = 0; i < kOperationReps; ++i) {
    t0 = clock_type::now();
    auto image = memento::snapshot::save_streamed(front);
    out.saves.push_back(seconds_since(t0) * 1e3);
    if (i == 0) out.image = std::move(image);
  }
  chk.expect(!out.image.empty(), std::string(spec.name) + ": checkpoint produced an image");
  std::vector<std::uint8_t> restored_image;
  for (int i = 0; i < kOperationReps; ++i) {
    std::vector<std::uint8_t> input = out.image;
    if (i == 0 && chk.corrupting(corruption::image)) input[input.size() / 2] ^= 0x5A;
    t0 = clock_type::now();
    memento::wire::source src(input);
    auto back = memento::snapshot::stream_restore<flat_frontend>(src);
    out.restores.push_back(seconds_since(t0) * 1e3);
    if (i == 0) {
      if (chk.expect(back.has_value(), std::string(spec.name) + ": checkpoint restores")) {
        restored_image = memento::snapshot::save_streamed(*back);
      }
    }
  }
  chk.expect(restored_image == out.image,
             std::string(spec.name) + ": restored snapshot re-saves byte-identically");

  // Exact packet accounting.
  const std::uint64_t offered = trace.size();
  std::uint64_t ingested = out.total.ingested;
  if (chk.corrupting(corruption::count)) ++ingested;
  chk.expect(ingested == offered, std::string(spec.name) + ": ingested == offered");
  chk.expect(out.total.drops == 0, std::string(spec.name) + ": no drops under block");
  chk.expect(out.stream_length + out.total.mitigated == offered,
             std::string(spec.name) + ": stream_length + mitigated == offered");
  if (!spec.config.enforce) {
    chk.expect(out.total.mitigated == 0, std::string(spec.name) + ": observe mode drops nothing");
  }
  if (inspect) inspect(front);
  return out;
}

}  // namespace

flat_pass run_flat_pass(const flat_spec& spec, std::span<const packet> trace, calibrator& cal,
                        checks& chk, bool traced, const flat_inspector& inspect) {
  return spec.subnet_keys ? flat_pass_with<subnet_key_traits>(spec, trace, cal, chk, traced, inspect)
                          : flat_pass_with<memento::flow_key_traits>(spec, trace, cal, chk, traced,
                                                                     inspect);
}

namespace {

/// One-sided estimates at tau = 1: for a probe set per shard (the distinct
/// keys of the shard's last 512 packets plus its 32 heaviest window flows),
/// the estimate never undercounts the exact count over the shard's window
/// and overcounts by at most the estimator's width.
void check_one_sided(const flat_spec& spec, std::span<const packet> trace,
                     const flat_frontend& front, checks& chk) {
  std::vector<std::vector<std::uint64_t>> per_shard(front.num_shards());
  for (const packet& p : trace) {
    const std::uint64_t key = key_of(spec, p);
    per_shard[front.shard_of(key)].push_back(key);
  }
  bool corrupt = chk.corrupting(corruption::estimate);
  std::size_t probes = 0, under = 0, over = 0;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const auto& keys = per_shard[s];
    const auto& sketch = front.shard(s);
    const std::size_t w = sketch.window_size();
    memento::exact_window<std::uint64_t> exact(w);
    for (std::size_t i = keys.size() > w ? keys.size() - w : 0; i < keys.size(); ++i) {
      exact.add(keys[i]);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> heavy;
    exact.for_each([&](std::uint64_t k, std::uint64_t c) { heavy.emplace_back(c, k); });
    const std::size_t top = std::min<std::size_t>(32, heavy.size());
    std::partial_sort(heavy.begin(), heavy.begin() + static_cast<std::ptrdiff_t>(top),
                      heavy.end(), std::greater<>());
    std::vector<std::uint64_t> probe;
    for (std::size_t i = 0; i < top; ++i) probe.push_back(heavy[i].second);
    for (std::size_t i = keys.size() > 512 ? keys.size() - 512 : 0; i < keys.size(); ++i) {
      probe.push_back(keys[i]);
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());
    const double width = sketch.estimate_width();
    for (const std::uint64_t k : probe) {
      double est = front.query(k);
      if (corrupt) {
        est = -1.0;
        corrupt = false;
      }
      const double truth = static_cast<double>(exact.query(k));
      under += est < truth;
      over += est - truth > width + 1.0;
      ++probes;
    }
  }
  chk.expect(probes > 0 && under == 0,
             std::string(spec.name) + ": estimates never undercount the exact window (" +
                 std::to_string(under) + " of " + std::to_string(probes) + " probes did)");
  chk.expect(over == 0, std::string(spec.name) + ": estimates overcount by at most 4W/k (" +
                            std::to_string(over) + " of " + std::to_string(probes) +
                            " probes did not)");
}

template <typename Traits>
flood_accounting account_flood_with(const flat_spec& spec, const trace_input& in, checks& chk) {
  flood_accounting acct;
  memento::pipeline<Traits> pipe(spec.config);
  const auto& pkts = in.packets;
  for (std::size_t at = 0; at < pkts.size(); at += spec.burst) {
    const std::size_t n = std::min(spec.burst, pkts.size() - at);
    for (std::size_t i = at; i < at + n; ++i) {
      const bool attack = !in.attack.empty() && in.attack[i];
      const bool dropped = spec.config.enforce &&
                           pipe.blocks(pipe.core_of(pkts[i]), pkts[i].src >> 24);
      (attack ? acct.flood_offered : acct.legit_offered) += 1;
      (attack ? acct.flood_dropped : acct.legit_dropped) += dropped ? 1 : 0;
    }
    pipe.process(pkts.data() + at, n);
  }
  chk.expect(acct.flood_dropped + acct.legit_dropped == pipe.report().mitigated,
             std::string(spec.name) + ": flood + collateral drops == mitigated");
  return acct;
}

void run_flat_workload(const flat_spec& spec, const run_args& args, checks& chk, report& out) {
  const trace_input in = make_input(spec.flood, spec.packets, args.seed);
  const std::span<const packet> trace(in.packets);
  calibrator cal;
  out.note("tracegen_s", in.tracegen_s);
  out.note("fixed_work_packets", static_cast<double>(trace.size()));

  if (args.trace) {
    run_ledger(args, spec, hhh2d_poll_spec(), false, in, cal, chk, out);
    return;
  }

  // The one-sided bound holds per shard at tau = 1 over every packet.
  const bool one_sided = spec.config.sharding.tau >= 1.0 && !spec.config.enforce;
  std::vector<flat_pass> passes;
  repeat_for(args.seconds, 4, 400, [&](std::size_t n) {
    flat_inspector inspect;
    if (n == 0 && one_sided) {
      inspect = [&](const flat_frontend& f) { check_one_sided(spec, trace, f, chk); };
    }
    passes.push_back(run_flat_pass(spec, trace, cal, chk, false, inspect));
    const flat_pass& first = passes.front();
    const flat_pass& cur = passes.back();
    if (n > 0) {
      chk.expect(cur.image == first.image,
                 std::string(spec.name) + ": every pass ends in the same state");
      chk.expect(cur.total.mitigated == first.total.mitigated &&
                     cur.detect_sweeps == first.detect_sweeps &&
                     cur.total.active_rules == first.total.active_rules,
                 std::string(spec.name) + ": mitigation counts repeat exactly");
    }
  });

  if (spec.flood) {
    const auto acct = account_flood(spec, in, chk);
    chk.expect(acct.flood_dropped + acct.legit_dropped == passes.front().total.mitigated,
               std::string(spec.name) + ": timed passes mitigate what the replay accounts");
    chk.expect(acct.flood_dropped > 0,
               std::string(spec.name) + ": the flood is detected and blocked");
    out.note("undetected_pct", acct.undetected_pct());
    out.note("collateral_share", acct.collateral_share());
  }

  report_end_to_end(out, trace.size(), {passes.begin(), passes.end()});
  out.note("mitigated", static_cast<double>(passes.front().total.mitigated));
  out.note("detect_sweeps", static_cast<double>(passes.front().detect_sweeps));
  out.note("active_rules", static_cast<double>(passes.front().total.active_rules));
  out.note("snapshot_bytes", static_cast<double>(passes.front().image.size()));
}

}  // namespace

flood_accounting account_flood(const flat_spec& spec, const trace_input& in, checks& chk) {
  return spec.subnet_keys ? account_flood_with<subnet_key_traits>(spec, in, chk)
                          : account_flood_with<memento::flow_key_traits>(spec, in, chk);
}

void run_hh_dense(const run_args& args, checks& chk, report& out) {
  run_flat_workload(hh_dense_spec(), args, chk, out);
}

void run_flood_sampled(const run_args& args, checks& chk, report& out) {
  run_flat_workload(flood_sampled_spec(), args, chk, out);
}

}  // namespace perfbench
