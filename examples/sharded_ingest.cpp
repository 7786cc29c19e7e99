// Sharded ingest demo: scale Memento's update path across cores by
// hash-partitioning the flow keyspace.
//
//   1. build a 4-shard frontend (global window/counter budgets divide evenly);
//   2. ingest a skewed synthetic trace through the threaded pipeline in
//      NIC-burst-sized spans (each core's worker drives the batch kernel on
//      its own shard);
//   3. drain() and query: point lookups route to the owning shard, set
//      queries merge the disjoint per-shard candidate sets;
//   4. print the per-shard load/phase picture an operator would monitor;
//   5. skew the mix with elephant flows that static hashing piles onto one
//      shard, then rebalance() behind the drain barrier and watch the
//      load/coverage picture recover (docs/ACCURACY.md has the model).
//
// Run: build/examples/sharded_ingest
#include <algorithm>
#include <cstdio>
#include <vector>

#include "pipeline/pipeline.hpp"
#include "shard/rebalance.hpp"
#include "shard/sharded_memento.hpp"
#include "trace/trace_generator.hpp"

int main() {
  using namespace memento;

  pipeline_config pcfg;
  shard_config& cfg = pcfg.sharding;
  cfg.window_size = 1 << 20;  // 1M-packet window, split across shards
  cfg.counters = 1024;        // total Space-Saving budget, split likewise
  cfg.tau = 1.0 / 16;         // sampled Full updates (Memento's speed lever)
  cfg.seed = 42;
  cfg.shards = 4;             // one shard per core

  std::printf("sharded Memento: %zu shards, W=%llu total, k=%zu total, tau=1/16\n\n",
              cfg.shards, static_cast<unsigned long long>(cfg.window_size), cfg.counters);

  // Threaded push mode: one worker per core behind an SPSC ring; process()
  // costs the caller one hash per packet, the sketch work happens on the
  // workers. Detection is off (detect_stride = 0): pure measurement.
  pipeline<> pipe(pcfg);
  pipe.start();

  trace_generator gen(trace_kind::backbone, /*seed=*/7);
  constexpr std::size_t kPackets = 4'000'000;
  constexpr std::size_t kBurst = 256;
  std::vector<packet> burst(kBurst);
  for (std::size_t sent = 0; sent < kPackets; sent += kBurst) {
    for (auto& p : burst) p = gen.next();
    pipe.process(burst.data(), burst.size());
  }
  pipe.drain();  // barrier: all rings empty, shard state visible

  const auto& front = pipe.frontend();
  std::printf("ingested %llu packets\n\n", static_cast<unsigned long long>(front.stream_length()));

  std::printf("top flows across all shards (merged from disjoint candidate sets):\n");
  for (const auto& hh : front.top(5)) {
    std::printf("  flow %016llx  ~%9.0f pkts in window  (shard %zu)\n",
                static_cast<unsigned long long>(hh.key), hh.estimate, front.shard_of(hh.key));
  }

  std::printf("\nper-shard load and window phase:\n");
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    const auto& shard = front.shard(s);
    std::printf("  shard %zu: %8llu pkts, phase %6llu/%llu, coverage %.0f global pkts\n", s,
                static_cast<unsigned long long>(shard.stream_length()),
                static_cast<unsigned long long>(shard.window_phase()),
                static_cast<unsigned long long>(shard.window_size()),
                front.window_coverage(s));
  }
  std::printf("stream skew (worst |n_s - n/N|): %.0f pkts\n", front.stream_skew());

  const auto hh = front.heavy_hitters(0.001);
  std::printf("\nheavy hitters at theta=0.1%%: %zu flows\n", hh.size());

  // --- skew the mix, then rebalance ---------------------------------------
  // Three elephant flows, all hashed onto one shard but each in its OWN
  // bucket (keys probed off the frontend's partitioner) - a bucket is the
  // rebalancer's migration unit, so distinct buckets are what lets it split
  // them. Together they now carry 25% of the traffic: the classic mix
  // static hashing cannot balance.
  std::vector<packet> elephants;
  std::vector<std::size_t> buckets_taken;
  for (std::uint32_t dst = 1u << 20; elephants.size() < 3; ++dst) {
    const packet p{0, dst};  // flow key == dst
    if (pipe.core_of(p) != 0) continue;
    const std::size_t b = front.partitioner().bucket_of(flow_id(p));
    if (std::find(buckets_taken.begin(), buckets_taken.end(), b) != buckets_taken.end()) continue;
    elephants.push_back(p);
    buckets_taken.push_back(b);
  }
  for (std::size_t sent = 0; sent < kPackets; sent += kBurst) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      burst[i] = i % 4 == 0 ? elephants[(sent + i) % elephants.size()] : gen.next();
    }
    pipe.process(burst.data(), burst.size());
  }
  pipe.drain();
  std::printf("\nafter an elephant-heavy phase (3 flows = 25%% of traffic on shard 0):\n");
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    std::printf("  shard %zu: %8llu pkts, coverage %.0f global pkts\n", s,
                static_cast<unsigned long long>(front.shard(s).stream_length()),
                front.window_coverage(s));
  }

  // rebalance(): drain barrier + plan (coverage_rebalancer) + state
  // migration through the snapshot reshard path + table publish. The
  // workers pick the new routing up with the next burst.
  const bool moved = pipe.rebalance(coverage_rebalancer{});
  std::printf("\nrebalance(): %s\n", moved ? "migrated hot buckets" : "no-op (balanced)");
  for (std::size_t sent = 0; sent < kPackets; sent += kBurst) {  // same skewed mix
    for (std::size_t i = 0; i < kBurst; ++i) {
      burst[i] = i % 4 == 0 ? elephants[(sent + i) % elephants.size()] : gen.next();
    }
    pipe.process(burst.data(), burst.size());
  }
  pipe.drain();
  std::printf("same mix after rebalancing (weighted bucket table in effect):\n");
  for (std::size_t s = 0; s < front.num_shards(); ++s) {
    std::printf("  shard %zu: %8llu pkts, coverage %.0f global pkts (elephant owners:", s,
                static_cast<unsigned long long>(front.shard(s).stream_length()),
                front.window_coverage(s));
    for (const auto& e : elephants) {
      if (pipe.core_of(e) == s) std::printf(" %llx", static_cast<unsigned long long>(flow_id(e)));
    }
    std::printf(")\n");
  }
  pipe.stop();
  return 0;
}
