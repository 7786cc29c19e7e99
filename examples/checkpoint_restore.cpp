// Checkpoint/restore + elastic reshard walkthrough: the snapshot layer in
// five acts.
//
//   1. run a sharded Memento frontend over live traffic;
//   2. CHECKPOINT it to a byte buffer (snapshot::save) - what you would
//      write to disk for failover or ship to a new owner for migration;
//   3. RESTORE it into a fresh instance and show both answer and continue
//      the stream identically;
//   4. RESHARD the restored checkpoint 4 -> 2 shards
//      (snapshot_builder::reshard) and show the heavy hitters survive the
//      topology change;
//   5. STREAM the checkpoint through a chunked wire::sink / wire::source:
//      the same compressed, CRC-protected bytes as the buffer, produced in
//      bounded memory - the sink never buffers more than about one chunk,
//      no matter how large the deployment.
//
// Exits non-zero if any invariant breaks, so the ctest smoke run doubles as
// a regression check.
//
//   build/examples/checkpoint_restore
#include <cmath>
#include <cstdio>

#include "shard/sharded_memento.hpp"
#include "snapshot/reshard.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/summary.hpp"
#include "trace/trace_generator.hpp"
#include "util/random.hpp"

int main() {
  using namespace memento;

  // Act 1: a 4-shard frontend with planted elephants.
  shard_config cfg;
  cfg.window_size = 100'000;
  cfg.counters = 512;
  cfg.tau = 1.0;
  cfg.shards = 4;
  sharded_memento<std::uint64_t> front(cfg);

  trace_generator background(trace_kind::backbone, /*seed=*/1);
  xoshiro256 rng(2);
  auto next_flow = [&] {
    return rng.uniform01() < 0.3 ? 1000 + rng.bounded(3) : flow_id(background.next());
  };
  for (int i = 0; i < 300'000; ++i) front.update(next_flow());

  // Act 2: checkpoint.
  const auto checkpoint = snapshot::save(front);
  std::printf("checkpoint: %zu shards -> %zu bytes (%zu window candidates)\n",
              front.num_shards(), checkpoint.size(), front.candidate_count());

  // Act 3: restore and continue. The restored frontend must answer AND keep
  // processing bit-identically - same sampler state, same window phase.
  auto restored = snapshot::restore<sharded_memento<std::uint64_t>>(checkpoint);
  if (!restored) {
    std::puts("FAIL: checkpoint did not restore");
    return 1;
  }
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t flow = next_flow();
    front.update(flow);
    restored->update(flow);
  }
  const auto live = front.heavy_hitters(0.05);
  const auto cont = restored->heavy_hitters(0.05);
  if (live.size() != cont.size()) {
    std::puts("FAIL: restored frontend diverged");
    return 1;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i].key != cont[i].key || live[i].estimate != cont[i].estimate) {
      std::puts("FAIL: restored frontend diverged");
      return 1;
    }
  }
  std::printf("restore:    continued %d packets bit-identically (%zu heavy hitters)\n",
              50'000, live.size());

  // Mergeable summaries: the query-only transportable form.
  const auto summary = window_summary<std::uint64_t>::from(front);
  const auto wire = snapshot::save(summary);
  std::printf("summary:    %zu candidates -> %zu bytes on the wire\n", summary.size(),
              wire.size());

  // Act 4: reshard the checkpoint onto a 2-shard deployment (scale-in).
  shard_config smaller = cfg;
  smaller.shards = 2;
  auto from_checkpoint = snapshot::restore<sharded_memento<>>(checkpoint);
  auto resharded =
      from_checkpoint ? snapshot_builder::reshard(*from_checkpoint, smaller) : std::nullopt;
  if (!resharded) {
    std::puts("FAIL: reshard rejected a compatible geometry");
    return 1;
  }
  std::printf("reshard:    4 -> %zu shards; planted elephants after the move:\n",
              resharded->num_shards());
  std::printf("%12s %14s %14s\n", "flow", "before", "after");
  int carried = 0;
  for (const auto& hh : front.heavy_hitters(0.05)) {
    const double after = resharded->query(hh.key);
    std::printf("%12llu %14.0f %14.0f\n", static_cast<unsigned long long>(hh.key),
                hh.estimate, after);
    // Estimates move by at most one threshold unit across a reshard.
    const double unit =
        static_cast<double>(front.shard(0).overflow_threshold()) / front.shard(0).tau();
    if (std::abs(after - hh.estimate) <= unit + 1e-9) ++carried;
  }
  if (carried == 0) {
    std::puts("FAIL: reshard lost every heavy hitter");
    return 1;
  }

  // The resharded deployment keeps serving traffic.
  for (int i = 0; i < 50'000; ++i) resharded->update(next_flow());
  std::printf("\nresharded frontend kept running: %llu packets total, width <= %.0f\n",
              static_cast<unsigned long long>(resharded->stream_length()),
              resharded->estimate_width());

  // Act 5: the same checkpoint, streamed. The sink hands
  // 4 KB chunks to the callback as they fill - stand-in for a socket or an
  // O_APPEND file descriptor - and its peak_buffered() is the whole memory
  // story of the save.
  std::vector<std::uint8_t> streamed;
  wire::sink sink(
      [&](std::span<const std::uint8_t> chunk) {
        streamed.insert(streamed.end(), chunk.begin(), chunk.end());
        return true;
      },
      /*chunk_bytes=*/4096);
  if (!snapshot::stream_save(front, sink)) {
    std::puts("FAIL: streamed save failed");
    return 1;
  }
  if (streamed != snapshot::save(front)) {
    std::puts("FAIL: streamed save differs from the buffered checkpoint");
    return 1;
  }
  std::printf("\nstreamed:   %zu bytes (same as the buffer), peak buffer %zu\n",
              streamed.size(), sink.peak_buffered());

  // Restore it chunk by chunk - the controller side of the same socket -
  // and check it is the exact same frontend, byte for byte.
  std::size_t cursor = 0;
  wire::source source(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min(want, streamed.size() - cursor);
        std::memcpy(dst, streamed.data() + cursor, n);
        cursor += n;
        return n;
      },
      /*chunk_bytes=*/4096);
  auto from_stream = snapshot::stream_restore<sharded_memento<std::uint64_t>>(source);
  if (!from_stream || snapshot::save(*from_stream) != snapshot::save(front)) {
    std::puts("FAIL: streamed restore diverged from the live frontend");
    return 1;
  }
  std::puts("streamed restore matches the live frontend byte for byte");
  return 0;
}
