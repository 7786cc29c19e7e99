// snapshot_speed: save/restore speed and wire size of the snapshot format
// on a deployment-scale sharded frontend.
//
// The subject is an 8-shard sharded_memento with 2^17 Space-Saving counters
// per shard - 1,048,576 counters total - populated to steady state from a
// heavy-tailed stream. The checkpoint is saved through a 64 KB-chunk
// wire::sink callback and restored through a chunk-feeding wire::source
// read callback - the shape of a controller streaming a checkpoint to and
// from a socket. The sink's peak_buffered() is reported as the
// bounded-memory evidence: it stays at chunk-size scale no matter how big
// the deployment.
//
// Reported: seconds per checkpoint each way, with MB/s beside them, wire
// bytes, bytes per counter (the CI bench-smoke asserts <= 17.4, i.e. at
// least 2.5x smaller than the retired fixed-width format's 45,633,817 B
// image of this state), and peak bytes buffered by the sink. `--json`
// emits the {"snapshot": ...} document summarize.py folds into
// BENCH_fig5.json with --snapshot.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "shard/sharded_memento.hpp"
#include "snapshot/snapshot.hpp"
#include "util/table.hpp"

namespace {

using namespace memento;

constexpr std::size_t kShards = 8;
constexpr std::size_t kCountersPerShard = std::size_t{1} << 17;
constexpr std::size_t kCountersTotal = kShards * kCountersPerShard;  // 1,048,576
constexpr std::uint64_t kWindow = std::uint64_t{8} << 20;            // T = 8 per shard
constexpr std::size_t kPackets = 12'000'000;
constexpr std::size_t kBatch = 8192;
constexpr std::size_t kChunk = 64 * 1024;

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

[[nodiscard]] double mbps(std::size_t bytes, double secs) {
  return secs > 0.0 ? static_cast<double>(bytes) / secs / 1e6 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  sharded_memento<> sketch(shard_config{kWindow, kCountersTotal, 1.0, 7, kShards});
  // Heavy-tailed fill: 1/4 of traffic on 2^16 hot flows, the rest spread
  // over 2^24 - enough distinct keys to saturate every shard's counter and
  // overflow tables, which is what makes the image deployment-sized.
  {
    std::vector<std::uint64_t> batch(kBatch);
    std::uint64_t z = 0x9e3779b97f4a7c15ULL;
    for (std::size_t done = 0; done < kPackets; done += kBatch) {
      for (auto& key : batch) {
        z = z * 6364136223846793005ULL + 1442695040888963407ULL;
        key = (z >> 33) % 4 == 0 ? (z >> 40) & 0xFFFF : (z >> 24) & 0xFFFFFF;
      }
      sketch.update_batch(batch.data(), batch.size());
    }
  }

  // Chunked save: the sink hands 64 KB chunks to the callback as they
  // fill; peak_buffered() is the whole memory story.
  std::vector<std::uint8_t> image;
  auto t0 = std::chrono::steady_clock::now();
  wire::sink sink(
      [&](std::span<const std::uint8_t> chunk) {
        image.insert(image.end(), chunk.begin(), chunk.end());
        return true;
      },
      kChunk);
  if (!snapshot::stream_save(sketch, sink)) {
    std::fprintf(stderr, "snapshot_speed: save failed\n");
    return 1;
  }
  const double save_s = seconds_since(t0);
  const std::size_t peak = sink.peak_buffered();

  // Restore, fed chunk by chunk through the source's read callback.
  t0 = std::chrono::steady_clock::now();
  std::size_t cursor = 0;
  wire::source source(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min(want, image.size() - cursor);
        std::memcpy(dst, image.data() + cursor, n);
        cursor += n;
        return n;
      },
      kChunk);
  auto back = snapshot::stream_restore<sharded_memento<>>(source);
  const double restore_s = seconds_since(t0);
  if (!back) {
    std::fprintf(stderr, "snapshot_speed: restore failed\n");
    return 1;
  }
  // The restored frontend must re-save to the same bytes; a silent
  // divergence would make every number above meaningless.
  if (snapshot::save(*back) != image) {
    std::fprintf(stderr, "snapshot_speed: restored frontend re-saves differently\n");
    return 1;
  }

  const double bytes_per_counter =
      static_cast<double>(image.size()) / static_cast<double>(kCountersTotal);

  if (json) {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf(
        "{\n  \"memento_build_type\": \"%s\",\n  \"snapshot\": {\n"
        "    \"shards\": %zu, \"counters\": %zu, \"window\": %llu,\n"
        "    \"v2_bytes\": %zu, \"bytes_per_counter\": %.3f,\n"
        "    \"v2_save_s\": %.4f, \"v2_restore_s\": %.4f,\n"
        "    \"v2_save_mbps\": %.1f, \"v2_restore_mbps\": %.1f,\n"
        "    \"chunk_bytes\": %zu, \"peak_buffered_bytes\": %zu\n  }\n}\n",
        build, kShards, kCountersTotal, static_cast<unsigned long long>(kWindow), image.size(),
        bytes_per_counter, save_s, restore_s, mbps(image.size(), save_s),
        mbps(image.size(), restore_s), kChunk, peak);
  } else {
    std::printf("=== snapshot speed: %zu shards x %zu counters (%zu total) ===\n", kShards,
                kCountersPerShard, kCountersTotal);
    console_table table({"bytes", "save s", "restore s", "save MB/s", "restore MB/s",
                         "B/counter"});
    table.print_header();
    table.cell(static_cast<long long>(image.size()))
        .cell(save_s, 4)
        .cell(restore_s, 4)
        .cell(mbps(image.size(), save_s), 1)
        .cell(mbps(image.size(), restore_s), 1)
        .cell(bytes_per_counter, 2);
    table.end_row();
    std::printf("streaming sink peak buffer: %zu bytes (chunk %zu) for a %zu-byte image\n",
                peak, kChunk, image.size());
  }
  return 0;
}
