// snapshot_speed: save/restore throughput and wire size of the two snapshot
// formats on a deployment-scale sharded frontend.
//
// The subject is an 8-shard sharded_memento with 2^17 Space-Saving counters
// per shard - 1,048,576 counters total - populated to steady state from a
// heavy-tailed stream. Four measurements:
//
//   * v1 (buffered writer/reader): monolithic save into one vector, restore
//     from it - the PR 3 format, kept for backward compatibility;
//   * v2 (streamed sink/source): chunked save through a 64 KB-chunk
//     wire::sink callback and restore through a chunk-feeding wire::source
//     read callback - the compressed CRC-protected format. The sink's
//     peak_buffered() is reported as the bounded-memory evidence: it stays
//     at chunk-size scale no matter how big the deployment, where the v1
//     path's working set is the whole image.
//
// Reported: seconds per checkpoint each way for both formats, with MB/s
// beside them, wire bytes, compression ratio (v1 / v2 - the CI bench-smoke
// asserts >= 2.5x), bytes per counter, and peak bytes buffered by the
// streaming sink. Seconds are the figure to compare across formats: MB/s
// divides by each format's own image size, so it flatters v1, whose image
// is ~3x larger for the same state. `--json` emits the
// {"snapshot": ...} document summarize.py folds into BENCH_fig5.json with
// --snapshot.
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

  // v1: monolithic buffered image.
  auto t0 = std::chrono::steady_clock::now();
  const auto v1 = snapshot::save(sketch);
  const double v1_save_s = seconds_since(t0);
  t0 = std::chrono::steady_clock::now();
  auto back1 = snapshot::restore<sharded_memento<>>(v1);
  const double v1_restore_s = seconds_since(t0);
  if (!back1) {
    std::fprintf(stderr, "snapshot_speed: v1 restore failed\n");
    return 1;
  }

  // v2: chunked streaming save. The sink hands 64 KB chunks to the callback
  // as they fill; peak_buffered() is the whole memory story.
  std::vector<std::uint8_t> v2;
  t0 = std::chrono::steady_clock::now();
  wire::sink sink(
      [&](std::span<const std::uint8_t> chunk) {
        v2.insert(v2.end(), chunk.begin(), chunk.end());
        return true;
      },
      kChunk);
  if (!snapshot::stream_save(sketch, sink)) {
    std::fprintf(stderr, "snapshot_speed: streamed save failed\n");
    return 1;
  }
  const double v2_save_s = seconds_since(t0);
  const std::size_t peak = sink.peak_buffered();

  // v2 restore, fed chunk by chunk through the source's read callback -
  // the shape of a controller pulling a checkpoint off a socket.
  t0 = std::chrono::steady_clock::now();
  std::size_t cursor = 0;
  wire::source source(
      [&](std::uint8_t* dst, std::size_t want) {
        const std::size_t n = std::min(want, v2.size() - cursor);
        std::memcpy(dst, v2.data() + cursor, n);
        cursor += n;
        return n;
      },
      kChunk);
  auto back2 = snapshot::stream_restore<sharded_memento<>>(source);
  const double v2_restore_s = seconds_since(t0);
  if (!back2) {
    std::fprintf(stderr, "snapshot_speed: streamed restore failed\n");
    return 1;
  }
  // The two paths must agree exactly; a silent divergence would make every
  // number above meaningless.
  if (snapshot::save(*back1) != snapshot::save(*back2)) {
    std::fprintf(stderr, "snapshot_speed: v1/v2 restores disagree\n");
    return 1;
  }

  const double ratio = static_cast<double>(v1.size()) / static_cast<double>(v2.size());
  const double bytes_per_counter =
      static_cast<double>(v2.size()) / static_cast<double>(kCountersTotal);

  if (json) {
#ifdef NDEBUG
    const char* build = "release";
#else
    const char* build = "debug";
#endif
    std::printf(
        "{\n  \"memento_build_type\": \"%s\",\n  \"snapshot\": {\n"
        "    \"shards\": %zu, \"counters\": %zu, \"window\": %llu,\n"
        "    \"v1_bytes\": %zu, \"v2_bytes\": %zu, \"compression_ratio\": %.3f,\n"
        "    \"bytes_per_counter\": %.3f,\n"
        "    \"v1_save_s\": %.4f, \"v1_restore_s\": %.4f,\n"
        "    \"v2_save_s\": %.4f, \"v2_restore_s\": %.4f,\n"
        "    \"v1_save_mbps\": %.1f, \"v1_restore_mbps\": %.1f,\n"
        "    \"v2_save_mbps\": %.1f, \"v2_restore_mbps\": %.1f,\n"
        "    \"chunk_bytes\": %zu, \"peak_buffered_bytes\": %zu\n  }\n}\n",
        build, kShards, kCountersTotal, static_cast<unsigned long long>(kWindow), v1.size(),
        v2.size(), ratio, bytes_per_counter, v1_save_s, v1_restore_s, v2_save_s, v2_restore_s,
        mbps(v1.size(), v1_save_s), mbps(v1.size(), v1_restore_s), mbps(v2.size(), v2_save_s),
        mbps(v2.size(), v2_restore_s), kChunk, peak);
  } else {
    std::printf("=== snapshot speed: %zu shards x %zu counters (%zu total) ===\n", kShards,
                kCountersPerShard, kCountersTotal);
    console_table table({"format", "bytes", "save s", "restore s", "save MB/s", "restore MB/s",
                         "B/counter"});
    table.print_header();
    table.cell("v1 buffered")
        .cell(static_cast<long long>(v1.size()))
        .cell(v1_save_s, 4)
        .cell(v1_restore_s, 4)
        .cell(mbps(v1.size(), v1_save_s), 1)
        .cell(mbps(v1.size(), v1_restore_s), 1)
        .cell(static_cast<double>(v1.size()) / static_cast<double>(kCountersTotal), 2);
    table.end_row();
    table.cell("v2 streamed")
        .cell(static_cast<long long>(v2.size()))
        .cell(v2_save_s, 4)
        .cell(v2_restore_s, 4)
        .cell(mbps(v2.size(), v2_save_s), 1)
        .cell(mbps(v2.size(), v2_restore_s), 1)
        .cell(bytes_per_counter, 2);
    table.end_row();
    std::printf("\ncompression ratio (v1/v2): %.2fx\n", ratio);
    std::printf("streaming sink peak buffer: %zu bytes (chunk %zu) for a %zu-byte image\n",
                peak, kChunk, v2.size());
  }
  return 0;
}
