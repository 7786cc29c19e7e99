// Latest-wins checkpoint store for the controller's background checkpoints.
//
// The controller checkpoints through the snapshot wire (wire::sink with
// chunked flushes, FoR/varint column codecs, per-section CRC): capture()
// drives snapshot::stream_save chunk by chunk, so the serialization itself
// never holds more than about one chunk of frame state - the property the
// snapshot bench pins. The DESTINATION here is an in-memory byte image
// (the store is the recovery source for kill/restore fault injection and
// for tests; a deployment that wants durability hands the same sink a file
// or socket callback instead - the capture path is identical).
//
// Only the newest successful image is kept: a checkpoint is a recovery
// point, not an archive, and a failed capture must never shadow a good one -
// capture() builds into a side buffer and swaps only on success.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "snapshot/snapshot.hpp"
#include "util/wire.hpp"

namespace memento {

class checkpoint_store {
 public:
  explicit checkpoint_store(std::size_t chunk_bytes = wire::sink::kDefaultChunk)
      : chunk_(chunk_bytes) {}

  /// Streams `object` through a chunked wire::sink into a fresh image and,
  /// on success, publishes it as the latest checkpoint. Returns the image
  /// size in bytes, 0 on failure (the previous image stays authoritative).
  template <typename T>
  std::size_t capture(const T& object) {
    std::vector<std::uint8_t> image;
    wire::sink s(image, chunk_);
    if (!snapshot::stream_save(object, s)) return 0;
    peak_buffered_ = s.peak_buffered();
    latest_ = std::move(image);
    ++generation_;
    return latest_.size();
  }

  /// Rebuilds a T from the latest image (nullopt when empty or corrupt).
  template <typename T>
  [[nodiscard]] std::optional<T> restore_latest() const {
    if (latest_.empty()) return std::nullopt;
    wire::source src{std::span<const std::uint8_t>(latest_)};
    return snapshot::stream_restore<T>(src);
  }

  [[nodiscard]] bool empty() const noexcept { return latest_.empty(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return latest_.size(); }
  /// Successful captures so far; the latest image's id.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }
  /// Max bytes the sink held during the last successful capture - the
  /// bounded-memory evidence (<= chunk + largest single put).
  [[nodiscard]] std::size_t peak_buffered() const noexcept { return peak_buffered_; }
  [[nodiscard]] std::span<const std::uint8_t> image() const noexcept { return latest_; }

 private:
  std::size_t chunk_;
  std::vector<std::uint8_t> latest_;
  std::uint64_t generation_ = 0;
  std::size_t peak_buffered_ = 0;
};

}  // namespace memento
