// Wire codecs for the measurement-point -> controller control channel.
//
// The analysis (Section 5.2) models report cost as O header bytes plus E
// bytes per sampled packet; this module makes those messages real: fixed
// little-endian layouts with no padding surprises, so the byte accounting in
// budget_model is exact for what actually crosses the wire, and a deployment
// can ship reports over UDP/TCP unchanged.
//
// sample_report layout (payload; the O-byte transport header is external):
//   u32 origin | u64 covered | u32 count | count x entry
// where entry = u32 src (E=4, 1D hierarchies) or u32 src + u32 dst (E=8).
// The layout is pinned by a golden-bytes test (tests/codec_test.cpp): it
// predates the shared wire layer and must never drift, version by version.
//
// The payload is written through wire::sink and read through wire::source
// (util/wire.hpp, shared with the snapshot layer and the summary channel),
// outside any section; this header only owns the sample_report layout.
// Decoding is bounds-checked and returns nullopt on any truncation or count
// mismatch - a malformed report must never crash a controller (fuzzed
// across every truncation and bit flip by the codec tests, under ASan in
// CI).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netwide/measurement_point.hpp"
#include "trace/packet.hpp"
#include "util/wire.hpp"

namespace memento::netwide {

/// Which per-sample encoding a channel uses (matches budget_model::entry_bytes).
enum class sample_encoding : std::uint8_t {
  src_only = 4,      ///< 4 bytes: source address (1D hierarchies)
  src_and_dst = 8,   ///< 8 bytes: (source, destination) pair (2D)
};

/// Payload size the codec will produce (the "E*b" part of the cost model,
/// plus the 16-byte report header that rides inside the O-byte transport).
[[nodiscard]] constexpr std::size_t encoded_size(std::size_t samples,
                                                 sample_encoding encoding) noexcept {
  return 16 + static_cast<std::size_t>(encoding) * samples;
}

/// Serializes a report payload. Size is exactly 16 + E * samples bytes: the
/// sink's chunk is sized to the payload, so it flushes once.
[[nodiscard]] inline std::vector<std::uint8_t> encode_report(const sample_report& report,
                                                             sample_encoding encoding) {
  const std::size_t size = encoded_size(report.samples.size(), encoding);
  std::vector<std::uint8_t> out;
  out.reserve(size);
  wire::sink w(out, size);
  w.u32(report.origin);
  w.u64(report.covered_packets);
  w.u32(static_cast<std::uint32_t>(report.samples.size()));
  for (const auto& p : report.samples) {
    w.u32(p.src);
    if (encoding == sample_encoding::src_and_dst) w.u32(p.dst);
  }
  w.finish();
  return out;
}

/// Parses a report payload; nullopt on truncation, trailing garbage, or an
/// entry count that does not match the buffer.
[[nodiscard]] inline std::optional<sample_report> decode_report(
    std::span<const std::uint8_t> bytes, sample_encoding encoding) {
  wire::source r(bytes);
  sample_report report;
  std::uint32_t count = 0;
  if (!r.u32(report.origin)) return std::nullopt;
  if (!r.u64(report.covered_packets)) return std::nullopt;
  if (!r.u32(count)) return std::nullopt;
  if (bytes.size() != encoded_size(count, encoding)) return std::nullopt;

  report.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    packet p;
    if (!r.u32(p.src)) return std::nullopt;
    if (encoding == sample_encoding::src_and_dst && !r.u32(p.dst)) return std::nullopt;
    report.samples.push_back(p);
  }
  if (report.covered_packets < report.samples.size()) return std::nullopt;
  return report;
}

}  // namespace memento::netwide
