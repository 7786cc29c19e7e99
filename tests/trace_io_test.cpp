// Tests for trace persistence: address parsing, line parsing, stream round
// trips, tolerance of malformed input, and the pcap reader's contract -
// magic/endianness sniffing, IPv4 extraction from Ethernet/VLAN/raw-IP
// frames, non-IPv4 records skipped, truncation always fatal with a clear
// error - swept over every truncation and every single-bit flip of a mixed
// capture (the suite rides the `snapshot` label, so CI runs it under ASan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_generator.hpp"
#include "trace/trace_io.hpp"

namespace memento {
namespace {

TEST(ParseIpv4, DottedQuad) {
  EXPECT_EQ(parse_ipv4("1.2.3.4"), 0x01020304u);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xffffffffu);
  EXPECT_EQ(parse_ipv4("181.7.20.6"), (181u << 24) | (7u << 16) | (20u << 8) | 6u);
}

TEST(ParseIpv4, RawDecimal) {
  EXPECT_EQ(parse_ipv4("0"), 0u);
  EXPECT_EQ(parse_ipv4("4294967295"), 0xffffffffu);
  EXPECT_EQ(parse_ipv4("16909060"), 0x01020304u);
}

TEST(ParseIpv4, RejectsMalformed) {
  EXPECT_FALSE(parse_ipv4(""));
  EXPECT_FALSE(parse_ipv4("1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4.5"));
  EXPECT_FALSE(parse_ipv4("256.1.1.1"));
  EXPECT_FALSE(parse_ipv4("1.2.3."));
  EXPECT_FALSE(parse_ipv4(".1.2.3"));
  EXPECT_FALSE(parse_ipv4("1.2.3.4x"));
  EXPECT_FALSE(parse_ipv4("4294967296"));   // > 2^32 - 1
  EXPECT_FALSE(parse_ipv4("a.b.c.d"));
  EXPECT_FALSE(parse_ipv4("-1"));
}

TEST(ParseTraceLine, AcceptsBothForms) {
  const auto a = parse_trace_line("1.2.3.4,5.6.7.8");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->src, 0x01020304u);
  EXPECT_EQ(a->dst, 0x05060708u);

  const auto b = parse_trace_line("  16909060 , 84281096  ");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->src, 0x01020304u);
  EXPECT_EQ(b->dst, 0x05060708u);
}

TEST(ParseTraceLine, RejectsMalformed) {
  EXPECT_FALSE(parse_trace_line(""));
  EXPECT_FALSE(parse_trace_line("1.2.3.4"));
  EXPECT_FALSE(parse_trace_line("1.2.3.4,"));
  EXPECT_FALSE(parse_trace_line(",5.6.7.8"));
  EXPECT_FALSE(parse_trace_line("1.2.3.4;5.6.7.8"));
}

TEST(TraceIo, StreamRoundTripIsExact) {
  const auto original = make_trace(trace_kind::datacenter, 2000, /*seed=*/5);
  std::stringstream buffer;
  write_trace(buffer, original);
  const auto result = read_trace(buffer);
  EXPECT_EQ(result.malformed_lines, 0u);
  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_TRUE(std::equal(result.packets.begin(), result.packets.end(), original.begin()));
}

TEST(TraceIo, SkipsCommentsBlanksAndGarbage) {
  std::stringstream buffer;
  buffer << "# header comment\n"
         << "\n"
         << "1.2.3.4,5.6.7.8\n"
         << "not a packet\n"
         << "9.9.9.9,8.8.8.8\n"
         << "300.1.1.1,1.1.1.1\n";
  const auto result = read_trace(buffer);
  EXPECT_EQ(result.packets.size(), 2u);
  EXPECT_EQ(result.malformed_lines, 2u);
}

TEST(TraceIo, FileRoundTrip) {
  const auto original = make_trace(trace_kind::edge, 500, /*seed=*/9);
  const std::string path = ::testing::TempDir() + "/memento_trace_io_test.csv";
  ASSERT_TRUE(write_trace_file(path, original));
  const auto result = read_trace_file(path);
  EXPECT_EQ(result.malformed_lines, 0u);
  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_TRUE(std::equal(result.packets.begin(), result.packets.end(), original.begin()));
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsAnError) {
  const auto result = read_trace_file("/nonexistent/path/to/trace.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
  EXPECT_TRUE(result.packets.empty());
}

// --- pcap -------------------------------------------------------------------

// Byte-level builders so the tests control endianness and truncation exactly.
void le16(std::string& s, std::uint16_t v) {
  s.push_back(static_cast<char>(v & 0xff));
  s.push_back(static_cast<char>(v >> 8));
}
void le32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void be16(std::string& s, std::uint16_t v) {
  s.push_back(static_cast<char>(v >> 8));
  s.push_back(static_cast<char>(v & 0xff));
}
void be32(std::string& s, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::string pcap_header_le(std::uint32_t linktype, std::uint32_t magic = kPcapMagicMicros) {
  std::string s;
  le32(s, magic);
  le16(s, 2);
  le16(s, 4);
  le32(s, 0);
  le32(s, 0);
  le32(s, 65535);
  le32(s, linktype);
  return s;
}

std::string ipv4_header(std::uint32_t src, std::uint32_t dst) {
  std::string s;
  s.push_back('\x45');  // version 4, IHL 5
  s.push_back('\0');
  be16(s, 20);
  le32(s, 0);  // id + flags
  s.push_back('\x40');  // TTL
  s.push_back('\0');
  be16(s, 0);  // checksum
  be32(s, src);
  be32(s, dst);
  return s;
}

std::string ether_frame(std::uint16_t ethertype, const std::string& payload) {
  std::string s(12, '\0');  // MACs
  be16(s, ethertype);
  return s + payload;
}

void append_record_le(std::string& s, const std::string& frame) {
  le32(s, 0);  // ts_sec
  le32(s, 0);  // ts_usec
  le32(s, static_cast<std::uint32_t>(frame.size()));
  le32(s, static_cast<std::uint32_t>(frame.size()));
  s += frame;
}

trace_read_result read_pcap_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return read_pcap(in);
}

TEST(Pcap, WriterRoundTripsExactly) {
  const auto original = make_trace(trace_kind::backbone, 500, /*seed=*/3);
  std::stringstream buffer;
  write_pcap(buffer, original);
  const auto result = read_pcap(buffer);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.malformed_lines, 0u);
  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_TRUE(std::equal(result.packets.begin(), result.packets.end(), original.begin()));
}

TEST(Pcap, FileSniffingRoutesCapturesAndTextThroughOneEntryPoint) {
  const auto original = make_trace(trace_kind::edge, 200, /*seed=*/8);
  const std::string path = ::testing::TempDir() + "/memento_trace_io_test.pcap";
  ASSERT_TRUE(write_pcap_file(path, original));
  const auto result = read_trace_file(path);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.packets.size(), original.size());
  EXPECT_TRUE(std::equal(result.packets.begin(), result.packets.end(), original.begin()));
  std::remove(path.c_str());
}

TEST(Pcap, BigEndianNanosecondRawIpCapture) {
  // A capture written by a big-endian host with nanosecond timestamps and
  // raw-IP linktype: every file-order field byte-swapped, frames bare IPv4.
  std::string s;
  be32(s, kPcapMagicNanos);
  be16(s, 2);
  be16(s, 4);
  be32(s, 0);
  be32(s, 0);
  be32(s, 65535);
  be32(s, kPcapLinktypeRawIp);
  const std::string frame = ipv4_header(0x0A0B0C0Du, 0x01020304u);
  be32(s, 1);  // ts_sec
  be32(s, 2);  // ts_nsec
  be32(s, static_cast<std::uint32_t>(frame.size()));
  be32(s, static_cast<std::uint32_t>(frame.size()));
  s += frame;

  const auto result = read_pcap_bytes(s);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0].src, 0x0A0B0C0Du);
  EXPECT_EQ(result.packets[0].dst, 0x01020304u);
}

TEST(Pcap, VlanTaggedIpv4IsParsed) {
  std::string vlan_payload;
  be16(vlan_payload, 0x0123);  // tag control
  be16(vlan_payload, 0x0800);  // inner ethertype
  vlan_payload += ipv4_header(0x7F000001u, 0x7F000002u);
  std::string s = pcap_header_le(kPcapLinktypeEthernet);
  append_record_le(s, ether_frame(0x8100, vlan_payload));
  const auto result = read_pcap_bytes(s);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.packets[0].src, 0x7F000001u);
  EXPECT_EQ(result.packets[0].dst, 0x7F000002u);
}

TEST(Pcap, NonIpv4RecordsAreSkippedNotFatal) {
  std::string s = pcap_header_le(kPcapLinktypeEthernet);
  append_record_le(s, ether_frame(0x0806, std::string(28, '\0')));  // ARP
  append_record_le(s, ether_frame(0x0800, ipv4_header(1, 2)));
  append_record_le(s, std::string(6, '\0'));  // runt frame
  const auto result = read_pcap_bytes(s);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.packets.size(), 1u);
  EXPECT_EQ(result.malformed_lines, 2u);
}

TEST(Pcap, TruncationIsFatalAtEveryLevel) {
  // Global header cut short.
  auto r = read_pcap_bytes(pcap_header_le(kPcapLinktypeEthernet).substr(0, 10));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("global header"), std::string::npos);

  // Record header cut short (after one intact record, which is retained).
  std::string s = pcap_header_le(kPcapLinktypeEthernet);
  append_record_le(s, ether_frame(0x0800, ipv4_header(3, 4)));
  r = read_pcap_bytes(s + std::string(8, '\0'));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("record header"), std::string::npos);
  EXPECT_EQ(r.packets.size(), 1u);  // parsed-so-far packets survive

  // Record body shorter than its header claims.
  std::string t = pcap_header_le(kPcapLinktypeEthernet);
  append_record_le(t, ether_frame(0x0800, ipv4_header(5, 6)));
  r = read_pcap_bytes(t.substr(0, t.size() - 5));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("record body"), std::string::npos);
}

TEST(Pcap, BadMagicLinktypeAndLengthAreRejected) {
  std::string bad_magic = pcap_header_le(kPcapLinktypeEthernet, 0xDEADBEEFu);
  EXPECT_NE(read_pcap_bytes(bad_magic).error.find("bad magic"), std::string::npos);

  std::string bad_link = pcap_header_le(/*linktype=*/105);  // 802.11
  EXPECT_NE(read_pcap_bytes(bad_link).error.find("linktype"), std::string::npos);

  std::string bad_len = pcap_header_le(kPcapLinktypeEthernet);
  le32(bad_len, 0);
  le32(bad_len, 0);
  le32(bad_len, 0x40000000u);  // 1 GiB captured length: corrupt framing
  le32(bad_len, 0x40000000u);
  EXPECT_NE(read_pcap_bytes(bad_len).error.find("captured length"), std::string::npos);
}

/// A small Ethernet capture for the hardening sweeps: plain IPv4, ARP,
/// VLAN-tagged IPv4, a runt frame and IPv4 again. `ends` holds each
/// record's end offset and `yields` the packets read up to it.
struct mixed_capture {
  std::string bytes;
  std::vector<std::size_t> ends;
  std::vector<std::size_t> yields;
};

mixed_capture make_mixed_capture() {
  std::string vlan_payload;
  be16(vlan_payload, 0x0123);
  be16(vlan_payload, 0x0800);
  vlan_payload += ipv4_header(0x0A000003u, 0x0A000004u);
  const std::pair<std::string, bool> records[] = {
      {ether_frame(0x0800, ipv4_header(0x0A000001u, 0x0A000002u)), true},
      {ether_frame(0x0806, std::string(28, '\0')), false},  // ARP
      {ether_frame(0x8100, vlan_payload), true},
      {std::string(6, '\0'), false},  // runt
      {ether_frame(0x0800, ipv4_header(0x0A000005u, 0x0A000006u)), true},
  };
  mixed_capture c;
  c.bytes = pcap_header_le(kPcapLinktypeEthernet);
  std::size_t packets = 0;
  for (const auto& [frame, ipv4] : records) {
    append_record_le(c.bytes, frame);
    packets += ipv4 ? 1 : 0;
    c.ends.push_back(c.bytes.size());
    c.yields.push_back(packets);
  }
  return c;
}

TEST(Pcap, EveryTruncationKeepsTheWholeRecordsBeforeTheCut) {
  const mixed_capture c = make_mixed_capture();
  const auto intact = read_pcap_bytes(c.bytes);
  ASSERT_TRUE(intact.ok()) << intact.error;
  ASSERT_EQ(intact.packets.size(), 3u);
  EXPECT_EQ(intact.malformed_lines, 2u);

  for (std::size_t cut = 0; cut < c.bytes.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const auto r = read_pcap_bytes(c.bytes.substr(0, cut));
    // Records wholly before the cut, and whether the cut lands on an edge.
    std::size_t whole = 0;
    while (whole < c.ends.size() && c.ends[whole] <= cut) ++whole;
    const bool at_edge = cut == 24 || (whole > 0 && c.ends[whole - 1] == cut);
    EXPECT_EQ(r.ok(), at_edge) << r.error;
    const std::size_t kept = whole > 0 ? c.yields[whole - 1] : 0;
    ASSERT_EQ(r.packets.size(), kept);
    EXPECT_TRUE(std::equal(r.packets.begin(), r.packets.end(), intact.packets.begin()));
  }
}

TEST(Pcap, EverySingleBitFlipIsReadWithoutCrashing) {
  // Run under ASan by the `snapshot` label: a flip may re-frame every
  // record after it, but each parsed record still consumes its 16-byte
  // header, and nothing may be read out of range.
  const mixed_capture c = make_mixed_capture();
  for (std::size_t bit = 0; bit < 8 * c.bytes.size(); ++bit) {
    std::string flipped = c.bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const auto r = read_pcap_bytes(flipped);
    EXPECT_LE(r.packets.size() + r.malformed_lines, (flipped.size() - 24) / 16)
        << "bit " << bit;
  }
}

}  // namespace
}  // namespace memento
