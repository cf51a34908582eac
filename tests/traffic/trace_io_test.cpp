#include "traffic/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "traffic/generators.hpp"
#include "util/rng.hpp"

namespace stellar::traffic {
namespace {

net::FlowSample Sample(double t, double mbps) {
  net::FlowSample s;
  s.time_s = t;
  s.key.src_mac = net::MacAddress::ForRouter(65001);
  s.key.src_ip = net::IPv4Address(60, 1, 0, 5);
  s.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
  s.key.proto = net::IpProto::kUdp;
  s.key.src_port = 123;
  s.key.dst_port = 5555;
  s.bytes = static_cast<std::uint64_t>(mbps * 1e6 / 8.0);
  s.packets = s.bytes / 1200;
  return s;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  std::vector<net::FlowSample> samples{Sample(0.0, 100.0), Sample(12.5, 55.25)};
  samples[1].key.proto = net::IpProto::kTcp;
  samples[1].key.src_port = 50'000;
  samples[1].key.dst_port = 443;
  const std::string csv =
      std::string(kFlowCsvHeader) +
      "\n0,02:00:00:fd:e9:00,60.1.0.5,100.10.10.10,udp,123,5555,12500000,10416\n"
      "12.5,02:00:00:fd:e9:00,60.1.0.5,100.10.10.10,tcp,50000,443,6906250,5755\n";
  std::ostringstream written;
  WriteFlowCsv(written, samples);
  EXPECT_EQ(written.str(), csv);
  const auto parsed = FlowsFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed->size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ((*parsed)[i].key, samples[i].key);
    EXPECT_EQ((*parsed)[i].bytes, samples[i].bytes);
    EXPECT_EQ((*parsed)[i].packets, samples[i].packets);
    EXPECT_DOUBLE_EQ((*parsed)[i].time_s, samples[i].time_s);
  }
}

TEST(TraceIoTest, GeneratorOutputRoundTrips) {
  std::vector<SourceMember> sources{{net::MacAddress::ForRouter(60001),
                                     net::Prefix4::Parse("60.1.0.0/20").value()}};
  WebTrafficGenerator::Config config;
  config.target = net::IPv4Address(100, 10, 10, 10);
  WebTrafficGenerator gen(config, sources, 9);
  const auto samples = gen.bin(3.0, 1.0);
  std::ostringstream csv;
  WriteFlowCsv(csv, samples);
  const auto parsed = FlowsFromCsv(csv.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), samples.size());
}

TEST(TraceIoTest, SkipsCommentsAndBlankLines) {
  const std::string csv = std::string(kFlowCsvHeader) +
                          "\n# a comment\n\n"
                          "1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,123,99,1000,2\n";
  const auto parsed = FlowsFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].bytes, 1000u);
}

TEST(TraceIoTest, HandlesCrlf) {
  const std::string csv = std::string(kFlowCsvHeader) +
                          "\r\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,tcp,1,2,3,4\r\n";
  const auto parsed = FlowsFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(TraceIoTest, MalformedInputsRejectedWithLineNumbers) {
  const std::string header(kFlowCsvHeader);
  struct Case {
    const char* name;
    std::string csv;
  };
  const std::vector<Case> cases{
      {"no header", "1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"},
      {"missing fields", header + "\n1.0,02:00:00:00:00:01,1.2.3.4\n"},
      {"bad mac", header + "\n1.0,zz:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"},
      {"bad ip", header + "\n1.0,02:00:00:00:00:01,1.2.3.999,5.6.7.8,udp,1,2,3,4\n"},
      {"bad proto", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,gre,1,2,3,4\n"},
      {"bad port", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,x,2,3,4\n"},
      {"bad bytes", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,-3,4\n"},
      {"bad time", header + "\nnope,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"},
  };
  for (const auto& c : cases) {
    const auto parsed = FlowsFromCsv(c.csv);
    EXPECT_FALSE(parsed.ok()) << c.name;
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error().message.find("line"), std::string::npos) << c.name;
    }
  }
}

TEST(TraceIoTest, FinalLineWithoutTrailingNewlineIsNotDropped) {
  const std::string with_newline =
      std::string(kFlowCsvHeader) +
      "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,123,99,1000,2\n"
      "2.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,tcp,1,2,3,4\n";
  std::string without_newline = with_newline;
  without_newline.pop_back();
  const auto a = FlowsFromCsv(with_newline);
  const auto b = FlowsFromCsv(without_newline);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok()) << b.error().message;
  ASSERT_EQ(b->size(), 2u) << "final sample silently dropped";
  EXPECT_EQ((*a)[1].key, (*b)[1].key);
  EXPECT_EQ((*a)[1].bytes, (*b)[1].bytes);

  // Header-only document without a trailing newline is a valid empty trace.
  const auto header_only = FlowsFromCsv(std::string(kFlowCsvHeader));
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only->empty());
}

TEST(TraceIoTest, EmptyFieldsAreErrorsNotSilentDrops) {
  const std::string header(kFlowCsvHeader);
  const std::vector<std::pair<const char*, std::string>> cases{
      {"all fields empty", header + "\n,,,,,,,,\n"},
      {"empty time", header + "\n,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"},
      {"empty mac", header + "\n1.0,,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"},
      {"empty src ip", header + "\n1.0,02:00:00:00:00:01,,5.6.7.8,udp,1,2,3,4\n"},
      {"empty proto", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,,1,2,3,4\n"},
      {"empty port", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,,2,3,4\n"},
      {"empty bytes", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,,4\n"},
      {"empty packets", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,\n"},
      {"trailing comma", header + "\n1.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4,\n"},
      {"lone commas line", header + "\n,,,\n"},
  };
  for (const auto& [name, csv] : cases) {
    const auto parsed = FlowsFromCsv(csv);
    EXPECT_FALSE(parsed.ok()) << name;
    if (!parsed.ok()) {
      EXPECT_NE(parsed.error().message.find("line 2"), std::string::npos) << name;
    }
  }
}

TEST(TraceIoTest, MalformedRowsDoNotPoisonLaterParsesAndReportExactLine) {
  // A malformed row mid-document reports its own (1-based) line number even
  // with comments, blank lines and CRLF endings mixed in.
  const std::string csv = std::string(kFlowCsvHeader) +
                          "\n# comment\r\n\n"
                          "4.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n"
                          "5.0,02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3\n";
  const auto parsed = FlowsFromCsv(csv);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("line 5"), std::string::npos)
      << parsed.error().message;
  // Oversized numeric field (longer than the parse buffer) is rejected, not
  // truncated or read out of range.
  const std::string huge(100, '1');
  const auto oversized = FlowsFromCsv(std::string(kFlowCsvHeader) + "\n" + huge +
                                      ",02:00:00:00:00:01,1.2.3.4,5.6.7.8,udp,1,2,3,4\n");
  EXPECT_FALSE(oversized.ok());
}

TEST(TraceIoTest, EmptyDocumentRejected) {
  EXPECT_FALSE(FlowsFromCsv("").ok());
  // Header-only is a valid empty trace.
  const auto parsed = FlowsFromCsv(std::string(kFlowCsvHeader) + "\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "stellar_trace_io_test.csv").string();
  const std::vector<net::FlowSample> samples{Sample(1.0, 10.0), Sample(2.0, 20.0)};
  ASSERT_TRUE(WriteFlowCsvFile(path, samples).ok());
  const auto parsed = ReadFlowCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileIsError) {
  EXPECT_FALSE(ReadFlowCsvFile("/nonexistent/definitely/missing.csv").ok());
}

}  // namespace
}  // namespace stellar::traffic
