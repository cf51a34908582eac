#include "traffic/trace_io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>

namespace stellar::traffic {

namespace {

util::Error LineError(std::size_t line, const std::string& what) {
  return util::MakeError("trace.csv", "line " + std::to_string(line) + ": " + what);
}

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const auto comma = line.find(',', start);
    out.push_back(line.substr(start, comma - start));
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

template <typename T>
bool ParseNumber(std::string_view text, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    // std::from_chars for double is not universally available; strtod via a
    // bounded buffer keeps this locale-independent enough for our dialect.
    char buf[64];
    if (text.empty() || text.size() >= sizeof buf) return false;
    std::memcpy(buf, text.data(), text.size());
    buf[text.size()] = '\0';
    char* end = nullptr;
    out = std::strtod(buf, &end);
    return end == buf + text.size();
  } else {
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
  }
}

}  // namespace

void WriteFlowCsv(std::ostream& out, std::span<const net::FlowSample> samples) {
  out << kFlowCsvHeader << '\n';
  for (const auto& s : samples) {
    out << s.time_s << ',' << s.key.src_mac.str() << ',' << s.key.src_ip.str() << ','
        << s.key.dst_ip.str() << ',' << net::ToString(s.key.proto) << ',' << s.key.src_port
        << ',' << s.key.dst_port << ',' << s.bytes << ',' << s.packets << '\n';
  }
}

util::Result<std::vector<net::FlowSample>> ReadFlowCsv(std::istream& in) {
  std::string document(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
  return FlowsFromCsv(document);
}

util::Result<std::vector<net::FlowSample>> FlowsFromCsv(std::string_view text) {
  std::vector<net::FlowSample> out;
  std::size_t line_no = 0;
  bool header_seen = false;
  while (!text.empty()) {
    ++line_no;
    const auto newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    if (!header_seen) {
      if (line != kFlowCsvHeader) {
        return LineError(line_no, "expected header '" + std::string(kFlowCsvHeader) + "'");
      }
      header_seen = true;
      continue;
    }

    const auto fields = SplitFields(line);
    if (fields.size() != 9) {
      return LineError(line_no, "expected 9 fields, got " + std::to_string(fields.size()));
    }
    net::FlowSample s;
    if (!ParseNumber(fields[0], s.time_s)) return LineError(line_no, "bad time_s");
    auto mac = net::MacAddress::Parse(fields[1]);
    if (!mac.ok()) return LineError(line_no, mac.error().message);
    s.key.src_mac = *mac;
    auto src = net::IPv4Address::Parse(fields[2]);
    if (!src.ok()) return LineError(line_no, src.error().message);
    s.key.src_ip = *src;
    auto dst = net::IPv4Address::Parse(fields[3]);
    if (!dst.ok()) return LineError(line_no, dst.error().message);
    s.key.dst_ip = *dst;
    if (fields[4] == "tcp") {
      s.key.proto = net::IpProto::kTcp;
    } else if (fields[4] == "udp") {
      s.key.proto = net::IpProto::kUdp;
    } else if (fields[4] == "icmp") {
      s.key.proto = net::IpProto::kIcmp;
    } else {
      return LineError(line_no, "unknown proto '" + std::string(fields[4]) + "'");
    }
    if (!ParseNumber(fields[5], s.key.src_port)) return LineError(line_no, "bad src_port");
    if (!ParseNumber(fields[6], s.key.dst_port)) return LineError(line_no, "bad dst_port");
    if (!ParseNumber(fields[7], s.bytes)) return LineError(line_no, "bad bytes");
    if (!ParseNumber(fields[8], s.packets)) return LineError(line_no, "bad packets");
    out.push_back(s);
  }
  if (!header_seen) return util::MakeError("trace.csv", "empty document (no header)");
  return out;
}

util::Result<void> WriteFlowCsvFile(const std::string& path,
                                    std::span<const net::FlowSample> samples) {
  std::ofstream out(path);
  if (!out) return util::MakeError("trace.io", "cannot open '" + path + "' for writing");
  WriteFlowCsv(out, samples);
  out.flush();
  if (!out) return util::MakeError("trace.io", "write to '" + path + "' failed");
  return {};
}

util::Result<std::vector<net::FlowSample>> ReadFlowCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::MakeError("trace.io", "cannot open '" + path + "'");
  return ReadFlowCsv(in);
}

}  // namespace stellar::traffic
