// Flow-trace import/export in a simple CSV dialect, so recorded IPFIX-style
// data can be replayed through the platform (fabric, collectors, Stellar
// policies) in place of the synthetic generators, and simulation results can
// be post-processed outside.
//
// Format (header required, one flow sample per line):
//   time_s,src_mac,src_ip,dst_ip,proto,src_port,dst_port,bytes,packets
//   12.0,02:00:00:00:ea:61,60.1.0.5,100.10.10.10,udp,123,5555,1250000,1042
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "util/result.hpp"

namespace stellar::traffic {

inline constexpr std::string_view kFlowCsvHeader =
    "time_s,src_mac,src_ip,dst_ip,proto,src_port,dst_port,bytes,packets";

/// Serializes samples (header + one line per sample).
void WriteFlowCsv(std::ostream& out, std::span<const net::FlowSample> samples);

/// Parses a CSV document. Strict: a malformed header, field count, or value
/// fails with the offending line number in the error message. Blank lines
/// and lines starting with '#' are skipped.
[[nodiscard]] util::Result<std::vector<net::FlowSample>> ReadFlowCsv(std::istream& in);
[[nodiscard]] util::Result<std::vector<net::FlowSample>> FlowsFromCsv(std::string_view text);

/// File conveniences.
[[nodiscard]] util::Result<void> WriteFlowCsvFile(const std::string& path,
                                                  std::span<const net::FlowSample> samples);
[[nodiscard]] util::Result<std::vector<net::FlowSample>> ReadFlowCsvFile(
    const std::string& path);

}  // namespace stellar::traffic
