#include "mitigation/rtbh.hpp"

namespace stellar::mitigation {

void TriggerRtbh(ixp::MemberRouter& victim, const net::Prefix4& prefix,
                 std::vector<bgp::Community> scope) {
  scope.push_back(bgp::kBlackhole);
  victim.announce(prefix, std::move(scope));
}

RtbhCompliance MeasureCompliance(const ixp::Ixp& ixp, const net::Prefix4& prefix,
                                 bgp::Asn victim_asn) {
  RtbhCompliance compliance;
  for (const auto& member : ixp.members()) {
    if (member->info().asn == victim_asn) continue;
    ++compliance.total;
    if (member->blackholes(prefix.address())) ++compliance.honoring;
  }
  return compliance;
}

}  // namespace stellar::mitigation
