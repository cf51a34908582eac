// Classic Remotely Triggered Black Hole (RTBH) — the baseline Stellar
// improves on. The mechanics live in the IXP substrate (route server rewrites
// the next-hop, honoring members drop at ingress); this module provides the
// trigger operation and the compliance measurements of §2.4. A victim ends
// the blackhole with MemberRouter::withdraw.
#pragma once

#include <vector>

#include "ixp/ixp.hpp"

namespace stellar::mitigation {

/// Announces `prefix` tagged with the RFC 7999 BLACKHOLE community, asking
/// every route-server participant to drop traffic towards it. Optional scope
/// communities restrict the audience (Fig. 3b's "All-k" / targeted patterns).
void TriggerRtbh(ixp::MemberRouter& victim, const net::Prefix4& prefix,
                 std::vector<bgp::Community> scope = {});

/// How many members actually act on a blackhole announcement (paper §2.4:
/// "almost 70% of these IXP members do not honor the blackholing community").
struct RtbhCompliance {
  std::size_t honoring = 0;
  std::size_t total = 0;

  [[nodiscard]] double honored_fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(honoring) / static_cast<double>(total);
  }
};

/// Counts members (excluding the victim) currently blackholing `prefix`.
[[nodiscard]] RtbhCompliance MeasureCompliance(const ixp::Ixp& ixp, const net::Prefix4& prefix,
                                               bgp::Asn victim_asn);

}  // namespace stellar::mitigation
