// Inter-domain Flowspec deployment model (paper §1.1/§4.2.1): the victim
// disseminates an RFC 5575 rule; each peer independently decides whether to
// accept it (trust, resource sharing and liability make inter-domain
// acceptance rare). Accepting peers filter matching traffic at *their* edge,
// i.e. before it enters the IXP. Rules round-trip through the real wire
// codec, so this baseline exercises the same NLRI bytes a router would see.
#pragma once

#include <map>
#include <vector>

#include "bgp/flowspec.hpp"
#include "bgp/types.hpp"
#include "util/rng.hpp"

namespace stellar::mitigation {

class InterdomainFlowspec {
 public:
  /// `acceptance_probability`: chance a given peer honors inter-domain
  /// Flowspec at all (decided once per peer, not per rule).
  InterdomainFlowspec(std::vector<bgp::Asn> peers, double acceptance_probability,
                      std::uint64_t seed);

  /// Disseminates a rule+action to all peers. The rule is encoded to NLRI
  /// bytes and re-decoded per receiving peer. Returns the number of peers
  /// that accepted and installed it.
  std::size_t announce(const bgp::flowspec::Rule& rule, const bgp::flowspec::Action& action);

  /// Does `peer` filter this flow at its edge (before the IXP)?
  /// Rate-limit actions are approximated: a rule with a non-drop rate counts
  /// as matching only the excess share, which the fluid caller handles by
  /// querying `pass_fraction` instead.
  [[nodiscard]] bool peer_drops(bgp::Asn peer, const net::FlowKey& flow) const;

  [[nodiscard]] std::size_t accepting_peers() const;

 private:
  struct Installed {
    bgp::flowspec::Rule rule;
    bgp::flowspec::Action action;
  };

  std::map<bgp::Asn, bool> accepts_;
  std::map<bgp::Asn, std::vector<Installed>> installed_;
};

}  // namespace stellar::mitigation
