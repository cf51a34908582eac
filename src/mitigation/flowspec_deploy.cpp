#include "mitigation/flowspec_deploy.hpp"

#include <stdexcept>

namespace stellar::mitigation {

InterdomainFlowspec::InterdomainFlowspec(std::vector<bgp::Asn> peers,
                                         double acceptance_probability, std::uint64_t seed) {
  util::Rng rng(seed);
  for (bgp::Asn peer : peers) accepts_[peer] = rng.chance(acceptance_probability);
}

std::size_t InterdomainFlowspec::announce(const bgp::flowspec::Rule& rule,
                                          const bgp::flowspec::Action& action) {
  // Real dissemination path: encode once, each acceptor decodes its copy.
  auto encoded = bgp::flowspec::EncodeNlri(rule);
  if (!encoded.ok()) {
    throw std::invalid_argument("InterdomainFlowspec: unencodable rule: " +
                                encoded.error().message);
  }
  std::size_t installed = 0;
  for (auto& [peer, accepted] : accepts_) {
    if (!accepted) continue;
    auto decoded = bgp::flowspec::DecodeNlri(*encoded);
    if (!decoded.ok()) continue;  // Defensive: codec round-trip is tested.
    installed_[peer].push_back(Installed{decoded->rule, action});
    ++installed;
  }
  return installed;
}

bool InterdomainFlowspec::peer_drops(bgp::Asn peer, const net::FlowKey& flow) const {
  const auto it = installed_.find(peer);
  if (it == installed_.end()) return false;
  for (const auto& entry : it->second) {
    if (!entry.rule.matches(flow)) continue;
    // traffic-rate 0 = drop; positive rates are handled fluidly by callers,
    // here any matching rule with rate 0 drops the flow at the peer edge.
    if (!entry.action.rate_limit_bytes_per_s.has_value() ||
        *entry.action.rate_limit_bytes_per_s == 0.0f) {
      return true;
    }
  }
  return false;
}

std::size_t InterdomainFlowspec::accepting_peers() const {
  std::size_t n = 0;
  for (const auto& [peer, accepted] : accepts_) {
    if (accepted) ++n;
  }
  return n;
}

}  // namespace stellar::mitigation
