#include "ixp/looking_glass.hpp"

#include <sstream>

namespace stellar::ixp {

template <typename PrefixT>
std::vector<std::string> LookingGlass::show_route(const PrefixT& prefix) const {
  std::vector<std::string> out;
  const auto& rib = server_.adj_rib_in<PrefixT>();
  rib.visit_prefix(prefix, [&](const bgp::BasicRouteView<PrefixT>& route) {
    std::ostringstream line;
    line << prefix.str() << " via AS" << server_.member_asn_of_peer(route.peer);
    if (const auto next_hop = bgp::Afi<PrefixT>::next_hop(route.attrs)) {
      line << " next-hop " << next_hop->str();
    }
    if (!route.attrs.communities.empty()) {
      line << " communities";
      for (const auto& c : route.attrs.communities) line << ' ' << c.str();
    }
    if (!route.attrs.extended_communities.empty()) {
      line << " extended";
      for (const auto& ec : route.attrs.extended_communities) line << ' ' << ec.str();
    }
    if (!route.attrs.large_communities.empty()) {
      line << " large";
      for (const auto& lc : route.attrs.large_communities) line << ' ' << lc.str();
    }
    out.push_back(line.str());
  });
  return out;
}

template std::vector<std::string> LookingGlass::show_route(const net::Prefix4&) const;
template std::vector<std::string> LookingGlass::show_route(const net::Prefix6&) const;

}  // namespace stellar::ixp
