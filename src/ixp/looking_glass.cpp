#include "ixp/looking_glass.hpp"

#include <cstdio>
#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

std::vector<std::string> LookingGlass::show_rib_summary() const {
  std::map<net::Prefix4, std::size_t> paths_per_prefix;
  server_.adj_rib_in().for_each([&](const bgp::RouteView& r) { ++paths_per_prefix[r.prefix]; });
  std::vector<std::string> out;
  for (const auto& [prefix, count] : paths_per_prefix) {
    out.push_back(prefix.str() + " paths=" + std::to_string(count));
  }
  return out;
}

std::string LookingGlass::show_status() const {
  std::ostringstream out;
  out << "members=" << server_.member_count()
      << " established=" << server_.established_member_sessions()
      << " routes=" << server_.adj_rib_in().size()
      << " routes6=" << server_.adj_rib_in<net::Prefix6>().size()
      << " rejects{bogon=" << server_.rejects().bogon
      << ", irr=" << server_.rejects().irr_unauthorized
      << ", rpki=" << server_.rejects().rpki_invalid
      << ", too_specific=" << server_.rejects().too_specific
      << ", origin=" << server_.rejects().origin_mismatch << "}";
  return out.str();
}

std::string LookingGlass::show_metrics() const {
  return obs::registry().expose_text();
}

std::vector<std::string> LookingGlass::show_signal_path(const net::Prefix4& prefix) const {
  std::vector<std::string> out;
  for (const auto& stage : obs::tracer().breakdown(prefix.str())) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-20s t=%.6f +%.6f", stage.stage.c_str(), stage.at_s,
                  stage.delta_s);
    out.emplace_back(line);
  }
  return out;
}

}  // namespace stellar::ixp
