// Looking glass: the debugging interface members use against the route
// server (paper §4.3: "members can rely on looking glasses for debugging").
// Read-only textual queries over the route server's RIB.
#pragma once

#include <string>
#include <vector>

#include "ixp/route_server.hpp"

namespace stellar::ixp {

class LookingGlass {
 public:
  explicit LookingGlass(const RouteServer& server) : server_(server) {}

  /// All paths the route server holds for a prefix (net::Prefix4 or
  /// net::Prefix6), rendered like
  /// "100.10.10.10/32 via AS65010 next-hop 10.0.1.1 communities 65535:666".
  template <typename PrefixT>
  [[nodiscard]] std::vector<std::string> show_route(const PrefixT& prefix) const;

 private:
  const RouteServer& server_;
};

}  // namespace stellar::ixp
