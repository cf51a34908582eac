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

  /// Summary line per prefix in the RIB.
  [[nodiscard]] std::vector<std::string> show_rib_summary() const;

  /// Session / hygiene counters.
  [[nodiscard]] std::string show_status() const;

  /// Process-wide metrics view (paper §4.3's debugging story extended to the
  /// observability plane): Prometheus-style text exposition of the global
  /// obs registry.
  [[nodiscard]] std::string show_metrics() const;

  /// Per-stage signal-path latency breakdown for a signaling prefix, one
  /// line per stage ("stage t=<sim s> +<delta s>"); empty if never traced.
  [[nodiscard]] std::vector<std::string> show_signal_path(const net::Prefix4& prefix) const;

 private:
  const RouteServer& server_;
};

}  // namespace stellar::ixp
