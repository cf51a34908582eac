#include "core/stellar.hpp"

#include <set>

namespace stellar::core {

StellarSystem::StellarSystem(ixp::Ixp& ixp, Config config) : ixp_(ixp) {
  config.controller.ixp_asn = ixp.config().asn;
  compiler_ = std::make_unique<QosConfigCompiler>(ixp.edge_router());
  ConfigCompiler* active_compiler = compiler_.get();
  if (config.compiler_decorator) {
    decorated_compiler_ = config.compiler_decorator(*compiler_);
    if (decorated_compiler_) active_compiler = decorated_compiler_.get();
  }
  manager_ = std::make_unique<NetworkManager>(ixp.queue(), *active_compiler, config.manager);

  BlackholingController::PortDirectory directory =
      [&ixp](bgp::Asn asn) -> std::optional<BlackholingController::PortDirectoryEntry> {
    ixp::MemberRouter* member = ixp.member(asn);
    if (member == nullptr) return std::nullopt;
    return BlackholingController::PortDirectoryEntry{member->info().port,
                                                     member->info().port_capacity_mbps};
  };

  if (config.controller_reconnect) {
    controller_ = std::make_unique<BlackholingController>(
        ixp.queue(), [&ixp] { return ixp.route_server().accept_controller(); },
        *config.controller_reconnect, config.controller, std::move(directory), &portal_);
  } else {
    controller_ = std::make_unique<BlackholingController>(
        ixp.queue(), ixp.route_server().accept_controller(), config.controller,
        std::move(directory), &portal_);
  }
  controller_->set_change_sink([this](ConfigChange change) { manager_->enqueue(std::move(change)); });
  // Reconciliation's view of the data plane: rules the compiler has realized,
  // projected over what is still in flight through the rate limiter — a
  // queued install/remove is not an inconsistency, just latency.
  controller_->set_installed_view([this] {
    std::set<std::string> keys;
    for (auto& key : compiler_->installed_keys()) keys.insert(std::move(key));
    for (const auto& change : manager_->in_flight()) {
      if (change.op == ConfigChange::Op::kInstall) {
        keys.insert(change.key);
      } else {
        keys.erase(change.key);
      }
    }
    return std::vector<std::string>(keys.begin(), keys.end());
  });
}

std::vector<StellarSystem::TelemetryRecord> StellarSystem::telemetry(bgp::Asn member) const {
  std::vector<TelemetryRecord> out;
  for (const auto& [key, change] : controller_->desired()) {
    if (change.member != member) continue;
    TelemetryRecord record;
    record.key = key;
    record.port = change.port;
    record.rule = change.rule;
    if (const auto id = compiler_->rule_id(key)) {
      record.counters = ixp_.edge_router().counters(*id);
    }
    out.push_back(std::move(record));
  }
  return out;
}

void SignalAdvancedBlackholing(ixp::MemberRouter& member, const ixp::RouteServer& route_server,
                               const net::Prefix4& prefix, const Signal& signal,
                               bool also_propagate_to_members) {
  std::vector<bgp::Community> communities;
  if (!also_propagate_to_members) communities.push_back(route_server.announce_to_none());
  // Invalid signals (fractional/overflowing rate) are caller bugs: value()
  // throws instead of announcing a silently-mangled action.
  const bgp::Asn asn = route_server.config().asn;
  if (bgp::IsTwoOctetAsn(asn)) {
    member.announce(prefix, std::move(communities),
                    EncodeSignal(static_cast<std::uint16_t>(asn), signal).value());
  } else {
    member.announce(prefix, std::move(communities), {}, EncodeSignalLarge(asn, signal).value());
  }
}

void WithdrawAdvancedBlackholing(ixp::MemberRouter& member, const net::Prefix4& prefix) {
  member.withdraw(prefix);
}

}  // namespace stellar::core
