// StellarSystem: the deployed Advanced Blackholing service — signaling layer
// (route server + extended communities), management layer (controller +
// network manager with the QoS compiler) and filtering layer (edge-router QoS
// policies) wired onto an Ixp (paper Fig. 5).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/controller.hpp"
#include "core/network_manager.hpp"
#include "core/portal.hpp"
#include "ixp/ixp.hpp"

namespace stellar::core {

/// Consumer of the platform's delivered-traffic stream (IPFIX viewpoint).
/// Attack-detection engines implement this to close the mitigation loop: the
/// system fans every delivered bin out to attached observers, which may react
/// by signaling blackholing rules through the normal member signaling path.
class TrafficObserver {
 public:
  virtual ~TrafficObserver() = default;
  virtual void observe_bin(std::span<const net::FlowSample> delivered, double t_s,
                           double bin_s) = 0;
};

class StellarSystem {
 public:
  /// Wraps the QoS compiler before the network manager sees it — the hook
  /// chaos tests use to inject transient apply() failures (sim::FlakyCompiler)
  /// without the core depending on the fault library.
  using CompilerDecorator =
      std::function<std::unique_ptr<ConfigCompiler>(ConfigCompiler& inner)>;

  struct Config {
    BlackholingController::Config controller{};
    NetworkManager::Config manager{};
    /// When set, the controller self-heals: it re-dials the route server
    /// (fresh accept_controller() transport) with this backoff/damping
    /// policy, resyncs, and runs the reconciliation audit. Unset keeps the
    /// classic one-shot fail-safe behaviour.
    std::optional<bgp::ReconnectPolicy> controller_reconnect;
    CompilerDecorator compiler_decorator;
  };

  StellarSystem(ixp::Ixp& ixp, Config config);
  explicit StellarSystem(ixp::Ixp& ixp) : StellarSystem(ixp, Config{}) {}

  [[nodiscard]] BlackholingController& controller() { return *controller_; }
  [[nodiscard]] const BlackholingController& controller() const { return *controller_; }
  [[nodiscard]] NetworkManager& manager() { return *manager_; }
  [[nodiscard]] RulePortal& portal() { return portal_; }
  [[nodiscard]] QosConfigCompiler& compiler() { return *compiler_; }
  [[nodiscard]] ixp::Ixp& ixp() { return ixp_; }

  /// Opt-in auto-mitigation hook: attached observers receive every delivered
  /// bin pushed through observe_bin(). Detection engines (src/detect/) use
  /// this to synthesize and signal rules with no operator in the loop.
  void attach_observer(std::shared_ptr<TrafficObserver> observer) {
    observers_.push_back(std::move(observer));
  }
  [[nodiscard]] std::size_t observer_count() const { return observers_.size(); }

  /// Fans one bin of delivered traffic out to all attached observers.
  void observe_bin(std::span<const net::FlowSample> delivered, double t_s, double bin_s) {
    for (const auto& observer : observers_) observer->observe_bin(delivered, t_s, bin_s);
  }

  /// Per-rule telemetry for one member: the feedback channel that lets a
  /// victim see attack state and volume without lifting the mitigation.
  struct TelemetryRecord {
    std::string key;
    filter::PortId port = 0;
    filter::FilterRule rule;
    filter::RuleCounters counters;
  };
  [[nodiscard]] std::vector<TelemetryRecord> telemetry(bgp::Asn member) const;

 private:
  ixp::Ixp& ixp_;
  RulePortal portal_;
  std::unique_ptr<QosConfigCompiler> compiler_;
  std::unique_ptr<ConfigCompiler> decorated_compiler_;  ///< Optional wrapper.
  std::unique_ptr<NetworkManager> manager_;
  std::unique_ptr<BlackholingController> controller_;
  std::vector<std::shared_ptr<TrafficObserver>> observers_;
};

/// Member-side convenience: announce `prefix` with an Advanced Blackholing
/// signal. By default the announcement is scoped to the IXP only
/// (announce-to-none) — one-to-IXP signaling, no member cooperation — which
/// is the defining difference from RTBH's one-to-all model. The signal goes
/// in extended communities when the IXP's ASN fits their two-octet AS field,
/// and in RFC 8092 large communities otherwise.
void SignalAdvancedBlackholing(ixp::MemberRouter& member, const ixp::RouteServer& route_server,
                               const net::Prefix4& prefix, const Signal& signal,
                               bool also_propagate_to_members = false);

/// Withdraw a previously signaled prefix (removes its rules at the next
/// controller processing round).
void WithdrawAdvancedBlackholing(ixp::MemberRouter& member, const net::Prefix4& prefix);

}  // namespace stellar::core
