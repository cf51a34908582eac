// AutoMitigator: the closed-loop engine that turns Stellar from a filtering
// primitive into an automated DoS defense (paper §6 future work; AITF-style
// real-time filter synthesis). It watches the delivered-traffic stream of one
// protected member, maintains O(1)-memory sketches per victim /32, detects
// volumetric anomalies against an EWMA/MAD baseline, synthesizes the minimal
// L3-L4 rule set, and signals it through the ordinary member signaling path —
// extended-community codec, route server, controller ownership validation,
// token-bucket config queue, QoS compile — exactly as a human operator would.
//
// Escalation follows the paper's Fig. 10c timeline: shape first (200 Mbps
// telemetry rate keeps an attack sample visible), then drop once the attack
// persists; withdraw only after the rule telemetry shows the attack is gone.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stellar.hpp"
#include "detect/detector.hpp"
#include "detect/sketch.hpp"
#include "detect/synthesizer.hpp"
#include "ixp/member.hpp"
#include "ixp/route_server.hpp"

namespace stellar::detect {

class AutoMitigator : public core::TrafficObserver {
 public:
  /// Mitigation lifecycle of one victim /32.
  enum class Phase : std::uint8_t {
    kIdle,      ///< No rules signaled.
    kShaping,   ///< Shape signal active (telemetry phase).
    kDropping,  ///< Escalated to drop.
  };

  struct Config {
    VolumeDetector::Config detector{};
    RuleSynthesizer::Config synthesizer{};
    /// Telemetry shaping rate of the first escalation stage (paper §5.3 uses
    /// 200 Mbps). <= 0 signals drop immediately on detection.
    double shape_rate_mbps = 200.0;
    /// Shape -> drop once the detector has stayed triggered this long.
    double escalate_after_s = 60.0;
    /// Withdraw after the rules' matched rate stays below matched_quiet_mbps
    /// and the detector is clear for this long.
    double withdraw_quiet_s = 60.0;
    double matched_quiet_mbps = 5.0;
    /// Per-victim sketch sizing.
    std::size_t heavy_hitter_capacity = 64;
    std::size_t entropy_window_bins = 6;
    std::size_t sketch_width = 1024;
    std::size_t sketch_depth = 4;
    /// Victim-state table bound.
    std::size_t max_tracked_victims = 64;
    /// Remaining admission-control rule budget for the member's port.
    /// Defaults to the synthesizer's max_rules when unset.
    std::function<std::size_t()> tcam_budget_fn;
    /// Rule telemetry source (StellarSystem::telemetry for this member);
    /// without it, withdrawal falls back to detector state alone.
    std::function<std::vector<core::StellarSystem::TelemetryRecord>()> telemetry_fn;
  };

  AutoMitigator(ixp::MemberRouter& member, const ixp::RouteServer& route_server,
                Config config);

  /// Feeds one bin of delivered traffic (any mix of destinations; samples
  /// outside the member's address space are ignored).
  void observe_bin(std::span<const net::FlowSample> delivered, double t_s,
                   double bin_s) override;

  struct Stats {
    std::uint64_t bins_observed = 0;
    std::uint64_t detections = 0;
    std::uint64_t escalations = 0;
    std::uint64_t withdrawals = 0;
    std::uint64_t signals_sent = 0;    ///< Announcements (shape + drop re-announcements).
    std::uint64_t rules_emitted = 0;   ///< Match rules across all signals.
    std::uint64_t empty_plans = 0;     ///< Detections the synthesizer could not cover.
    double last_detection_s = -1.0;
    double last_withdrawal_s = -1.0;
  };

  /// Introspection for benches and tests.
  struct MitigationRecord {
    Phase phase = Phase::kIdle;
    double triggered_at_s = -1.0;
    double shape_signaled_at_s = -1.0;
    double drop_signaled_at_s = -1.0;
    std::vector<core::SignalRule> rules;
    double covered_share = 0.0;
    bool fallback_proto = false;
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::optional<MitigationRecord> mitigation(net::IPv4Address dst) const;
  [[nodiscard]] std::size_t tracked_victims() const { return victims_.size(); }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct VictimState {
    explicit VictimState(const Config& cfg)
        : detector(cfg.detector),
          udp_src_ports(cfg.heavy_hitter_capacity),
          entropy(cfg.entropy_window_bins),
          cms(cfg.sketch_width, cfg.sketch_depth) {}

    VolumeDetector detector;
    SpaceSaving udp_src_ports;
    WindowedEntropy entropy;
    CountMinSketch cms;

    // Current-bin accumulators, reset after every observe_bin.
    std::uint64_t bin_bytes = 0;
    std::uint64_t bin_udp_bytes = 0;
    std::uint64_t bin_tcp_bytes = 0;

    MitigationRecord record;
    /// Cumulative matched_bytes last seen per telemetry key (delta tracking).
    std::unordered_map<std::string, std::uint64_t> last_matched;
    double quiet_since_s = -1.0;
    double last_traffic_s = 0.0;
  };

  [[nodiscard]] TrafficProfile build_profile(net::IPv4Address dst, const VictimState& state,
                                             double baseline_mbps, double bin_s) const;
  void signal(net::IPv4Address dst, VictimState& state, bool drop, double t_s);
  /// Matched-byte rate (Mbps) of this victim's installed rules over the bin.
  [[nodiscard]] double matched_rate_mbps(net::IPv4Address dst, VictimState& state,
                                         double bin_s);

  ixp::MemberRouter& member_;
  const ixp::RouteServer& route_server_;
  Config cfg_;
  std::unordered_map<std::uint32_t, VictimState> victims_;  ///< Keyed by dst IPv4 bits.
  std::uint64_t bins_since_decay_ = 0;
  Stats stats_;
};

/// Wires an AutoMitigator for `member_asn` into `system`: resolves the member
/// router, derives the TCAM rule budget from the controller's admission
/// config, connects rule telemetry, and attaches the engine as a traffic
/// observer. Returns the engine for introspection; it stays owned by the
/// system's observer list.
AutoMitigator& EnableAutoMitigation(core::StellarSystem& system, bgp::Asn member_asn,
                                    AutoMitigator::Config config = {});

}  // namespace stellar::detect
