#include "detect/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/journal.hpp"

namespace stellar::detect {

namespace {

/// Sketches are halved (exponential decay) every this many bins so stale
/// traffic cannot dominate a later synthesis.
constexpr std::size_t kDecayEveryBins = 6;
/// An idle victim's state is evicted after this long without traffic.
constexpr double kEvictIdleAfterS = 600.0;

}  // namespace

AutoMitigator::AutoMitigator(ixp::MemberRouter& member, const ixp::RouteServer& route_server,
                             Config config)
    : member_(member), route_server_(route_server), cfg_(std::move(config)) {}

void AutoMitigator::observe_bin(std::span<const net::FlowSample> delivered, double t_s,
                                double bin_s) {
  ++stats_.bins_observed;
  const net::Prefix4 space = member_.info().address_space;

  // Phase 1: fold the bin into per-victim accumulators and sketches.
  for (const auto& sample : delivered) {
    if (!space.contains(sample.key.dst_ip)) continue;
    const std::uint32_t dst = sample.key.dst_ip.value();
    auto it = victims_.find(dst);
    if (it == victims_.end()) {
      if (victims_.size() >= cfg_.max_tracked_victims) continue;
      it = victims_.emplace(dst, VictimState(cfg_)).first;
    }
    VictimState& v = it->second;
    v.bin_bytes += sample.bytes;
    v.last_traffic_s = t_s;
    if (sample.key.proto == net::IpProto::kUdp) {
      v.bin_udp_bytes += sample.bytes;
      v.udp_src_ports.add(sample.key.src_port, sample.bytes);
      v.entropy.add(sample.key.src_port, sample.bytes);
    } else if (sample.key.proto == net::IpProto::kTcp) {
      v.bin_tcp_bytes += sample.bytes;
    }
    v.cms.add(FlowAggregateKey(dst, static_cast<std::uint8_t>(sample.key.proto),
                               sample.key.src_port),
              sample.bytes);
  }

  // Phase 2: run every tracked victim's detector (zero-volume bins included —
  // a mitigated or ended attack must be able to clear), then act.
  const bool decay = ++bins_since_decay_ >= kDecayEveryBins;
  if (decay) bins_since_decay_ = 0;
  std::vector<std::uint32_t> evict;
  for (auto& [dst_bits, v] : victims_) {
    const net::IPv4Address dst(dst_bits);
    const double mbps = static_cast<double>(v.bin_bytes) * 8.0 / 1e6 / bin_s;
    const auto decision = v.detector.observe(t_s, mbps);

    if (decision.triggered_now) {
      const std::size_t budget =
          cfg_.tcam_budget_fn ? cfg_.tcam_budget_fn() : cfg_.synthesizer.max_rules;
      const TrafficProfile profile =
          build_profile(dst, v, decision.baseline_mbps, bin_s);
      const auto plan = RuleSynthesizer(cfg_.synthesizer).synthesize(profile, budget);
      if (plan.empty()) {
        ++stats_.empty_plans;
      } else {
        ++stats_.detections;
        stats_.last_detection_s = t_s;
        obs::journal().append(t_s, obs::EventKind::kDetectorTriggered, dst.str(),
                              "rules=" + std::to_string(plan.rules.size()));
        v.record = MitigationRecord{};
        v.record.triggered_at_s = t_s;
        v.record.rules = plan.rules;
        v.record.covered_share = plan.covered_share;
        v.record.fallback_proto = plan.fallback_proto;
        signal(dst, v, /*drop=*/cfg_.shape_rate_mbps <= 0.0, t_s);
      }
    } else if (v.record.phase == Phase::kShaping &&
               v.detector.state() == VolumeDetector::State::kTriggered &&
               t_s - v.record.shape_signaled_at_s >= cfg_.escalate_after_s) {
      // The attack survived the telemetry phase: escalate to drop, same rules.
      ++stats_.escalations;
      obs::journal().append(t_s, obs::EventKind::kMitigationEscalated, dst.str());
      signal(dst, v, /*drop=*/true, t_s);
    }

    // Withdrawal: rules stay while either the detector still sees the attack
    // in delivered traffic or the rule counters still match attack bytes.
    if (v.record.phase != Phase::kIdle && !decision.triggered_now) {
      const double matched = matched_rate_mbps(dst, v, bin_s);
      const bool quiet = v.detector.state() != VolumeDetector::State::kTriggered &&
                         matched < cfg_.matched_quiet_mbps;
      if (quiet) {
        if (v.quiet_since_s < 0.0) v.quiet_since_s = t_s;
        if (t_s - v.quiet_since_s >= cfg_.withdraw_quiet_s) {
          core::WithdrawAdvancedBlackholing(member_, net::Prefix4::HostRoute(dst));
          ++stats_.withdrawals;
          stats_.last_withdrawal_s = t_s;
          obs::journal().append(t_s, obs::EventKind::kDetectorCleared, dst.str(),
                                "quiet_s=" + std::to_string(t_s - v.quiet_since_s));
          obs::journal().append(t_s, obs::EventKind::kMitigationWithdrawn, dst.str());
          v.record = MitigationRecord{};
          v.last_matched.clear();
          v.quiet_since_s = -1.0;
        }
      } else {
        v.quiet_since_s = -1.0;
      }
    }

    // Bin bookkeeping: close the entropy bin, decay sketches, reset counters.
    v.entropy.rotate();
    if (decay) {
      v.udp_src_ports.halve();
      v.cms.halve();
    }
    v.bin_bytes = v.bin_udp_bytes = v.bin_tcp_bytes = 0;
    if (v.record.phase == Phase::kIdle &&
        t_s - v.last_traffic_s > kEvictIdleAfterS) {
      evict.push_back(dst_bits);
    }
  }
  for (const std::uint32_t dst : evict) victims_.erase(dst);
}

TrafficProfile AutoMitigator::build_profile(net::IPv4Address dst, const VictimState& v,
                                            double baseline_mbps, double bin_s) const {
  TrafficProfile profile;
  profile.victim = dst;
  profile.total_mbps = static_cast<double>(v.bin_bytes) * 8.0 / 1e6 / bin_s;
  profile.udp_mbps = static_cast<double>(v.bin_udp_bytes) * 8.0 / 1e6 / bin_s;
  profile.tcp_mbps = static_cast<double>(v.bin_tcp_bytes) * 8.0 / 1e6 / bin_s;
  profile.baseline_mbps = baseline_mbps;
  profile.udp_window_bytes = v.udp_src_ports.total();
  profile.udp_src_port_entropy = v.entropy.normalized();
  profile.udp_src_ports = v.udp_src_ports.top(v.udp_src_ports.size());
  // Tighten each space-saving upper bound with the count-min estimate: both
  // overestimate, so the minimum is still an upper bound on the true count.
  for (auto& entry : profile.udp_src_ports) {
    const std::uint64_t cms_est = v.cms.estimate(
        FlowAggregateKey(dst.value(), static_cast<std::uint8_t>(net::IpProto::kUdp),
                         static_cast<std::uint16_t>(entry.key)));
    entry.count = std::min(entry.count, cms_est);
  }
  std::sort(profile.udp_src_ports.begin(), profile.udp_src_ports.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  return profile;
}

void AutoMitigator::signal(net::IPv4Address dst, VictimState& v, bool drop, double t_s) {
  core::Signal sig;
  sig.rules = v.record.rules;
  if (!drop) sig.shape_rate_mbps = cfg_.shape_rate_mbps;
  core::SignalAdvancedBlackholing(member_, route_server_, net::Prefix4::HostRoute(dst), sig);
  ++stats_.signals_sent;
  stats_.rules_emitted += sig.rules.size();
  if (drop) {
    v.record.phase = Phase::kDropping;
    v.record.drop_signaled_at_s = t_s;
  } else {
    v.record.phase = Phase::kShaping;
    v.record.shape_signaled_at_s = t_s;
  }
  // Re-announcing replaces the installed rules: the old counters disappear,
  // so the delta baseline must restart.
  v.last_matched.clear();
  v.quiet_since_s = -1.0;
}

double AutoMitigator::matched_rate_mbps(net::IPv4Address dst, VictimState& v, double bin_s) {
  if (!cfg_.telemetry_fn) return 0.0;
  std::uint64_t delta = 0;
  std::unordered_map<std::string, std::uint64_t> seen;
  for (const auto& record : cfg_.telemetry_fn()) {
    const auto& match = record.rule.match;
    if (!match.dst_prefix || !match.dst_prefix->contains(dst)) continue;
    const std::uint64_t now = record.counters.matched_bytes;
    const auto it = v.last_matched.find(record.key);
    if (it != v.last_matched.end() && now >= it->second) delta += now - it->second;
    seen[record.key] = now;
  }
  v.last_matched = std::move(seen);
  return static_cast<double>(delta) * 8.0 / 1e6 / bin_s;
}

std::optional<AutoMitigator::MitigationRecord> AutoMitigator::mitigation(
    net::IPv4Address dst) const {
  const auto it = victims_.find(dst.value());
  if (it == victims_.end() || it->second.record.phase == Phase::kIdle) return std::nullopt;
  return it->second.record;
}

AutoMitigator& EnableAutoMitigation(core::StellarSystem& system, bgp::Asn member_asn,
                                    AutoMitigator::Config config) {
  ixp::MemberRouter* member = system.ixp().member(member_asn);
  if (member == nullptr) {
    throw std::invalid_argument("EnableAutoMitigation: unknown member ASN");
  }
  if (!config.tcam_budget_fn) {
    config.tcam_budget_fn = [&system, member_asn]() -> std::size_t {
      std::size_t used = 0;
      for (const auto& [key, change] : system.controller().desired()) {
        if (change.member == member_asn) ++used;
      }
      const int limit = system.controller().config().max_rules_per_port;
      return used >= static_cast<std::size_t>(limit)
                 ? 0
                 : static_cast<std::size_t>(limit) - used;
    };
  }
  if (!config.telemetry_fn) {
    config.telemetry_fn = [&system, member_asn]() {
      return system.telemetry(member_asn);
    };
  }
  auto engine = std::make_shared<AutoMitigator>(*member, system.ixp().route_server(),
                                                std::move(config));
  AutoMitigator& ref = *engine;
  system.attach_observer(std::move(engine));
  return ref;
}

}  // namespace stellar::detect
