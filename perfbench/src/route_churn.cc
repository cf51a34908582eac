// route_churn: route-server fan-out under member routing churn.
//
// Closed loop, one caller: each member update runs the simulation 50 ms past
// the update (two 1 ms link hops: member -> route server -> 799 peers) before
// the next one starts. The mix is /24 more-specifics announced and withdrawn
// inside members' /20s, classic RTBH /32s, a small share of IRR-invalid
// announcements the route server must reject, and occasional ROUTE-REFRESH
// full-table reads (MemberRouter::update_policy with the unchanged policy).
//
// Check after every update: each member's RIB holds exactly what its import
// policy admits (size bookkeeping for all 800 members, plus presence of the
// touched prefix at every peer); invalid announcements reach nobody and bump
// the route server's reject count by one.
#include <algorithm>
#include <set>

#include "bgp/types.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Route updates per second of --seconds (calibrated on a 4-core x86 VM).
constexpr double kUpdatesPerSecond = 100.0;
constexpr double kQuiescenceS = 0.05;
constexpr std::size_t kMaxLive = 256;

struct RouteOp {
  enum class Kind { kAnnounce24, kRtbh32, kWithdraw, kInvalid, kRefresh } kind = Kind::kAnnounce24;
  int member = 0;
  net::Prefix4 prefix;
  bool rtbh = false;  ///< For withdraws: the withdrawn route was an RTBH /32.
};

net::Prefix4 Slice(const net::Prefix4& space, std::uint32_t offset, int length) {
  return net::Prefix4(net::IPv4Address(space.address().value() + offset), length);
}

/// The whole update sequence, generated before anything is timed.
std::vector<RouteOp> MakeOps(const std::vector<std::unique_ptr<ixp::MemberRouter>>& members,
                             std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const int n = static_cast<int>(members.size());
  std::vector<RouteOp> ops;
  std::vector<RouteOp> live;  // Announced, not yet withdrawn.
  std::set<net::Prefix4> used;
  auto fresh = [&](int member, int length) {
    const net::Prefix4& space = members[static_cast<std::size_t>(member)]->info().address_space;
    for (;;) {
      const std::uint32_t host_bits = 32u - static_cast<std::uint32_t>(space.length());
      const auto offset = static_cast<std::uint32_t>(rng.uniform_int(0, (1 << host_bits) - 1));
      const std::uint32_t mask = length == 32 ? ~0u : ~((1u << (32 - length)) - 1);
      const net::Prefix4 prefix = Slice(space, offset & mask & ((1u << host_bits) - 1), length);
      if (used.insert(prefix).second) return prefix;
    }
  };
  while (ops.size() < count) {
    const double draw = rng.uniform();
    RouteOp op;
    op.member = static_cast<int>(rng.uniform_int(0, n - 1));
    if ((draw < 0.35 && live.size() < kMaxLive) || live.empty()) {
      op.kind = RouteOp::Kind::kAnnounce24;
      op.prefix = fresh(op.member, 24);
      live.push_back(op);
    } else if (draw < 0.47 && live.size() < kMaxLive) {
      op.kind = RouteOp::Kind::kRtbh32;
      op.prefix = fresh(op.member, 32);
      op.rtbh = true;
      live.push_back(op);
    } else if (draw < 0.92) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      op = live[pick];
      op.kind = RouteOp::Kind::kWithdraw;
      live[pick] = live.back();
      live.pop_back();
    } else if (draw < 0.97) {
      // A /24 inside another member's /20: IRR-unauthorized for `member`.
      op.kind = RouteOp::Kind::kInvalid;
      const int owner = (op.member + 1 + static_cast<int>(rng.uniform_int(0, n - 2))) % n;
      op.prefix = fresh(owner, 24);
    } else {
      op.kind = RouteOp::Kind::kRefresh;
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace

Outcome RunRouteChurn(Rig& rig, const RunParams& params) {
  Outcome out;
  ixp::Ixp& ixp = *rig.ixp;
  const auto& members = ixp.members();
  const auto ops = MakeOps(members, params.seed,
                           static_cast<std::size_t>(kUpdatesPerSecond * params.seconds));

  std::vector<std::size_t> expected;
  std::size_t baseline_routes = 0;
  for (const auto& member : members) {
    expected.push_back(member->rib().size());
    baseline_routes += member->rib().size();
  }

  std::vector<double> op_ms;
  op_ms.reserve(ops.size());
  double announce_us = 0.0;
  std::uint64_t announce_calls = 0;
  double refresh_ms = 0.0;
  const std::uint64_t rejects_before = ixp.route_server().rejects().total();

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RouteOp& op = ops[i];
    ixp::MemberRouter& member = *members[static_cast<std::size_t>(op.member)];
    const std::uint64_t rejects0 = ixp.route_server().rejects().total();
    const auto t0 = Clock::now();
    {
      ScopedSpan span("route.op", i);
      {
        ScopedSpan call(op.kind == RouteOp::Kind::kRefresh ? "ixp.member.refresh"
                                                           : "ixp.member.announce",
                        i);
        const auto c0 = Clock::now();
        switch (op.kind) {
          case RouteOp::Kind::kAnnounce24:
          case RouteOp::Kind::kInvalid:
            member.announce(op.prefix);
            break;
          case RouteOp::Kind::kRtbh32:
            member.announce(op.prefix, {bgp::kBlackhole});
            break;
          case RouteOp::Kind::kWithdraw:
            member.withdraw(op.prefix);
            break;
          case RouteOp::Kind::kRefresh:
            member.update_policy(member.info().policy);
            break;
        }
        if (op.kind != RouteOp::Kind::kRefresh) {
          announce_us += MsSince(c0) * 1e3;
          ++announce_calls;
        }
      }
      ScopedSpan run("sim.run", i);
      rig.queue.run_until(rig.queue.now() + sim::Seconds(kQuiescenceS));
    }
    const double ms = MsSince(t0);
    op_ms.push_back(ms);
    if (op.kind == RouteOp::Kind::kRefresh) refresh_ms += ms;
    ++out.attempted;

    // -- Check (untimed) ---------------------------------------------------
    std::string why;
    const std::uint64_t rejected = ixp.route_server().rejects().total() - rejects0;
    if (op.kind == RouteOp::Kind::kInvalid) {
      if (rejected != 1) why += "invalid announcement not rejected; ";
    } else if (rejected != 0) {
      why += "valid update rejected; ";
    }
    if (op.kind != RouteOp::Kind::kRefresh) {
      for (std::size_t m = 0; m < members.size(); ++m) {
        if (static_cast<int>(m) == op.member) continue;
        const ixp::MemberRouter& peer = *members[m];
        bool want = false;
        bool want_blackhole = false;
        switch (op.kind) {
          case RouteOp::Kind::kAnnounce24:
            want = true;
            break;
          case RouteOp::Kind::kRtbh32:
            want = peer.info().policy.accepts_more_specifics;
            want_blackhole = peer.info().policy.honors_rtbh();
            break;
          default:
            break;
        }
        const bool had = peer.rib().best(op.prefix).has_value();
        if (op.kind == RouteOp::Kind::kWithdraw) {
          // The withdrawn route was present exactly where it was admitted.
          if (!op.rtbh || peer.info().policy.accepts_more_specifics) --expected[m];
        } else if (want) {
          ++expected[m];
        }
        if (had != want || peer.blackholed_prefixes().contains(op.prefix) != want_blackhole) {
          why += "member " + std::to_string(peer.info().asn) + " disagrees on " +
                 op.prefix.str() + "; ";
          break;
        }
      }
    }
    for (std::size_t m = 0; m < members.size() && why.empty(); ++m) {
      if (members[m]->rib().size() != expected[m]) {
        why += "member " + std::to_string(members[m]->info().asn) + " RIB holds " +
               std::to_string(members[m]->rib().size()) + " routes, policy admits " +
               std::to_string(expected[m]) + "; ";
      }
    }
    if (!why.empty()) {
      out.fail("update " + std::to_string(i) + ": " + why);
      // Resynchronize the bookkeeping so one failure is counted once.
      for (std::size_t m = 0; m < members.size(); ++m) expected[m] = members[m]->rib().size();
    }
  }

  std::size_t rib_routes = 0;
  for (const auto& member : members) rib_routes += member->rib().size();

  // Cleanup (untimed): withdraw everything still live so the final state must
  // equal the post-setup baseline for every seed.
  std::set<net::Prefix4> withdrawn;
  for (const RouteOp& op : ops) {
    if (op.kind == RouteOp::Kind::kWithdraw) withdrawn.insert(op.prefix);
  }
  for (const RouteOp& op : ops) {
    if ((op.kind == RouteOp::Kind::kAnnounce24 || op.kind == RouteOp::Kind::kRtbh32) &&
        !withdrawn.contains(op.prefix)) {
      members[static_cast<std::size_t>(op.member)]->withdraw(op.prefix);
    }
    if (op.kind == RouteOp::Kind::kInvalid) {
      members[static_cast<std::size_t>(op.member)]->withdraw(op.prefix);
    }
  }
  rig.queue.run_until(rig.queue.now() + sim::Seconds(2.0));
  std::size_t final_routes = 0;
  for (const auto& member : members) {
    final_routes += member->rib().size();
    out.dump += std::to_string(member->rib().size()) + " " +
                std::to_string(member->blackholed_prefixes().size()) + "\n";
  }
  out.dump += "rs " + std::to_string(ixp.route_server().adj_rib_in().size()) + "\n";
  out.dump += rig.rule_dump();
  if (final_routes != baseline_routes) {
    out.fail("cleanup left " + std::to_string(final_routes) + " routes, baseline " +
             std::to_string(baseline_routes));
  }
  std::string why;
  if (!rig.converged(why)) out.fail("control plane not converged: " + why);

  ReportHostTimes(op_ms, std::vector<double>(op_ms.size(), 1.0), out);

  auto& m = out.per_layer;
  m["ixp.member.announce_us"] = {
      announce_calls ? announce_us / static_cast<double>(announce_calls) : 0.0, "us"};
  m["ixp.route_server.refresh_ms"] = {refresh_ms, "ms"};
  m["ixp.route_server.rejects"] = {
      static_cast<double>(ixp.route_server().rejects().total() - rejects_before), "count"};
  m["ixp.member.rib_routes"] = {static_cast<double>(rib_routes), "count"};
  ReportControlPlane(rig, ops.size(), out);
  ReportSpans(out, {"sim.run"});
  return out;
}

}  // namespace perfbench
