// The three benchmark workloads. Each runs against a freshly set-up Rig,
// generates its inputs from `seed`, and sizes its work from `seconds` (a fixed
// amount per seed, so both commits of a comparison do identical work).
#pragma once

#include "rig.hpp"

namespace perfbench {

struct RunParams {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Closed-loop §6 mitigation at scale: 64 victims under amplification floods,
/// auto-detected and mitigated while background traffic crosses the fabric.
Outcome RunFlood(Rig& rig, const RunParams& params);

/// Fig 10b at L-IXP scale: an open-loop sim-clock trace of signal
/// announce/modify/withdraw ops from ~400 members through real BGP sessions.
Outcome RunSignalChurn(Rig& rig, const RunParams& params);

/// Route-server fan-out: one caller, each member update run to quiescence.
Outcome RunRouteChurn(Rig& rig, const RunParams& params);

}  // namespace perfbench
