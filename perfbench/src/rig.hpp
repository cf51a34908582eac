// Shared plumbing of the L-IXP benchmark: the 800-member platform under test
// (MakeLargeIxp + StellarSystem), the optional observation hooks (a counting
// BGP link filter and a timing compiler decorator), the benchmark's own span
// recorder, and the result/metric helpers every workload reports through.
//
// Everything here drives public APIs only; nothing reaches into src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/session.hpp"
#include "core/stellar.hpp"
#include "ixp/ixp.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using namespace stellar;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double MsSince(Clock::time_point t0);

// -- Spans ------------------------------------------------------------------

/// In-memory span log of the traced run: one record per layer call the
/// benchmark wraps (name, start, end, parent span, op id). Disabled in
/// end-to-end runs, where begin() is a single branch.
class Spans {
 public:
  struct Record {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
  };
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< Duration minus the part child spans cover.
    std::uint64_t count = 0;
  };

  static Spans& global();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(std::string_view name, std::uint64_t op);
  void end(int index);

  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// CSV dump: index,name,start_ms,end_ms,parent,op.
  bool dump_csv(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::uint64_t op = 0)
      : index_(Spans::global().enabled() ? Spans::global().begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Spans::global().end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// -- Metrics ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< First few failure descriptions.
  /// Host-time end-to-end metrics (ops_per_s, op_ms_p50, op_ms_p90).
  std::map<std::string, Metric> end_to_end;
  /// Per-layer metrics (counts, sim-clock latencies, traced timings).
  std::map<std::string, Metric> per_layer;
  /// Sim-clock results that must reproduce exactly per seed.
  std::map<std::string, double> sim_clock;
  /// Byte-exact dump of the final state (rule set, RIB digest).
  std::string dump;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] std::uint64_t Fnv1a(std::string_view bytes);

// -- The platform under test ------------------------------------------------

struct LinkCounts {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

struct CompilerTimes {
  std::uint64_t calls = 0;
  double apply_us = 0.0;
};

/// One 800-member L-IXP with Stellar deployed on it. With `hooks`, every BGP
/// link gets a counting fault filter that always passes the message, and the
/// QoS compiler is wrapped in a timing decorator; neither changes behaviour
/// (`run.py --selfcheck` proves the dumps and sim-clock results identical).
class Rig {
 public:
  struct Options {
    std::uint64_t seed = 1;
    bool hooks = false;
  };

  explicit Rig(const Options& options);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Counters first: hooks installed on links and the compiler point here.
  LinkCounts links;
  CompilerTimes compiler_times;
  sim::EventQueue queue;
  std::unique_ptr<ixp::Ixp> ixp;
  std::unique_ptr<core::StellarSystem> stellar;

  double make_ixp_s = 0.0;
  double stellar_s = 0.0;
  std::uint64_t msgs_setup = 0;
  std::uint64_t bytes_setup = 0;
  /// Intern-pool counters when set-up finished (workload deltas start here).
  std::uint64_t intern_hits_setup = 0;
  std::uint64_t intern_misses_setup = 0;
  bool hooks = false;

  /// Data-plane rule set: installed change keys and every per-port rule.
  [[nodiscard]] std::string rule_dump() const;
  /// Installed keys == controller desired keys, nothing dead-lettered or in
  /// flight, no TCAM accounting errors. Appends a reason to `why` if not.
  [[nodiscard]] bool converged(std::string& why) const;

 private:
  bgp::LinkHook previous_hook_;
};

/// Reads the shared layer counters (controller, manager, intern pool, link
/// hook) into `out.per_layer`; `ops` is the base of the per-op ratios.
void ReportControlPlane(Rig& rig, std::uint64_t ops, Outcome& out);


/// Adds the self time of each named span as `<name>_ms` to `out.per_layer`.
void ReportSpans(Outcome& out, const std::vector<std::string>& names);

/// Sets the host-time end-to-end metrics from per-op host times. `units` is
/// the work each op did (flows for a bin; 1 otherwise). The ops are cut into
/// contiguous windows of equal op count (at most 30, at least 100 ops each,
/// so a window p90 has ten ops beyond it), and each metric reads the fastest
/// quarter of windows: interference from other tenants of a shared host only
/// ever adds time, so the fast windows are the reproducible ones.
///   ops_per_s = 75th percentile of window (units / host seconds),
///   op_ms_p50 / op_ms_p90 = 25th percentile of the window medians / p90s.
void ReportHostTimes(const std::vector<double>& op_ms, const std::vector<double>& units,
                     Outcome& out);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double PeakRssMb();

}  // namespace perfbench
