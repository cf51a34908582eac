#include "rig.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "bgp/intern.hpp"

namespace perfbench {

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// -- Spans ------------------------------------------------------------------

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

int Spans::begin(std::string_view name, std::uint64_t op) {
  Record record;
  record.name = std::string(name);
  record.start_ms = MsSince(origin_);
  record.parent = stack_.empty() ? -1 : stack_.back();
  record.op = op;
  records_.push_back(std::move(record));
  const int index = static_cast<int>(records_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Spans::end(int index) {
  records_[static_cast<std::size_t>(index)].end_ms = MsSince(origin_);
  // Spans are strictly nested (RAII), so the closing span is on top.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const auto& record : records_) {
    if (record.parent >= 0) {
      child_ms[static_cast<std::size_t>(record.parent)] += record.end_ms - record.start_ms;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const double duration = records_[i].end_ms - records_[i].start_ms;
    Totals& totals = out[records_[i].name];
    totals.total_ms += duration;
    totals.self_ms += duration - child_ms[i];
    ++totals.count;
  }
  return out;
}

bool Spans::dump_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "index,name,start_ms,end_ms,parent,op\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    file << i << ',' << r.name << ',' << r.start_ms << ',' << r.end_ms << ',' << r.parent << ','
         << r.op << '\n';
  }
  return file.good();
}

// -- Metrics ----------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

// -- The platform under test ------------------------------------------------

namespace {

/// Times every compiler invocation; the span makes compiler work a child of
/// whichever sim.run slice drained the manager's queue.
class TimingCompiler final : public core::ConfigCompiler {
 public:
  TimingCompiler(core::ConfigCompiler& inner, CompilerTimes& times)
      : inner_(inner), times_(times) {}

  util::Result<void> apply(const core::ConfigChange& change) override {
    ScopedSpan span("core.compiler.apply");
    const auto t0 = Clock::now();
    auto result = inner_.apply(change);
    times_.apply_us += MsSince(t0) * 1e3;
    ++times_.calls;
    return result;
  }
  std::vector<util::Result<void>> apply_batch(
      const std::vector<core::ConfigChange>& changes) override {
    ScopedSpan span("core.compiler.apply");
    const auto t0 = Clock::now();
    auto results = inner_.apply_batch(changes);
    times_.apply_us += MsSince(t0) * 1e3;
    ++times_.calls;
    return results;
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  core::ConfigCompiler& inner_;
  CompilerTimes& times_;
};

}  // namespace

Rig::Rig(const Options& options) : hooks(options.hooks) {
  if (hooks) {
    LinkCounts* counts = &links;
    previous_hook_ = bgp::SetLinkHook(
        [counts](const std::shared_ptr<bgp::Endpoint>& a, const std::shared_ptr<bgp::Endpoint>& b) {
          auto count = [counts](std::vector<std::uint8_t>& bytes, sim::Duration&) {
            ++counts->msgs;
            counts->bytes += bytes.size();
            return true;
          };
          a->set_fault_filter(count);
          b->set_fault_filter(count);
        });
  }

  auto t0 = Clock::now();
  ixp::LargeIxpParams params;
  params.seed = options.seed;
  ixp = ixp::MakeLargeIxp(queue, params);
  make_ixp_s = MsSince(t0) / 1e3;

  t0 = Clock::now();
  core::StellarSystem::Config config;
  if (hooks) {
    CompilerTimes* times = &compiler_times;
    config.compiler_decorator = [times](core::ConfigCompiler& inner) {
      return std::unique_ptr<core::ConfigCompiler>(new TimingCompiler(inner, *times));
    };
  }
  stellar = std::make_unique<core::StellarSystem>(*ixp, config);
  ixp->settle(10.0);  // Controller session up, initial ADD-PATH sync done.
  stellar_s = MsSince(t0) / 1e3;
  msgs_setup = links.msgs;
  bytes_setup = links.bytes;
  intern_hits_setup = bgp::AttrPool::global().stats().hits;
  intern_misses_setup = bgp::AttrPool::global().stats().misses;
}

Rig::~Rig() {
  stellar.reset();
  ixp.reset();
  if (hooks) bgp::SetLinkHook(std::move(previous_hook_));
}

std::string Rig::rule_dump() const {
  std::string out;
  std::vector<std::string> keys = stellar->compiler().installed_keys();
  std::sort(keys.begin(), keys.end());
  for (const auto& key : keys) out += key + "\n";
  const filter::EdgeRouter& router = ixp->edge_router();
  std::vector<filter::PortId> ports = router.ports();
  std::sort(ports.begin(), ports.end());
  for (const filter::PortId port : ports) {
    std::vector<std::string> rules;
    for (const auto& installed : router.policy(port).rules()) rules.push_back(installed.rule.str());
    std::sort(rules.begin(), rules.end());
    for (const auto& rule : rules) out += "port" + std::to_string(port) + " " + rule + "\n";
  }
  return out;
}

bool Rig::converged(std::string& why) const {
  std::vector<std::string> installed = stellar->compiler().installed_keys();
  std::sort(installed.begin(), installed.end());
  std::vector<std::string> desired;
  for (const auto& [key, change] : stellar->controller().desired()) desired.push_back(key);
  bool ok = true;
  if (installed != desired) {
    why += "installed(" + std::to_string(installed.size()) + ") != desired(" +
           std::to_string(desired.size()) + "); ";
    ok = false;
  }
  if (!stellar->manager().dead_letter().empty()) {
    why += "dead-lettered " + std::to_string(stellar->manager().dead_letter().size()) + "; ";
    ok = false;
  }
  if (!stellar->manager().in_flight().empty()) {
    why += "in flight " + std::to_string(stellar->manager().in_flight().size()) + "; ";
    ok = false;
  }
  if (ixp->edge_router().tcam_release_errors() != 0) {
    why += "tcam release errors; ";
    ok = false;
  }
  return ok;
}

void ReportControlPlane(Rig& rig, std::uint64_t ops, Outcome& out) {
  const double base = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  auto& m = out.per_layer;
  const auto& controller = rig.stellar->controller().stats();
  const double epochs =
      static_cast<double>(controller.epochs_full + controller.epochs_incremental);
  m["core.controller.epochs_full"] = {static_cast<double>(controller.epochs_full), "count"};
  m["core.controller.epochs_incremental"] = {static_cast<double>(controller.epochs_incremental),
                                             "count"};
  m["core.controller.incremental_share"] = {
      epochs > 0 ? static_cast<double>(controller.epochs_incremental) / epochs : 0.0, "ratio"};
  m["core.controller.updates_processed"] = {static_cast<double>(controller.updates_processed),
                                            "count"};
  m["core.controller.installs_emitted"] = {static_cast<double>(controller.installs_emitted),
                                           "count"};
  m["core.controller.removals_emitted"] = {static_cast<double>(controller.removals_emitted),
                                           "count"};
  m["core.controller.admission_rejected"] = {static_cast<double>(controller.admission_rejected),
                                             "count"};
  m["core.controller.invalid_signals"] = {static_cast<double>(controller.invalid_signals),
                                          "count"};

  const auto& manager = rig.stellar->manager().stats();
  m["core.manager.applied"] = {static_cast<double>(manager.applied), "count"};
  m["core.manager.coalesced"] = {static_cast<double>(manager.coalesced), "count"};
  m["core.manager.dead_lettered"] = {static_cast<double>(manager.dead_lettered), "count"};
  const std::vector<double> waits(manager.waiting_times_s.begin(),
                                  manager.waiting_times_s.end());
  m["core.manager.wait_s_p50"] = {Quantile(waits, 0.50), "s"};
  m["core.manager.wait_s_p99"] = {Quantile(waits, 0.99), "s"};

  m["core.compiler.calls"] = {static_cast<double>(rig.compiler_times.calls), "count"};
  m["core.compiler.apply_us"] = {rig.compiler_times.apply_us, "us"};
  m["bgp.link.msgs_per_op"] = {static_cast<double>(rig.links.msgs - rig.msgs_setup) / base,
                               "count"};
  m["bgp.link.bytes_per_op"] = {static_cast<double>(rig.links.bytes - rig.bytes_setup) / base,
                                "B"};
  m["bgp.link.msgs_setup"] = {static_cast<double>(rig.msgs_setup), "count"};
  const auto& pool = bgp::AttrPool::global().stats();
  const auto hits = static_cast<double>(pool.hits - rig.intern_hits_setup);
  const double lookups = hits + static_cast<double>(pool.misses - rig.intern_misses_setup);
  m["bgp.intern.hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0, "ratio"};
  m["bgp.intern.lookups"] = {lookups, "count"};
  m["setup.make_ixp_s"] = {rig.make_ixp_s, "s"};
  m["setup.stellar_s"] = {rig.stellar_s, "s"};
}

void ReportHostTimes(const std::vector<double>& op_ms, const std::vector<double>& units,
                     Outcome& out) {
  constexpr std::size_t kWindows = 30;
  const std::size_t windows = std::clamp<std::size_t>(op_ms.size() / 100, 1, kWindows);
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = op_ms.size() * w / windows;
    const std::size_t hi = op_ms.size() * (w + 1) / windows;
    const std::vector<double> slice(op_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                                    op_ms.begin() + static_cast<std::ptrdiff_t>(hi));
    double ms = 0.0;
    double work = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      ms += op_ms[i];
      work += units[i];
    }
    if (ms > 0.0) rates.push_back(work / (ms / 1e3));
    p50s.push_back(Quantile(slice, 0.50));
    p90s.push_back(Quantile(slice, 0.90));
  }
  out.end_to_end["ops_per_s"] = {Quantile(rates, 0.75), "1/s"};
  out.end_to_end["op_ms_p50"] = {Quantile(p50s, 0.25), "ms"};
  out.end_to_end["op_ms_p90"] = {Quantile(p90s, 0.25), "ms"};
}

void ReportSpans(Outcome& out, const std::vector<std::string>& names) {
  const auto totals = Spans::global().totals();
  for (const auto& name : names) {
    const auto it = totals.find(name);
    out.per_layer[name + "_ms"] = {it == totals.end() ? 0.0 : it->second.self_ms, "ms"};
  }
}

}  // namespace perfbench
