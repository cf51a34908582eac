// Differential test: lazy session upkeep against the keepalive and hold
// timers it stands for. One seeded script runs twice over kPairs session
// pairs: on clean links, where Established pairs keep their links alive
// lazily, and with a pass-through fault filter on every link, which keeps the
// timers and KEEPALIVE frames. After every step both runs must agree on the
// (time, what) log of every callback that is not upkeep (state changes,
// UPDATEs, ROUTE-REFRESHes), and on each session's keepalives_received() and
// updates_received() and each endpoint's Stats. The log is compared with the
// lines of each instant sorted: the tie rule in bgp/session.hpp lets
// made-real upkeep run elsewhere among the events of its instant, never at
// another instant and never with another outcome (the counters and states
// after every step are compared as they are). UpkeepTieRuleTest pins where
// the rule and the timers part.
//
// Steps run at the top level after run_until(), on a grid of exact binary
// fractions; keepalive intervals are whole seconds, so keepalives fall due and
// arrive exactly when a step sends, stops, closes or destroys on the same
// session. The filtered run counts those instants and the test requires
// them. Steps: UPDATE and ROUTE-REFRESH from either side, idle stretches of
// many hold periods, stop() and Endpoint::close() from either side, garbage
// and partial messages, a Session destroyed without closing its transport,
// fresh pairs (each refusing a fault filter once its first OPEN is out), and
// ReconnectingSession re-dials (unjittered, so their backoffs land on the
// grid too).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bgp/reconnect.hpp"
#include "bgp/session.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace stellar::bgp {
namespace {

constexpr int kPairs = 12;
constexpr int kReconnecting = 3;  ///< Pairs [0, kReconnecting) dial through a ReconnectingSession.
constexpr int kSteps = 300;
constexpr std::array<double, 7> kStepGrid = {0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 3.0};
constexpr std::array<double, 4> kIdleGrid = {30.0, 45.0, 90.0, 120.0};
constexpr std::array<std::uint16_t, 5> kHoldGrid = {0, 3, 6, 9, 12};
constexpr std::array<double, 4> kLatencyGrid = {0.125, 0.25, 0.5, 1.0};

std::vector<std::uint8_t> KeepaliveBytes() { return Encode(KeepaliveMessage{}); }

/// Where and when the filtered run sent each link's latest KEEPALIVE.
struct KeepaliveTaps {
  std::map<const Endpoint*, double> last_sent;
};

/// The filtered run: every link gets a pass-through filter that notes when
/// each end sends a KEEPALIVE.
class FilterEveryLink {
 public:
  FilterEveryLink(sim::EventQueue& queue, KeepaliveTaps& taps) {
    previous_ = SetLinkHook([&queue, &taps](const std::shared_ptr<Endpoint>& a,
                                            const std::shared_ptr<Endpoint>& b) {
      const auto tap = [&queue, &taps](const std::shared_ptr<Endpoint>& end) {
        end->set_fault_filter(
            [&queue, &taps, key = end.get()](std::vector<std::uint8_t>& bytes, sim::Duration&) {
              if (bytes == KeepaliveBytes()) taps.last_sent[key] = queue.now().count();
              return true;
            });
      };
      tap(a);
      tap(b);
    });
  }
  ~FilterEveryLink() { SetLinkHook(std::move(previous_)); }
  FilterEveryLink(const FilterEveryLink&) = delete;
  FilterEveryLink& operator=(const FilterEveryLink&) = delete;

 private:
  LinkHook previous_;
};

struct Pair {
  SessionConfig config[2];
  sim::Duration latency{0.0};
  std::shared_ptr<Endpoint> ends[2];
  std::unique_ptr<Session> sessions[2];       ///< Side 0 is null on a dialer pair.
  std::unique_ptr<ReconnectingSession> dialer;  ///< Owns side 0 of a dialer pair.
};

struct Outcome {
  std::vector<std::string> steps;  ///< Per step: the callback log, then every counter.
  int due_ties = 0;      ///< Steps acting on a session as its keepalive fell due.
  int arrival_ties = 0;  ///< Steps acting on a session as a keepalive reached it.
};

class Script {
 public:
  Script(std::uint64_t seed, bool filtered) : rng_(seed), filtered_(filtered) {}

  Outcome run() {
    std::unique_ptr<FilterEveryLink> filters;
    if (filtered_) filters = std::make_unique<FilterEveryLink>(queue_, taps_);
    for (int p = 0; p < kPairs; ++p) fresh(p);
    for (int step = 0; step < kSteps; ++step) {
      queue_.run_until(queue_.now() + sim::Seconds(pick(kStepGrid)));
      act(static_cast<int>(rng_.uniform_int(0, kPairs - 1)),
          static_cast<int>(rng_.uniform_int(0, 1)));
      record_step();
    }
    // Finale: every b side dies silently, and the survivors' hold timers
    // must expire as with the timers running.
    for (int p = 0; p < kPairs; ++p) {
      note_ties(p, 1);
      pairs_[static_cast<std::size_t>(p)].sessions[1].reset();
    }
    record_step();
    queue_.run_until(queue_.now() + sim::Seconds(300.0));
    record_step();
    pairs_ = {};  // Sessions die while the link hook and the taps are alive.
    return std::move(out_);
  }

 private:
  template <typename T, std::size_t N>
  T pick(const std::array<T, N>& grid) {
    return grid[static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(N) - 1))];
  }

  Session* session(int p, int side) {
    Pair& pair = pairs_[static_cast<std::size_t>(p)];
    if (side == 0 && pair.dialer) return pair.dialer->session();
    return pair.sessions[side].get();
  }

  void log(int p, int side, const std::string& what) {
    log_ += "t=" + std::to_string(queue_.now().count()) + " p" + std::to_string(p) +
            (side == 0 ? "a " : "b ") + what + "\n";
  }

  /// Session on `side` of pair `p` over `end`, logging its callbacks.
  std::unique_ptr<Session> make_session(int p, int side, std::shared_ptr<Endpoint> end) {
    auto s = std::make_unique<Session>(queue_, std::move(end),
                                       pairs_[static_cast<std::size_t>(p)].config[side]);
    attach(*s, p, side);
    return s;
  }
  void attach(Session& s, int p, int side) {
    s.set_state_handler(
        [this, p, side](SessionState st) { log(p, side, std::string(ToString(st))); });
    s.set_update_handler([this, p, side](const UpdateMessage& u) {
      log(p, side, "update " + u.announced.front().prefix.str());
    });
    s.set_refresh_handler([this, p, side](const RouteRefreshMessage& m) {
      log(p, side, "refresh afi=" + std::to_string(m.afi));
    });
  }

  /// Replaces pair `p` by a new one: new link, new sessions, both started.
  void fresh(int p) {
    Pair& pair = pairs_[static_cast<std::size_t>(p)];
    pair.dialer.reset();
    pair.sessions[0].reset();
    pair.sessions[1].reset();
    for (int side = 0; side < 2; ++side) {
      pair.config[side].local_asn = static_cast<Asn>(65000 + 2 * p + side);
      pair.config[side].router_id = net::IPv4Address(10, 0, static_cast<std::uint8_t>(p),
                                                     static_cast<std::uint8_t>(side + 1));
      pair.config[side].hold_time_s = pick(kHoldGrid);
    }
    pair.latency = sim::Seconds(pick(kLatencyGrid));
    const auto dial = [this, p] {
      Pair& pair = pairs_[static_cast<std::size_t>(p)];
      auto [a, b] = MakeLink(queue_, pair.latency);
      pair.ends[0] = a;
      pair.ends[1] = b;
      pair.sessions[1] = make_session(p, 1, b);
      pair.sessions[1]->start();
      // The OPEN is out: too late for a filter to decide the link's upkeep.
      const auto pass = [](std::vector<std::uint8_t>&, sim::Duration&) { return true; };
      EXPECT_THROW(a->set_fault_filter(pass), std::logic_error);
      return a;
    };
    if (p < kReconnecting) {
      ReconnectPolicy policy;
      policy.jitter_frac = 0.0;
      policy.seed = static_cast<std::uint64_t>(p) + 1;
      pair.dialer = std::make_unique<ReconnectingSession>(queue_, dial, pair.config[0], policy);
      pair.dialer->set_state_handler(
          [this, p](SessionState st) { log(p, 0, std::string(ToString(st))); });
      pair.dialer->set_update_handler([this, p](const UpdateMessage& u) {
        log(p, 0, "update " + u.announced.front().prefix.str());
      });
      pair.dialer->set_refresh_handler([this, p](const RouteRefreshMessage& m) {
        log(p, 0, "refresh afi=" + std::to_string(m.afi));
      });
      pair.dialer->start();
    } else {
      const std::shared_ptr<Endpoint> a = dial();
      pair.sessions[0] = make_session(p, 0, a);
      pair.sessions[0]->start();
    }
  }

  /// Counts the steps that land on a keepalive instant of the session acted on.
  void note_ties(int p, int side) {
    if (!filtered_) return;
    const Pair& pair = pairs_[static_cast<std::size_t>(p)];
    const double now = queue_.now().count();
    const auto sent = [this](const std::shared_ptr<Endpoint>& end, double at) {
      const auto it = taps_.last_sent.find(end.get());
      return it != taps_.last_sent.end() && it->second == at;
    };
    if (sent(pair.ends[side], now)) ++out_.due_ties;
    if (sent(pair.ends[1 - side], (queue_.now() - pair.latency).count())) ++out_.arrival_ties;
  }

  void act(int p, int side) {
    Pair& pair = pairs_[static_cast<std::size_t>(p)];
    Session* s = session(p, side);
    const std::int64_t what = rng_.uniform_int(0, 19);
    if (what == 19) return fresh(p);
    if (what == 18) return queue_.run_until(queue_.now() + sim::Seconds(pick(kIdleGrid)));
    if (s == nullptr) return;
    note_ties(p, side);
    if (what < 10) {
      UpdateMessage u;
      u.attrs.origin = Origin::kIgp;
      u.attrs.as_path = {{AsPathSegment::Type::kSequence, {s->local_asn()}}};
      u.attrs.next_hop = net::IPv4Address(10, 0, static_cast<std::uint8_t>(p),
                                          static_cast<std::uint8_t>(side + 1));
      const net::IPv4Address base(60, static_cast<std::uint8_t>(p),
                                  static_cast<std::uint8_t>(next_prefix_++), 0);
      u.announced = {{0, net::Prefix4(base, 24)}};
      s->announce(std::move(u));
    } else if (what < 12) {
      s->request_route_refresh(rng_.chance(0.5) ? kAfiIPv4 : kAfiIPv6);
    } else if (what < 14) {
      if (side == 0 && pair.dialer && rng_.chance(0.5)) {
        pair.dialer->stop();
      } else {
        s->stop();
      }
    } else if (what < 15) {
      pair.ends[side]->close();
    } else if (what < 16) {
      pair.ends[side]->send(std::vector<std::uint8_t>(32, 0x00));  // Bad marker.
    } else if (what < 17) {
      const std::vector<std::uint8_t> keepalive = KeepaliveBytes();
      pair.ends[side]->send(std::vector<std::uint8_t>(keepalive.begin(), keepalive.begin() + 10));
    } else if (side == 0 && pair.dialer) {
      pair.dialer.reset();  // A silent death: the Session goes, its transport stays open.
    } else {
      pair.sessions[side].reset();
    }
  }

  /// The step's callback log with each instant's lines sorted: made-real
  /// upkeep may run in a different place among the events of its instant
  /// (see the tie rule in bgp/session.hpp), never at another instant.
  std::string take_log() {
    std::vector<std::string> lines;
    for (std::size_t at = 0; at < log_.size();) {
      const std::size_t end = log_.find('\n', at);
      lines.push_back(log_.substr(at, end + 1 - at));
      at = end + 1;
    }
    log_.clear();
    const auto instant = [](const std::string& line) { return line.substr(0, line.find(' ')); };
    std::string out;
    for (std::size_t i = 0; i < lines.size();) {
      std::size_t j = i;
      while (j < lines.size() && instant(lines[j]) == instant(lines[i])) ++j;
      std::sort(lines.begin() + static_cast<std::ptrdiff_t>(i),
                lines.begin() + static_cast<std::ptrdiff_t>(j));
      for (; i < j; ++i) out += lines[i];
    }
    return out;
  }

  void record_step() {
    std::string line = take_log();
    line += "now=" + std::to_string(queue_.now().count()) + "\n";
    for (int p = 0; p < kPairs; ++p) {
      const Pair& pair = pairs_[static_cast<std::size_t>(p)];
      line += "p" + std::to_string(p);
      for (int side = 0; side < 2; ++side) {
        const Session* s = session(p, side);
        if (s == nullptr) {
          line += " -";
        } else {
          line += std::string(" ") + std::string(ToString(s->state())) +
                  " ka=" + std::to_string(s->keepalives_received()) +
                  " up=" + std::to_string(s->updates_received()) + "/" +
                  std::to_string(s->updates_sent());
        }
        if (pair.ends[side]) {
          const Endpoint::Stats& st = pair.ends[side]->stats();
          line += " sac=" + std::to_string(st.sends_after_close) +
                  " drop=" + std::to_string(st.dropped_bytes);
        }
      }
      if (pair.dialer) {
        const ReconnectingSession::Stats& st = pair.dialer->stats();
        line += " dials=" + std::to_string(st.dial_attempts) +
                " flaps=" + std::to_string(st.flaps) +
                " reconnects=" + std::to_string(st.reconnects);
      }
      line += "\n";
    }
    out_.steps.push_back(std::move(line));
  }

  sim::EventQueue queue_;
  util::Rng rng_;
  bool filtered_;
  KeepaliveTaps taps_;
  std::array<Pair, kPairs> pairs_;
  std::string log_;
  int next_prefix_ = 0;
  Outcome out_;
};

class UpkeepDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpkeepDiffTest, CleanLinksMatchTheTimers) {
  const Outcome timers = Script(GetParam(), true).run();
  const Outcome lazy = Script(GetParam(), false).run();
  ASSERT_EQ(lazy.steps.size(), timers.steps.size());
  for (std::size_t i = 0; i < timers.steps.size(); ++i) {
    ASSERT_EQ(lazy.steps[i], timers.steps[i]) << "first difference after step " << i;
  }
  // The script lands on the instants where order could matter.
  EXPECT_GE(timers.due_ties, 1);
  EXPECT_GE(timers.arrival_ties, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpkeepDiffTest, ::testing::Range<std::uint64_t>(1, 17));

// ---- The tie rule: pinned where the two kinds of link differ ----

/// A hold-9 pair on a link of 0.25 s, started at 0: both Established at 0.5,
/// keepalives due at 3.5, 6.5, ... and arriving 0.25 s later.
struct TiePair {
  sim::EventQueue queue;
  KeepaliveTaps taps;
  std::unique_ptr<Session> a;
  std::unique_ptr<Session> b;

  explicit TiePair(bool filtered) {
    std::unique_ptr<FilterEveryLink> filters;
    if (filtered) filters = std::make_unique<FilterEveryLink>(queue, taps);
    auto [ea, eb] = MakeLink(queue, sim::Seconds(0.25));
    SessionConfig ca;
    ca.local_asn = 65001;
    ca.hold_time_s = 9;
    SessionConfig cb = ca;
    cb.local_asn = 65002;
    a = std::make_unique<Session>(queue, ea, ca);
    b = std::make_unique<Session>(queue, eb, cb);
    a->start();
    b->start();
  }
};

TEST(UpkeepTieRuleTest, AKeepaliveArrivingNowCountsForAnEventQueuedLongBefore) {
  // An event queued at 0 for 3.75, the instant b's first keepalive reaches a.
  // The timers run it before that delivery (queued at 3.5); lazily, the
  // keepalive due now has already arrived.
  std::uint64_t seen[2] = {0, 0};
  for (const bool filtered : {true, false}) {
    TiePair pair(filtered);
    pair.queue.schedule_at(sim::Seconds(3.75),
                           [&] { seen[filtered ? 0 : 1] = pair.a->keepalives_received(); });
    pair.queue.run_until(sim::Seconds(4.0));
    EXPECT_EQ(pair.a->keepalives_received(), 2u);  // Handshake plus one, either way.
  }
  EXPECT_EQ(seen[0], 1u);  // Timers.
  EXPECT_EQ(seen[1], 2u);  // Lazy.
}

TEST(UpkeepTieRuleTest, AKeepaliveDueNowGoesOutBeforeAStopQueuedLongBefore) {
  // a's stop() is queued at 0 for 3.5, the instant a's first keepalive falls
  // due. The timers run the stop first (its key is older than the timer's),
  // so no keepalive leaves; lazily the keepalive due now goes out first, and
  // reaches b before the NOTIFICATION.
  std::uint64_t received[2] = {0, 0};
  for (const bool filtered : {true, false}) {
    TiePair pair(filtered);
    pair.queue.schedule_at(sim::Seconds(3.5), [&] { pair.a->stop(); });
    pair.queue.run_until(sim::Seconds(10.0));
    EXPECT_EQ(pair.b->state(), SessionState::kClosed);
    received[filtered ? 0 : 1] = pair.b->keepalives_received();
  }
  EXPECT_EQ(received[0], 1u);  // Timers: the handshake only.
  EXPECT_EQ(received[1], 2u);  // Lazy: the keepalive due at 3.5 as well.
}

TEST(UpkeepTieRuleTest, AHoldTimerMadeRealRunsAfterEventsQueuedBefore) {
  // b's first keepalive reaches a at 3.75, so a's hold timer is due at 12.75.
  // An event for 12.75 is queued at 4; b dies silently at 5. The timers armed
  // a's hold timer at 3.75 and expire it before that event; lazily it is
  // made real at 5, behind the event.
  SessionState seen[2] = {SessionState::kIdle, SessionState::kIdle};
  for (const bool filtered : {true, false}) {
    TiePair pair(filtered);
    pair.queue.run_until(sim::Seconds(4.0));
    pair.queue.schedule_at(sim::Seconds(12.75), [&] { seen[filtered ? 0 : 1] = pair.a->state(); });
    pair.queue.run_until(sim::Seconds(5.0));
    pair.b.reset();
    pair.queue.run_until(sim::Seconds(13.0));
    EXPECT_EQ(pair.a->state(), SessionState::kClosed);
  }
  EXPECT_EQ(seen[0], SessionState::kClosed);       // Timers.
  EXPECT_EQ(seen[1], SessionState::kEstablished);  // Lazy.
}

TEST(UpkeepTieRuleTest, FaultFilterAfterTheFirstSendIsRefused) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  ea->send(KeepaliveBytes());
  const auto pass = [](std::vector<std::uint8_t>&, sim::Duration&) { return true; };
  EXPECT_THROW(eb->set_fault_filter(pass), std::logic_error);
  EXPECT_THROW(ea->set_fault_filter(pass), std::logic_error);
}

}  // namespace
}  // namespace stellar::bgp
