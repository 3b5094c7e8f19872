// front_contended: four threads calling ConcurrentBrokerFront::
// request_service / release_service on Figure-8 setting B (mixed C̸SVC /
// VT-EDF), with capacity scaled so a churning population of thousands of
// the paper's Table-1 flows lives on the shared core. Every request takes
// the §3.2 Figure-4 scan and the front's OCC; qosbbd cannot serve this
// topology, so this is the only workload where those do the work.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/oracle.h"
#include "layers.h"
#include "pb.h"
#include "topo/fig8.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace qosbb;

constexpr int kThreads = 4;
// The paper's Figure-8 links (1.5 Mb/s) scaled 100 times, so thousands of
// Table-1 flows live on the shared core.
constexpr double kCapacity = 100 * 1.5e6;
constexpr long kLifetime = 1150;  ///< offered load about 1.1x the core
constexpr int kOracleSample = 200;

/// The paper's Table 1: four traffic types (bits, b/s; packets 1500 B),
/// each with a loose and a tight end-to-end delay bound. A request draws a
/// type, a column and a path (S1 has 2 VT-EDF hops, S2 has 3).
struct FlowType {
  double sigma, rho, peak, loose, tight;
};
constexpr FlowType kTable1[] = {
    {60000.0, 50000.0, 100000.0, 2.44, 2.19},
    {48000.0, 40000.0, 100000.0, 2.74, 2.46},
    {36000.0, 30000.0, 100000.0, 3.24, 2.91},
    {24000.0, 20000.0, 100000.0, 4.24, 3.81},
};

FlowServiceRequest draw(Rng& rng) {
  const FlowType& k = kTable1[rng.uniform_int(0, 3)];
  const bool tight = rng.bernoulli(0.5);
  const bool s1 = rng.bernoulli(0.5);
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(k.sigma, k.rho, k.peak, 12000.0);
  req.e2e_delay_req = tight ? k.tight : k.loose;
  req.ingress = s1 ? "I1" : "I2";
  req.egress = s1 ? "E1" : "E2";
  return req;
}

DomainSpec front_spec() {
  return fig8_topology(Fig8Setting::kMixed, kCapacity);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// release_service, with a broker invariant that throws turned into a
/// failed status.
Status release(ConcurrentBrokerFront& front, FlowId flow) {
  try {
    return front.release_service(flow);
  } catch (const std::logic_error& e) {
    return Status::internal(e.what());
  }
}

struct ThreadStats {
  explicit ThreadStats(double seconds)
      : latency(seconds / slice_count(seconds), slice_count(seconds)) {}
  long decisions = 0, admits = 0, releases = 0, attempted = 0;
  SliceHist latency;
  std::vector<double> admit_ns, release_ns;  // traced spans
  double intervals = 0.0;
  double call_ns = 0.0;
  std::deque<FlowId> held;
  std::vector<std::string> violations, failures;
  long failed = 0;
};

Outcome front_pass(const Options& opt, int threads, bool traced,
                   double seconds) {
  Outcome out;
  pin_thread(0);  // set-up and checks; load thread t runs on CPU t
  const DomainSpec spec = front_spec();
  auto bb = std::make_unique<BandwidthBroker>(spec);
  for (const char* p : {"1", "2"}) {
    if (!bb->provision_path(std::string("I") + p, std::string("E") + p)
             .is_ok()) {
      out.violation("provisioning failed");
      return out;
    }
  }
  ConcurrentBrokerFront front(*bb, 1);
  // The population is the same whatever the thread count.
  const long lifetime = kLifetime * kThreads / threads;

  std::vector<ThreadStats> stats(static_cast<std::size_t>(threads),
                                ThreadStats(seconds));
  std::latch filled(threads + 1);
  std::atomic<bool> go{false};
  Clock::time_point t_start{}, t_end{};
  auto body = [&](int t) {
    pin_thread(t);
    ThreadStats& s = stats[static_cast<std::size_t>(t)];
    Rng rng(opt.seed * 1000003ULL + 100ULL + static_cast<std::uint64_t>(t));
    struct Held {
      FlowId flow;
      long seq;
    };
    std::deque<Held> held;
    long admits_sent = 0;
    bool timed = false;
    auto step = [&] {
      if (!held.empty() && held.front().seq + lifetime <= admits_sent) {
        const FlowId flow = held.front().flow;
        held.pop_front();
        const auto t0 = Clock::now();
        const Status st = release(front, flow);
        const auto t1 = Clock::now();
        ++s.attempted;
        if (!st.is_ok()) {
          ++s.failed;
          if (s.failures.size() < 10) {
            s.failures.push_back("release: " + st.to_string());
          }
        }
        if (timed) {
          ++s.releases;
          s.call_ns += ns_between(t0, t1);
          if (traced) s.release_ns.push_back(ns_between(t0, t1));
        }
        return;
      }
      const FlowServiceRequest req = draw(rng);
      const auto t0 = Clock::now();
      const FrontOutcome o = front.request_service(req);
      const auto t1 = Clock::now();
      ++s.attempted;
      const long seq = admits_sent++;
      if (o.result.is_ok()) {
        const Reservation& r = o.result.value();
        if (!(r.e2e_bound <= req.e2e_delay_req * (1.0 + 1e-12)) &&
            s.violations.size() < 10) {
          s.violations.push_back("delay bound " + std::to_string(r.e2e_bound) +
                                 " exceeds D_req " +
                                 std::to_string(req.e2e_delay_req));
        }
        held.push_back({r.flow, seq});
      }
      if (timed) {
        ++s.decisions;
        if (o.result.is_ok()) ++s.admits;
        s.intervals += o.outcome.intervals_scanned;
        const double ns = ns_between(t0, t1);
        s.call_ns += ns;
        s.latency.add(seconds_between(t_start, t1), ns / 1e3);
        if (traced) s.admit_ns.push_back(ns);
      }
    };
    while (admits_sent < lifetime) step();
    filled.count_down();
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    timed = true;
    while (Clock::now() < t_end) step();
    for (const Held& h : held) s.held.push_back(h.flow);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  filled.arrive_and_wait();
  t_start = Clock::now();
  out.metric("setup_s", seconds_between(opt.process_start, t_start), "s");
  const int slices = slice_count(seconds);
  const double steal0 = host_steal_s();
  const std::uint64_t conflicts0 = front.occ_conflicts();
  const double cpu0 = process_cpu_s();
  t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double window = seconds_between(t_start, Clock::now());
  const double stolen = host_steal_s() - steal0;
  const double cpu = process_cpu_s() - cpu0;
  const std::uint64_t conflicts = front.occ_conflicts() - conflicts0;

  long decisions = 0, admits = 0;
  double intervals = 0.0, call_ns = 0.0;
  SliceHist latency(seconds / slices, slices);
  std::vector<double> admit_ns, release_ns;
  std::vector<FlowId> held;
  for (ThreadStats& s : stats) {
    decisions += s.decisions;
    admits += s.admits;
    intervals += s.intervals;
    call_ns += s.call_ns;
    out.attempted += s.attempted;
    for (auto& v : s.violations) out.violation(v);
    for (auto& f : s.failures) {
      std::fprintf(stderr, "pb: failed op: %s\n", f.c_str());
    }
    out.failed += s.failed;
    latency.merge(s.latency);
    admit_ns.insert(admit_ns.end(), s.admit_ns.begin(), s.admit_ns.end());
    release_ns.insert(release_ns.end(), s.release_ns.begin(),
                      s.release_ns.end());
    held.insert(held.end(), s.held.begin(), s.held.end());
  }
  const Sliced sliced = latency.result(seconds, true);
  out.metric("decisions_per_s", sliced.rate, "1/s");
  out.metric("decision_p50_us", sliced.p50_us, "us");
  detail_slices(sliced, sliced, stolen, window, &out);
  out.detail["live_population"] = static_cast<double>(held.size());
  out.detail["window_decisions"] = static_cast<double>(decisions);

  // Quiescent from here: the threads are joined.
  if (const OracleStateReport rep = oracle_check_state(*bb); !rep.ok) {
    out.violation("oracle_check_state: " + rep.to_string());
  }
  // A sample of single-thread decisions against the oracle's own test.
  Rng sample(opt.seed * 131ULL + 3ULL);
  for (int i = 0; i < kOracleSample; ++i) {
    const FlowServiceRequest req = draw(sample);
    const OracleDecision want = oracle_decide_request(*bb, req);
    const FrontOutcome got = front.request_service(req);
    ++out.attempted;
    std::string why;
    if (want.outcome.admitted != got.result.is_ok() ||
        !oracle_outcomes_equivalent(got.outcome, want.outcome, &why)) {
      out.violation("decision differs from oracle_decide_request: " + why);
    }
    if (got.result.is_ok()) held.push_back(got.result.value().flow);
  }
  for (FlowId f : held) {
    ++out.attempted;
    if (Status s = release(front, f); !s.is_ok()) {
      out.fail_op("release: " + s.to_string());
    }
  }
  for (const LinkSpec& l : spec.links) {
    const double r = bb->nodes().link(l.from + "->" + l.to).reserved();
    if (std::fabs(r) > 1e-6 * l.capacity) {
      out.violation("link " + l.from + "->" + l.to + " keeps " +
                    std::to_string(r) + " b/s after every release");
    }
  }
  out.metric("peak_rss_mb", vm_hwm_mb(::getpid()), "MB");

  if (traced) {
    const double d = static_cast<double>(decisions);
    out.metric("front.admit_ns", mean(admit_ns), "ns");
    out.metric("front.release_ns", mean(release_ns), "ns");
    out.metric("front.occ_conflicts_per_decision",
               ratio(static_cast<double>(conflicts), d), "count");
    out.metric("admission.intervals_scanned_per_decision",
               ratio(intervals, d), "count");
    out.metric("admission.reject_ratio",
               ratio(static_cast<double>(decisions - admits), d), "ratio");
    out.metric("generator.busy_frac",
               1.0 - ratio(call_ns / 1e9, window * threads), "ratio");
    out.detail["process_cpu_frac"] = ratio(cpu, window * threads);
  }
  return out;
}

}  // namespace

Outcome run_front_workload(const Options& opt) {
  if (!opt.trace) return front_pass(opt, kThreads, false, opt.seconds);
  // Traced run: 4 threads untraced, 4 threads traced, 1 thread untraced.
  const double third = opt.seconds / 3;
  Outcome base = front_pass(opt, kThreads, false, third);
  Outcome out = front_pass(opt, kThreads, true, third);
  Outcome single = front_pass(opt, 1, false, third);
  for (Outcome* o : {&base, &single}) {
    out.attempted += o->attempted;
    out.failed += o->failed;
    for (auto& v : o->violations) out.violations.push_back(v);
  }
  out.metric("trace.overhead_ratio",
             ratio(out.value("decisions_per_s"), base.value("decisions_per_s")),
             "ratio");
  out.metric("front.scaling_4v1",
             ratio(base.value("decisions_per_s"),
                   single.value("decisions_per_s")),
             "ratio");
  Churn churn;
  churn.spec = front_spec();
  churn.pairs = {{"I1", "E1"}, {"I2", "E2"}};
  churn.draw = draw;
  churn.lifetime = kLifetime * kThreads;
  churn.seed = opt.seed;
  layer_admission(churn, 1.0, &out);
  return out;
}

}  // namespace pb
