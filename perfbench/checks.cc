#include "checks.h"

#include <cmath>
#include <cstdio>

#include "federation/federated_front.h"
#include "federation/oracle.h"
#include "federation/partition.h"
#include "pb.h"
#include "topo/builders.h"
#include "vtrs/delay_bounds.h"

namespace pb {

Expected31 expected_3_1(const RateOnlyPath& path, double sigma, double rho,
                        double peak, double l_max, double d_req) {
  const double t_on = peak == rho ? 0.0 : (sigma - l_max) / (peak - rho);
  const double h = static_cast<double>(path.hops);
  const double denom = d_req - path.d_tot + t_on;
  Expected31 out;
  if (denom <= 0.0) return out;
  const double r_min = (t_on * peak + (h + 1.0) * l_max) / denom;
  out.rate = std::max(rho, r_min);
  out.feasible = out.rate <= peak + 1e-6;
  if (out.feasible) {
    out.bound = t_on * (peak - out.rate) / out.rate + l_max / out.rate +
                h * l_max / out.rate + path.d_tot;
  }
  return out;
}

namespace {

bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b);
  return buf;
}

}  // namespace

std::string check_reservation(const Expected31& want, double rate,
                              double bound) {
  if (!want.feasible) {
    return fmt("admitted an infeasible request (r_min %.3f b/s > peak) at "
               "%.3f b/s",
               want.rate, rate);
  }
  if (!close_rel(rate, want.rate)) {
    return fmt("reserved rate %.6f b/s, §3.1 minimal rate is %.6f b/s", rate,
               want.rate);
  }
  if (!close_rel(bound, want.bound)) {
    return fmt("delay bound %.9f s, §3.1 bound is %.9f s", bound, want.bound);
  }
  return {};
}

std::string LinkLedger::add(const std::vector<int>& links, double rate) {
  std::string err;
  for (int l : links) {
    double& h = held_[static_cast<std::size_t>(l)];
    h += rate;
    if (h > capacity(l) + kRateTol && err.empty()) {
      err = fmt("link over-admitted: held %.3f b/s > capacity %.3f b/s", h,
                capacity(l));
    }
  }
  return err;
}

void LinkLedger::remove(const std::vector<int>& links, double rate) {
  for (int l : links) held_[static_cast<std::size_t>(l)] -= rate;
}

std::string check_reject(const Expected31& want,
                         const std::vector<double>& capacity,
                         const std::vector<double>& charge) {
  if (!want.feasible) return {};
  for (std::size_t i = 0; i < capacity.size(); ++i) {
    if (capacity[i] - charge[i] < want.rate + kRateTol) return {};
  }
  double residual = capacity[0] - charge[0];
  for (std::size_t i = 1; i < capacity.size(); ++i) {
    residual = std::min(residual, capacity[i] - charge[i]);
  }
  return fmt("unjustified reject: residual %.3f b/s covers minimal rate %.3f",
             residual, want.rate);
}

std::string check_recovery_digest(std::uint32_t live,
                                  std::uint32_t restarted) {
  if (live == restarted) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "recovered digest %08x != live digest %08x",
                restarted, live);
  return buf;
}

std::string check_fed_decision(qosbb::FederationOracle& oracle,
                               const qosbb::FlowServiceRequest& request,
                               const qosbb::FederatedOutcome& outcome) {
  const qosbb::Status s = oracle.observe_admit(request, outcome);
  return s.is_ok() ? std::string() : s.message();
}

// ---------------------------------------------------------------------------
// Self-test: every check must pass its correct input and fire on a wrong one.
// ---------------------------------------------------------------------------

namespace {

struct SelfTest {
  int failures = 0;
  void expect(const char* name, bool fires, const std::string& result) {
    const bool fired = !result.empty();
    const bool ok = fired == fires;
    if (!ok) ++failures;
    std::fprintf(stderr, "selftest: %-44s %s%s%s\n", name,
                 ok ? "ok" : "WRONG",
                 fired ? " -> " : "", fired ? result.c_str() : "");
  }
};

}  // namespace

int run_selftest() {
  using namespace qosbb;
  SelfTest t;

  // §3.1 reservation on a 3-hop path of 1 Gb/s links.
  const RateOnlyPath path{3, 3 * 12000.0 / 1e9};
  const Expected31 want =
      expected_3_1(path, 24000.0, 100e3, 200e3, 12000.0, 0.3);
  t.expect("reservation at the §3.1 rate and bound", false,
           check_reservation(want, want.rate, want.bound));
  t.expect("reservation below the §3.1 minimal rate", true,
           check_reservation(want, want.rate * 0.99, want.bound));
  t.expect("reservation with a loose delay bound", true,
           check_reservation(want, want.rate, want.bound * 1.01));
  const Expected31 infeasible =
      expected_3_1(path, 24000.0, 100e3, 200e3, 12000.0, 0.15);
  t.expect("admit of an infeasible request", true,
           check_reservation(infeasible, 200e3, 1.0));

  // Over-admitted link: ten 100 kb/s flows fit 1 Mb/s, the eleventh not.
  LinkLedger ledger({1e6, 1e9});
  std::string err;
  for (int i = 0; i < 10 && err.empty(); ++i) err = ledger.add({0, 1}, 1e5);
  t.expect("ledger at capacity", false, err);
  t.expect("over-admitted link", true, ledger.add({0, 1}, 1e5));

  // Rejects: justified by a full link, unjustified with room left.
  t.expect("reject with the bottleneck full", false,
           check_reject(want, {1e6, 1e9}, {1e6 - want.rate * 0.5, 0.0}));
  t.expect("reject of an infeasible request", false,
           check_reject(infeasible, {1e6}, {0.0}));
  t.expect("unjustified reject", true,
           check_reject(want, {1e6, 1e9}, {5e5, 0.0}));

  t.expect("recovery digest equal", false,
           check_recovery_digest(0x6719dc41u, 0x6719dc41u));
  t.expect("recovery digest mismatch", true,
           check_recovery_digest(0x6719dc41u, 0x76203519u));

  // Federation against the flat broker on the unpartitioned topology.
  MultiDomainOptions topo;
  topo.domains = 3;
  topo.edge_pairs = 2;
  const FederationPlan plan =
      partition_multi_domain(multi_domain_topology(topo), topo.domains);
  FederationOracle oracle(plan, BrokerOptions{});
  auto request = [](double rho, double d_req, const char* in,
                    const char* out) {
    FlowServiceRequest r;
    r.profile = TrafficProfile::make(24000.0, rho, 2.0 * rho, 12000.0);
    r.e2e_delay_req = d_req;
    r.ingress = in;
    r.egress = out;
    return r;
  };
  auto admitted = [](FlowId flow, double rate, int segments) {
    FederatedOutcome o;
    Reservation res;
    res.flow = flow;
    res.params.rate = rate;
    o.result = res;
    o.inter_domain = true;
    o.segments = segments;
    o.segment_rate = rate;
    return o;
  };
  const FlowServiceRequest fits = request(100e3, 2.0, "D0I0", "D2E0");
  const PathAbstract global =
      path_abstract(plan.global, multi_domain_path(0, 0, 2, 0));
  const double r_star = FederatedFront::inter_domain_segment_rate(
      global, fits.profile, fits.e2e_delay_req, 3);
  t.expect("inter-domain admit the flat broker admits", false,
           check_fed_decision(oracle, fits, admitted(1, r_star, 3)));
  const FlowServiceRequest too_big = request(2e6, 2.0, "D0I1", "D2E1");
  t.expect("inter-domain admit the flat broker rejects", true,
           check_fed_decision(oracle, too_big, admitted(2, 2e6, 3)));
  FederatedOutcome intra_reject;
  intra_reject.result = Status::rejected("synthetic");
  t.expect("intra-domain reject the flat broker admits", true,
           check_fed_decision(oracle, request(100e3, 2.0, "D1I0", "D1E0"),
                              intra_reject));

  std::fprintf(stderr, "selftest: %s (%d wrong)\n",
               t.failures == 0 ? "PASS" : "FAIL", t.failures);
  return t.failures == 0 ? 0 : 1;
}

}  // namespace pb
