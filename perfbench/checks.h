// Output checks of the benchmark, computed apart from the code under test.
//
// Every check returns an empty string when the output is correct and a
// description of the violation otherwise. `pb selftest` feeds each one a
// synthetic wrong output to show that it fires.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qosbb {
class FederationOracle;
struct FlowServiceRequest;
struct FederatedOutcome;
}  // namespace qosbb

namespace pb {

/// Slack of every rate comparison, in b/s. Rates here are 1e5..1e6 b/s and
/// ledgers sum up to ~1e11 b/s of history, so double rounding stays far
/// below it.
constexpr double kRateTol = 1.0;

/// A rate-based-only path as §3.1 sees it: h hops, D_tot = Σ(Ψ_i + π_i).
struct RateOnlyPath {
  int hops = 0;
  double d_tot = 0.0;
};

/// The §3.1 minimal-rate reservation, from the paper's formulas:
///   T_on  = (σ − L)/(P − ρ)
///   r_min = [T_on·P + (h+1)·L] / [D_req − D_tot + T_on]
///   r     = max(ρ, r_min), feasible iff r <= P
///   bound = T_on·(P − r)/r + L/r + h·L/r + D_tot
struct Expected31 {
  double rate = 0.0;
  double bound = 0.0;
  bool feasible = false;
};
Expected31 expected_3_1(const RateOnlyPath& path, double sigma, double rho,
                        double peak, double l_max, double d_req);

/// A reservation's rate and delay bound against §3.1 (relative 1e-9).
std::string check_reservation(const Expected31& want, double rate,
                              double bound);

/// Summed reserved rate per link of the flows a client holds (acked and not
/// yet torn down): a lower bound of the broker's booking, so it must never
/// exceed capacity.
class LinkLedger {
 public:
  explicit LinkLedger(std::vector<double> capacity)
      : capacity_(std::move(capacity)), held_(capacity_.size(), 0.0) {}
  std::string add(const std::vector<int>& links, double rate);
  void remove(const std::vector<int>& links, double rate);
  double held(int link) const { return held_[static_cast<std::size_t>(link)]; }
  double capacity(int link) const {
    return capacity_[static_cast<std::size_t>(link)];
  }
  std::size_t size() const { return capacity_.size(); }

 private:
  std::vector<double> capacity_;
  std::vector<double> held_;
};

/// A reject is unjustified when the request was feasible and every link of
/// its path, charged with everything that could have been reserved while
/// the request was in flight, still had room for its minimal rate.
/// `charge[i]` is that conservative charge on the path's i-th link.
std::string check_reject(const Expected31& want,
                         const std::vector<double>& capacity,
                         const std::vector<double>& charge);

/// Journal replay against live state.
std::string check_recovery_digest(std::uint32_t live,
                                  std::uint32_t restarted);

/// Intra-domain decisions equal the flat broker's; no inter-domain admit is
/// one the flat broker rejects. Feeds one decision to the flat mirror.
std::string check_fed_decision(qosbb::FederationOracle& oracle,
                               const qosbb::FlowServiceRequest& request,
                               const qosbb::FederatedOutcome& outcome);

}  // namespace pb

#endif  // PERFBENCH_CHECKS_H_
