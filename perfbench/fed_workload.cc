// fed_mixed and fed_inter: three `qosbbd --topo=multidomain` members and one
// coordinator (FederatedFront over SocketMembers, in this process) issuing a
// seeded mix of admissions and releases. In fed_mixed a request's two ends
// are drawn from any domains, so most requests stay inside one domain; in
// fed_inter they always lie in different domains, so every admission is a
// 2PC over two or three members. One coordinator thread, one request at a
// time: the decision sequence is deterministic for a seed, and member round
// trips dominate its cost.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/oracle.h"
#include "federation/partition.h"
#include "layers.h"
#include "pb.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace qosbb;

constexpr int kDomains = 3;
constexpr int kFedPairs = 2;
constexpr double kFedRho = 100e3;
constexpr double kReleaseProb = 0.35;
constexpr long kFillOps = 2000;

FlowServiceRequest random_request(Rng& rng, bool inter) {
  const int apart = inter ? 1 : 0;  // egress domain strictly downstream
  const int fd = static_cast<int>(rng.uniform_int(0, kDomains - 1 - apart));
  const int td = static_cast<int>(rng.uniform_int(fd + apart, kDomains - 1));
  const int fp = static_cast<int>(rng.uniform_int(0, kFedPairs - 1));
  const int tp = static_cast<int>(rng.uniform_int(0, kFedPairs - 1));
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(24000.0, kFedRho, 2.0 * kFedRho, 12000.0);
  const double delays[] = {0.8, 1.5, 2.0, 3.0};
  req.e2e_delay_req = delays[rng.uniform_int(0, 3)];
  req.ingress = "D" + std::to_string(fd) + "I" + std::to_string(fp);
  req.egress = "D" + std::to_string(td) + "E" + std::to_string(tp);
  return req;
}

/// Member decorator timing each call the coordinator makes.
class TimedMember : public FederationMember {
 public:
  enum Kind { kAdmit, kPrepare, kCommit, kAbort, kRelease, kKinds };
  explicit TimedMember(FederationMember& inner) : inner_(inner) {}

  double ns[kKinds] = {};
  long calls[kKinds] = {};

  template <typename F>
  auto timed(Kind k, F f) {
    const auto t0 = Clock::now();
    auto r = f();
    ns[k] += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                 .count();
    ++calls[k];
    return r;
  }

  int domain() const override { return inner_.domain(); }
  Result<Reservation> admit(const FlowServiceRequest& r,
                            RequestId rid) override {
    return timed(kAdmit, [&] { return inner_.admit(r, rid); });
  }
  Status release(FlowId flow, RequestId rid) override {
    return timed(kRelease, [&] { return inner_.release(flow, rid); });
  }
  Result<PrepareReply> prepare(const PrepareSegment& r) override {
    return timed(kPrepare, [&] { return inner_.prepare(r); });
  }
  Result<SegmentAck> commit(const CommitSegment& r) override {
    return timed(kCommit, [&] { return inner_.commit(r); });
  }
  Result<SegmentAck> abort(const AbortSegment& r) override {
    return timed(kAbort, [&] { return inner_.abort(r); });
  }
  Result<FederatedDigestReply> digest() override { return inner_.digest(); }
  Result<WireBuffer> snapshot() override { return inner_.snapshot(); }
  Status restore(const WireBuffer& f) override { return inner_.restore(f); }

 private:
  FederationMember& inner_;
};

struct FedOp {
  bool admit = true;
  FlowServiceRequest request;
  FederatedOutcome outcome;
  FlowId flow = kInvalidFlowId;
};

/// Members run in memory, each on its own CPU. (Journaled members made
/// whole runs 10x slower whenever the host's disk stalled; the durable
/// layer is measured by the traced run's in-process replays instead.)
bool start_members(const Options& opt, const std::string& tag,
                   Daemon (&d)[kDomains], Outcome* out) {
  for (int i = 0; i < kDomains; ++i) {
    std::string err;
    const std::string base = opt.dir + "/" + tag + ".m" + std::to_string(i);
    const std::vector<std::string> args = {
        "--topo=multidomain", "--domains=" + std::to_string(kDomains),
        "--domain-index=" + std::to_string(i),
        "--pairs=" + std::to_string(kFedPairs)};
    if (!d[i].start(opt.qosbbd, args, base + ".port", base + ".log", 1 + i,
                    20000, &err)) {
      out->violation(err);
      return false;
    }
  }
  return true;
}

Outcome fed_pass(const Options& opt, bool inter, bool traced,
                 double seconds, const std::string& tag) {
  Outcome out;
  MultiDomainOptions topo;
  topo.domains = kDomains;
  topo.edge_pairs = kFedPairs;
  const FederationPlan plan =
      partition_multi_domain(multi_domain_topology(topo), kDomains);

  pin_thread(0);  // the coordinator; member i runs on CPU 1 + i
  Daemon daemons[kDomains];
  if (!start_members(opt, tag, daemons, &out)) return out;
  std::vector<std::unique_ptr<SocketMember>> sockets;
  std::vector<std::unique_ptr<TimedMember>> timers;
  std::vector<FederationMember*> members;
  for (int d = 0; d < kDomains; ++d) {
    RetryingClientOptions o;
    o.port = static_cast<std::uint16_t>(daemons[d].port());
    // One attempt: a lost reply is a failed operation, not a retry.
    o.reply_timeout_ms = 20000;
    o.max_attempts = 1;
    sockets.push_back(std::make_unique<SocketMember>(d, o));
    if (traced) {
      timers.push_back(std::make_unique<TimedMember>(*sockets.back()));
      members.push_back(timers.back().get());
    } else {
      members.push_back(sockets.back().get());
    }
  }
  FederatedFrontOptions fo;
  fo.record_member_ops = true;
  FederatedFront front(plan, members, fo);

  Rng rng(opt.seed);
  std::vector<FedOp> log;
  std::vector<FlowId> live;
  const int slices = slice_count(seconds);
  SliceHist latency(seconds / slices, slices);
  Clock::time_point t_start;
  long admits = 0, rejects = 0, window_decisions = 0;
  double decision_ns = 0.0, decision_member_ns = 0.0;
  auto member_totals = [&](double* ns, long* calls) {
    *ns = 0.0;
    *calls = 0;
    for (const auto& t : timers) {
      for (int k = 0; k < TimedMember::kKinds; ++k) {
        *ns += t->ns[k];
        *calls += t->calls[k];
      }
    }
  };
  auto admit_one = [&](bool timed) {
    FedOp op;
    op.request = random_request(rng, inter);
    double member0 = 0.0, member1 = 0.0;
    long calls = 0;
    member_totals(&member0, &calls);
    const auto t0 = Clock::now();
    op.outcome = front.request_service(op.request);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    member_totals(&member1, &calls);
    if (timed) decision_member_ns += member1 - member0;
    ++out.attempted;
    if (op.outcome.result.is_ok()) {
      ++admits;
      live.push_back(op.outcome.result.value().flow);
    } else if (op.outcome.result.status().code() == StatusCode::kRejected) {
      ++rejects;
    } else {
      // A member call without a usable reply: no decision was made.
      out.fail_op("admit: " + op.outcome.result.status().to_string());
      return;
    }
    if (timed) {
      latency.add(seconds_between(t_start, Clock::now()), ns / 1e3);
      decision_ns += ns;
      ++window_decisions;
    }
    log.push_back(std::move(op));
  };
  auto release_one = [&](std::size_t pick) {
    const FlowId flow = live[pick];
    live.erase(live.begin() + static_cast<long>(pick));
    ++out.attempted;
    const Status s = front.release_service(flow);
    if (!s.is_ok()) {
      out.fail_op("release of acked flow " + std::to_string(flow) + ": " +
                  s.to_string());
      return;
    }
    FedOp op;
    op.admit = false;
    op.flow = flow;
    log.push_back(std::move(op));
  };

  // One op of the seeded mix: release a random live flow or admit.
  auto step = [&](bool timed) {
    if (!live.empty() && rng.bernoulli(kReleaseProb)) {
      release_one(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1)));
    } else {
      admit_one(timed);
    }
  };
  // Fill: the mix runs untimed until the population is in steady state.
  for (long i = 0; i < kFillOps; ++i) step(false);
  t_start = Clock::now();
  out.metric("setup_s", seconds_between(opt.process_start, t_start), "s");
  const double steal0 = host_steal_s();

  double member_cpu0 = 0.0;
  for (auto& d : daemons) member_cpu0 += proc_cpu_s(d.pid());
  const FederationStats st0 = front.stats();
  double member_ns0 = 0.0;
  long member_calls0 = 0;
  member_totals(&member_ns0, &member_calls0);
  const auto t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  while (Clock::now() < t_end) step(true);
  const double window = seconds_between(t_start, Clock::now());
  const double stolen = host_steal_s() - steal0;
  double member_cpu = -member_cpu0;
  for (auto& d : daemons) member_cpu += proc_cpu_s(d.pid());
  const FederationStats st1 = front.stats();
  double member_ns_end = 0.0;
  long member_calls = 0;
  member_totals(&member_ns_end, &member_calls);
  member_calls -= member_calls0;

  const Sliced sliced = latency.result(seconds, true);
  out.metric("decisions_per_s", sliced.rate, "1/s");
  out.metric("decision_p50_us", sliced.p50_us, "us");
  detail_slices(sliced, sliced, stolen, window, &out);

  // Every acked admission releases cleanly; then no member keeps a flow and
  // each member's live digest equals a fresh replay of its op log.
  while (!live.empty()) release_one(live.size() - 1);
  if (st1.poisoned_txns > 0 || st1.ack_failures > 0) {
    out.violation("federation poisoned " + std::to_string(st1.poisoned_txns) +
                  " txns, " + std::to_string(st1.ack_failures) +
                  " ack failures");
  }
  auto digests = front.digests();
  if (!digests.is_ok()) {
    out.violation("member digests: " + digests.status().to_string());
  } else {
    for (int d = 0; d < kDomains; ++d) {
      const FederatedDigestReply& dig =
          digests.value()[static_cast<std::size_t>(d)];
      if (dig.live_flows != 0) {
        out.violation("member " + std::to_string(d) + " keeps " +
                      std::to_string(dig.live_flows) + " flows after release");
      }
      const MemberReplayReport rep = replay_member_ops(
          plan.members[static_cast<std::size_t>(d)], BrokerOptions{},
          front.member_ops(d));
      if (!rep.ok || rep.digest != dig.digest) {
        out.violation("member " + std::to_string(d) +
                      " op-log replay digest differs from its live digest " +
                      rep.detail);
      }
    }
  }
  // Decisions against the flat broker on the unpartitioned topology.
  FederationOracle oracle(plan, BrokerOptions{});
  for (const FedOp& op : log) {
    if (op.admit) {
      if (std::string e = check_fed_decision(oracle, op.request, op.outcome);
          !e.empty()) {
        out.violation(e);
      }
    } else if (Status s = oracle.observe_release(op.flow); !s.is_ok()) {
      out.violation(s.message());
    }
  }

  double rss = 0.0;
  for (auto& d : daemons) rss += vm_hwm_mb(d.pid());
  out.metric("peak_rss_mb", rss, "MB");
  for (auto& d : daemons) {
    if (!d.stop()) out.violation("member did not exit cleanly on SIGTERM");
  }
  out.detail["admits"] = static_cast<double>(admits);
  out.detail["rejects"] = static_cast<double>(rejects);
  out.detail["inter_requests"] = static_cast<double>(st1.inter_requests);
  out.detail["prepares"] = static_cast<double>(st1.prepares);
  out.detail["aborts"] = static_cast<double>(st1.aborts);

  if (traced) {
    const double n = static_cast<double>(window_decisions);
    const char* names[] = {"admit", "prepare", "commit", "abort", "release"};
    for (int k = 0; k < TimedMember::kKinds; ++k) {
      double ns = 0.0;
      long calls = 0;
      for (const auto& t : timers) {
        ns += t->ns[k];
        calls += t->calls[k];
      }
      out.metric(std::string("federation.member_rtt_us.") + names[k],
                 ratio(ns / 1e3, static_cast<double>(calls)), "us");
    }
    out.metric("federation.member_calls_per_decision",
               ratio(static_cast<double>(member_calls), n), "count");
    const double txns = static_cast<double>(
        (st1.inter_requests - st1.inter_rejected_local) -
        (st0.inter_requests - st0.inter_rejected_local));
    out.metric("federation.abort_ratio",
               ratio(static_cast<double>(st1.aborts - st0.aborts), txns),
               "ratio");
    // Decision time not spent waiting on a member call.
    out.metric("federation.coordinator_self_us",
               ratio((decision_ns - decision_member_ns) / 1e3, n), "us");
    out.metric("federation.member_busy_frac",
               ratio(member_cpu, window * kDomains), "ratio");
    out.metric("generator.busy_frac", 1.0 - ratio(decision_ns / 1e9, window),
               "ratio");
    out.metric("admission.reject_ratio",
               ratio(static_cast<double>(rejects),
                     static_cast<double>(admits + rejects)),
               "ratio");
    // The members are qosbbd: their busy share and batching, from /proc
    // and their drain lines.
    double batched = 0.0, batches = 0.0, pauses = 0.0;
    for (int d = 0; d < kDomains; ++d) {
      const auto drain = parse_log_line(daemons[d].log(), "qosbbd: drained.");
      auto num = [&](const char* k) {
        auto it = drain.find(k);
        return it == drain.end() ? 0.0 : std::atof(it->second.c_str());
      };
      batched += num("batched_requests");
      batches += num("batches");
      pauses += num("backpressure_pauses");
    }
    out.metric("net.server_busy_frac", ratio(member_cpu, window * kDomains),
               "ratio");
    out.metric("net.server_cpu_us_per_op",
               ratio(member_cpu * 1e6, static_cast<double>(member_calls)),
               "us");
    out.metric("net.admits_per_batch", ratio(batched, batches), "count");
    out.metric("net.backpressure_pauses", pauses, "count");
    // In-process replays of intra-domain churn on member 0's domain.
    Churn churn;
    churn.spec = plan.members[0];
    for (int i = 0; i < kFedPairs; ++i) {
      for (int e = 0; e < kFedPairs; ++e) {
        churn.pairs.emplace_back("D0I" + std::to_string(i),
                                 "D0E" + std::to_string(e));
      }
    }
    churn.draw = [](Rng& r) {
      FlowServiceRequest req = random_request(r, false);
      req.ingress[1] = '0';
      req.egress[1] = '0';
      return req;
    };
    churn.lifetime = 16;
    churn.seed = opt.seed;
    layer_wire(churn, 0.5, &out);
    layer_front(churn, 0.5, &out);
    layer_admission(churn, 0.5, &out);
    layer_durable(churn, 1.0, opt.dir + "/layer.journal", &out);
    layer_journal_replay(churn.spec, opt.dir + "/layer.journal", &out);
  }
  return out;
}

}  // namespace

Outcome run_fed_workload(const Options& opt, bool inter) {
  if (!opt.trace) return fed_pass(opt, inter, false, opt.seconds, "run");
  Outcome base = fed_pass(opt, inter, false, opt.seconds / 2, "base");
  Outcome out = fed_pass(opt, inter, true, opt.seconds / 2, "traced");
  out.attempted += base.attempted;
  out.failed += base.failed;
  for (auto& v : base.violations) out.violations.push_back(v);
  out.metric("trace.overhead_ratio",
             ratio(out.value("decisions_per_s"), base.value("decisions_per_s")),
             "ratio");
  return out;
}

}  // namespace pb
