#include "layers.h"

#include <deque>
#include <memory>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/journal.h"
#include "core/wire.h"
#include "net/framing.h"

namespace pb {
namespace {

using namespace qosbb;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// The sequential form of the workload's churn: a flow is torn down once
/// `lifetime` more admits were issued after it. Consecutive admits form
/// one batch (as the server batches an admit run); a teardown ends it.
/// `admit(batch, timed)` returns the flows admitted (kInvalidFlowId for a
/// reject) in order; `release(flow, timed)` tears one down.
template <typename Admit, typename Release>
void churn_loop(const Churn& churn, double budget_s, std::size_t max_batch,
                Admit admit, Release release) {
  Rng rng(churn.seed * 7919ULL + 17ULL);
  struct Held {
    FlowId flow;
    long seq;
  };
  std::deque<Held> held;
  std::vector<FlowServiceRequest> batch;
  std::vector<long> batch_seq;
  long admits_sent = 0;
  bool timed = false;
  auto flush = [&] {
    if (batch.empty()) return;
    const std::vector<FlowId> flows = admit(batch, timed);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i] != kInvalidFlowId) held.push_back({flows[i], batch_seq[i]});
    }
    batch.clear();
    batch_seq.clear();
  };
  Clock::time_point end{};
  while (true) {
    if (!timed && admits_sent >= churn.lifetime) {
      flush();
      timed = true;
      end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(budget_s));
    }
    if (timed && Clock::now() >= end) break;
    if (!held.empty() && held.front().seq + churn.lifetime <= admits_sent) {
      flush();
      release(held.front().flow, timed);
      held.pop_front();
      continue;
    }
    batch.push_back(churn.draw(rng));
    batch_seq.push_back(admits_sent++);
    if (batch.size() >= max_batch) flush();
  }
  flush();
}

/// JournalFile decorator timing every append of the wrapped file.
class TimedJournal : public JournalFile {
 public:
  explicit TimedJournal(JournalFile& inner) : inner_(inner) {}
  Status append(const WireBuffer& bytes) override {
    const auto t0 = Clock::now();
    Status s = inner_.append(bytes);
    append_ns += ns_since(t0);
    ++appends;
    return s;
  }
  Result<WireBuffer> read_all() const override { return inner_.read_all(); }
  Status replace(const WireBuffer& bytes) override {
    return inner_.replace(bytes);
  }
  double append_ns = 0.0;
  long appends = 0;

 private:
  JournalFile& inner_;
};

}  // namespace

void layer_wire(const Churn& churn, double budget_s, Outcome* out) {
  Rng rng(churn.seed * 7919ULL + 17ULL);
  constexpr int kBlock = 256;
  std::vector<FlowServiceRequest> reqs(kBlock);
  std::vector<WireBuffer> framed_req(kBlock), framed_rep(kBlock);
  double enc_ns = 0.0, dec_ns = 0.0, bytes = 0.0;
  long ops = 0;
  long sink = 0;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(budget_s));
  while (Clock::now() < end) {
    for (auto& r : reqs) r = churn.draw(rng);
    auto t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) {
      framed_req[i] = frame_net_message(encode(reqs[i]));
      Reservation res;
      res.flow = static_cast<FlowId>(ops + i + 1);
      res.path = 1;
      res.params.rate = reqs[i].profile.rho;
      res.e2e_bound = reqs[i].e2e_delay_req;
      framed_rep[i] = frame_net_message(encode(res));
      bytes += static_cast<double>(framed_req[i].size() + framed_rep[i].size());
    }
    enc_ns += ns_since(t0);
    t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i) {
      FrameDecoder dec;
      dec.feed(framed_req[i].data(), framed_req[i].size());
      auto payload = dec.next();
      if (payload.is_ok()) {
        auto req = decode_flow_service_request(payload.value());
        sink += req.is_ok() ? 1 : 0;
      }
      dec.feed(framed_rep[i].data(), framed_rep[i].size());
      auto reply = dec.next();
      if (reply.is_ok()) {
        auto res = decode_reservation(reply.value());
        sink += res.is_ok() ? 1 : 0;
      }
    }
    dec_ns += ns_since(t0);
    ops += kBlock;
  }
  if (sink != 2 * ops) out->violation("wire replay: a message did not decode");
  // Per operation: one request and its reply.
  out->metric("wire.encode_ns", ratio(enc_ns, static_cast<double>(ops)), "ns");
  out->metric("wire.decode_ns", ratio(dec_ns, static_cast<double>(ops)), "ns");
  // Where the run did not count socket bytes, the replay's frame sizes.
  if (out->value("wire.bytes_per_op") == 0.0) {
    out->metric("wire.bytes_per_op", ratio(bytes, static_cast<double>(ops)),
                "B");
  }
}

void layer_front(const Churn& churn, double budget_s, Outcome* out) {
  BandwidthBroker bb(churn.spec);
  for (const auto& [in, eg] : churn.pairs) {
    if (!bb.provision_path(in, eg).is_ok()) {
      out->violation("front replay: provisioning failed");
      return;
    }
  }
  ConcurrentBrokerFront front(bb, 1);
  double admit_ns = 0.0, release_ns = 0.0, intervals = 0.0;
  long decisions = 0, releases = 0;
  std::uint64_t conflicts0 = 0;
  bool started = false;
  churn_loop(
      churn, budget_s, 256,
      [&](const std::vector<FlowServiceRequest>& batch, bool timed) {
        if (timed && !started) {
          started = true;
          conflicts0 = front.occ_conflicts();
        }
        const auto t0 = Clock::now();
        const std::vector<FrontOutcome> res = front.submit_batch(batch);
        const double ns = ns_since(t0);
        std::vector<FlowId> flows;
        for (const FrontOutcome& o : res) {
          flows.push_back(o.result.is_ok() ? o.result.value().flow
                                           : kInvalidFlowId);
          if (timed) intervals += o.outcome.intervals_scanned;
        }
        if (timed) {
          admit_ns += ns;
          decisions += static_cast<long>(batch.size());
        }
        return flows;
      },
      [&](FlowId flow, bool timed) {
        const auto t0 = Clock::now();
        const Status s = front.release_service(flow);
        const double ns = ns_since(t0);
        if (!s.is_ok()) out->violation("front replay: release failed");
        if (timed) {
          release_ns += ns;
          ++releases;
        }
      });
  const double d = static_cast<double>(decisions);
  out->metric("front.admit_ns", ratio(admit_ns, d), "ns");
  out->metric("front.release_ns",
              ratio(release_ns, static_cast<double>(releases)), "ns");
  out->metric("front.occ_conflicts_per_decision",
              ratio(static_cast<double>(front.occ_conflicts() - conflicts0), d),
              "count");
  out->metric("admission.intervals_scanned_per_decision", ratio(intervals, d),
              "count");
}

void layer_admission(const Churn& churn, double budget_s, Outcome* out) {
  BandwidthBroker bb(churn.spec);
  for (const auto& [in, eg] : churn.pairs) {
    if (!bb.provision_path(in, eg).is_ok()) {
      out->violation("admission replay: provisioning failed");
      return;
    }
  }
  double test_ns = 0.0;
  long decisions = 0;
  churn_loop(
      churn, budget_s, 1,
      [&](const std::vector<FlowServiceRequest>& batch, bool timed) {
        const auto t0 = Clock::now();
        auto r = bb.request_service(batch[0]);
        const double ns = ns_since(t0);
        if (timed) {
          test_ns += ns;
          ++decisions;
        }
        return std::vector<FlowId>{r.is_ok() ? r.value().flow
                                             : kInvalidFlowId};
      },
      [&](FlowId flow, bool) {
        if (!bb.release_service(flow).is_ok()) {
          out->violation("admission replay: release failed");
        }
      });
  out->metric("admission.test_ns",
              ratio(test_ns, static_cast<double>(decisions)), "ns");
}

void layer_durable(const Churn& churn, double budget_s,
                   const std::string& journal_path, Outcome* out) {
  FsJournalFile fs(journal_path);
  TimedJournal journal(fs);
  auto opened = DurableBroker::open(churn.spec, BrokerOptions{}, journal);
  if (!opened.is_ok()) {
    out->violation("durable replay: open failed: " +
                   opened.status().to_string());
    return;
  }
  std::unique_ptr<DurableBroker> db = std::move(opened).value();
  for (const auto& [in, eg] : churn.pairs) {
    if (!db->provision_path(kNoRequestId, in, eg).is_ok()) {
      out->violation("durable replay: provisioning failed");
      return;
    }
  }
  RequestId rid = 1;
  double self_ns = 0.0, append_ns0 = 0.0;
  long batches = 0, decisions = 0, appends0 = 0, all_decisions = 0;
  bool started = false;
  auto start = [&](bool timed) {
    if (timed && !started) {
      started = true;
      append_ns0 = journal.append_ns;
      appends0 = journal.appends;
    }
  };
  churn_loop(
      churn, budget_s, 256,
      [&](const std::vector<FlowServiceRequest>& batch, bool timed) {
        start(timed);
        std::vector<RequestId> rids;
        for (std::size_t i = 0; i < batch.size(); ++i) rids.push_back(rid++);
        const double append_before = journal.append_ns;
        const auto t0 = Clock::now();
        auto res = db->request_service_batch(rids, batch, 0.0);
        const double ns = ns_since(t0);
        all_decisions += static_cast<long>(batch.size());
        std::vector<FlowId> flows;
        for (const auto& r : res) {
          flows.push_back(r.is_ok() ? r.value().flow : kInvalidFlowId);
        }
        if (timed) {
          self_ns += ns - (journal.append_ns - append_before);
          ++batches;
          decisions += static_cast<long>(batch.size());
        }
        return flows;
      },
      [&](FlowId flow, bool timed) {
        start(timed);
        if (!db->release_service(rid++, flow).is_ok()) {
          out->violation("durable replay: release failed");
        }
      });
  const long appends = journal.appends - appends0;
  // Where the run left no journal of its own, the replay's.
  if (out->value("durable.bytes_per_decision") == 0.0) {
    out->metric("durable.bytes_per_decision",
                ratio(static_cast<double>(file_size(journal_path)),
                      static_cast<double>(all_decisions)),
                "B");
  }
  out->metric("durable.append_us",
              ratio((journal.append_ns - append_ns0) / 1e3,
                    static_cast<double>(appends)),
              "us");
  out->metric("durable.appends_per_decision",
              ratio(static_cast<double>(appends),
                    static_cast<double>(decisions)),
              "count");
  out->metric("durable.batch_self_ns",
              ratio(self_ns, static_cast<double>(batches)), "ns");
}

void layer_journal_replay(const DomainSpec& spec,
                          const std::string& journal_path, Outcome* out) {
  FsJournalFile file(journal_path);
  const auto t0 = Clock::now();
  auto opened = DurableBroker::open(spec, BrokerOptions{}, file);
  const double ns = ns_since(t0);
  if (!opened.is_ok()) {
    out->violation("journal replay: open failed: " +
                   opened.status().to_string());
    return;
  }
  out->metric("durable.replay_ns_per_record",
              ratio(ns, static_cast<double>(opened.value()->stats().replayed)),
              "ns");
}

}  // namespace pb
