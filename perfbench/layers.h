// In-process layer replays for the traced runs: each one drives a seeded
// admit/teardown churn through one layer's public functions and times the
// calls from outside, so the per-layer numbers need no change to the
// program. Each replay runs for about `budget_s` seconds after an untimed
// fill of `lifetime` admits.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <functional>
#include <string>

#include "core/types.h"
#include "pb.h"
#include "topo/fig8.h"
#include "util/rng.h"

namespace pb {

struct Churn {
  qosbb::DomainSpec spec;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::function<qosbb::FlowServiceRequest(qosbb::Rng&)> draw;
  long lifetime = 0;  ///< a flow is torn down after this many later admits
  std::uint64_t seed = 1;
};

/// wire.encode_ns / wire.decode_ns: request and reply messages as the
/// signaling path encodes, frames and decodes them.
void layer_wire(const Churn& churn, double budget_s, Outcome* out);
/// front.admit_ns / front.release_ns / front.occ_conflicts_per_decision /
/// admission.intervals_scanned_per_decision through one
/// ConcurrentBrokerFront (submit_batch over admit runs, release_service).
void layer_front(const Churn& churn, double budget_s, Outcome* out);
/// admission.test_ns: single-thread BandwidthBroker::request_service.
void layer_admission(const Churn& churn, double budget_s, Outcome* out);
/// durable.append_us / appends_per_decision / batch_self_ns through a
/// timing JournalFile around FsJournalFile handed to DurableBroker::open.
void layer_durable(const Churn& churn, double budget_s,
                   const std::string& journal_path, Outcome* out);
/// durable.replay_ns_per_record: DurableBroker::open over a journal copy.
void layer_journal_replay(const qosbb::DomainSpec& spec,
                          const std::string& journal_path, Outcome* out);

}  // namespace pb

#endif  // PERFBENCH_LAYERS_H_
