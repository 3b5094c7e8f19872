// pb — one workload run of the signaling-path benchmark.
//
//   pb --workload=mem_churn --seed=1 --seconds=10 --trace=0
//      --dir=RUN_DIR --qosbbd=PATH
//   pb selftest
//
// Prints a detail line and, last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace=0 the metrics are the end-to-end ones, with --trace=1 the
// per-layer ones (0 where the workload does not exercise that layer).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pb.h"

namespace {

using pb::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// decision_p99_us is measured too, but printed on the detail line: on the
// shared reference host its 10-run spread reached 0.19-0.38 whenever the
// hypervisor stole CPU time (see README).
constexpr MetricDef kEndToEnd[] = {
    {"decisions_per_s", "1/s"},
    {"decision_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"net.server_busy_frac", "ratio"},
    {"net.server_cpu_us_per_op", "us"},
    {"net.admits_per_batch", "count"},
    {"net.backpressure_pauses", "count"},
    {"wire.decode_ns", "ns"},
    {"wire.encode_ns", "ns"},
    {"wire.bytes_per_op", "B"},
    {"front.admit_ns", "ns"},
    {"front.release_ns", "ns"},
    {"front.occ_conflicts_per_decision", "count"},
    {"front.scaling_4v1", "ratio"},
    {"admission.intervals_scanned_per_decision", "count"},
    {"admission.test_ns", "ns"},
    {"admission.reject_ratio", "ratio"},
    {"durable.append_us", "us"},
    {"durable.appends_per_decision", "count"},
    {"durable.batch_self_ns", "ns"},
    {"durable.bytes_per_decision", "B"},
    {"durable.replay_ns_per_record", "ns"},
    {"federation.member_rtt_us.admit", "us"},
    {"federation.member_rtt_us.prepare", "us"},
    {"federation.member_rtt_us.commit", "us"},
    {"federation.member_rtt_us.abort", "us"},
    {"federation.member_rtt_us.release", "us"},
    {"federation.member_calls_per_decision", "count"},
    {"federation.abort_ratio", "ratio"},
    {"federation.coordinator_self_us", "us"},
    {"federation.member_busy_frac", "ratio"},
    {"generator.busy_frac", "ratio"},
    {"generator.lateness_p99_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

bool parse(int argc, char** argv, pb::Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o->workload = v;
    } else if (const char* v = value("--seed=")) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      o->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      o->trace = std::atoi(v) != 0;
    } else if (const char* v = value("--dir=")) {
      o->dir = v;
    } else if (const char* v = value("--qosbbd=")) {
      o->qosbbd = v;
    } else {
      std::fprintf(stderr, "pb: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return !o->workload.empty() && !o->dir.empty() && !o->qosbbd.empty() &&
         o->seconds > 0.0;
}

void print_metrics(const Outcome& r, const MetricDef* defs, std::size_t n) {
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < n; ++i) {
    auto it = r.metrics.find(defs[i].name);
    double v = 0.0;
    if (it != r.metrics.end()) v = it->second.first;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Clock::time_point start = pb::Clock::now();
  if (argc == 2 && std::strcmp(argv[1], "selftest") == 0) {
    return pb::run_selftest();
  }
  pb::Options opt;
  opt.process_start = start;
  if (!parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: pb --workload=W --seed=N --seconds=S --trace=0|1 "
                 "--dir=RUN_DIR --qosbbd=PATH | pb selftest\n");
    return 2;
  }
  Outcome r;
  if (opt.workload == "mem_churn") {
    r = pb::run_server_workload(opt, false);
  } else if (opt.workload == "journal_churn") {
    r = pb::run_server_workload(opt, true);
  } else if (opt.workload == "fed_mixed") {
    r = pb::run_fed_workload(opt, false);
  } else if (opt.workload == "fed_inter") {
    r = pb::run_fed_workload(opt, true);
  } else if (opt.workload == "front_contended") {
    r = pb::run_front_workload(opt);
  } else {
    std::fprintf(stderr, "pb: unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  // End-to-end metrics are never 0 on a working run.
  for (const auto& m : kEndToEnd) {
    if (!opt.trace && !(r.value(m.name) > 0.0)) {
      r.violation(std::string("metric ") + m.name + " was not measured");
    }
  }
  for (const auto& [name, v] : r.metrics) {
    if (!std::isfinite(v.first)) r.violation("metric " + name + " not finite");
  }
  std::printf("{\"detail\": {");
  bool first = true;
  for (const auto& [k, v] : r.detail) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}, \"violations\": %zu}\n", r.violations.size());
  const bool correct = r.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, ",
              correct ? "true" : "false", r.attempted, r.failed);
  if (opt.trace) {
    print_metrics(r, kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  } else {
    print_metrics(r, kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  }
  std::printf("}\n");
  std::fflush(stdout);
  // A finished run exits 0 and reports its checks through "correct".
  return 0;
}
