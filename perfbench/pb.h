// Shared declarations of the signaling-path benchmark's load program `pb`.
//
// One `pb` process runs one workload: it starts the qosbbd daemons the
// workload needs (or builds the broker in-process), drives the seeded load,
// checks the outputs against computations of its own, and prints one JSON
// result line. run.py builds pb, gives it a fresh run directory, and
// guards the process group it runs in.

#ifndef PERFBENCH_PB_H_
#define PERFBENCH_PB_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;     ///< fresh per-run directory (journals, logs, ports)
  std::string qosbbd;  ///< daemon binary
  Clock::time_point process_start;
};

/// What one workload pass observed: metrics by name, the operation
/// accounting, and every failed correctness check (any makes the run
/// incorrect).
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> detail;

  void metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void violation(std::string what);
  void fail_op(const std::string& what);
  double value(const std::string& name) const;
};

/// The figures of one timed window (see SliceHist::result), and the plain
/// medians over all its slices.
struct Sliced {
  double rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double rate_median = 0.0;
  double p50_median_us = 0.0;
  double p99_median_us = 0.0;
};

/// CPU-seconds the hypervisor has stolen from this machine so far, summed
/// over its CPUs (the `steal` column of /proc/stat's `cpu` line).
double host_steal_s();

/// Puts the latency p99 of `lat`, the slice medians of `rate` and `lat`,
/// and the share of the CPUs stolen during the `window` seconds
/// (`stolen_s` CPU-seconds) on the detail line.
void detail_slices(const Sliced& rate, const Sliced& lat, double stolen_s,
                   double window, Outcome* out);

/// Slices of about one second each for a timed window, at least 4.
inline int slice_count(double window) {
  return window < 4.0 ? 4 : static_cast<int>(window + 0.5);
}

/// Decision latencies recorded per time slice of `slice_s` seconds (up to
/// `max_slices`), each slice a histogram of 1% wide logarithmic bins. Fixed
/// memory keeps the recording from growing the process.
class SliceHist {
 public:
  SliceHist(double slice_s, int max_slices);
  void add(double t, double lat_us);
  void merge(const SliceHist& other);
  /// Over the slices that end within `window`: the medians of the decision
  /// rate and of the latency percentiles. With `calm`, only over the
  /// quarter of the slices that decided most (slices tied with the
  /// quarter's smallest count join it). The shared reference host is a VM
  /// that at times loses a third or more of its CPUs to the hypervisor for
  /// tens of seconds; every cross-CPU round trip then slows, the rate falls
  /// by half or more and p99 multiplies. Calm slices keep such an episode,
  /// up to three quarters of a run long, from moving the figures, while a
  /// slowdown of the program itself moves every slice. (A stall of the
  /// program that strikes fewer than a quarter of the slices does not
  /// show.) Without `calm`, for an open loop whose rate is fixed, over all.
  Sliced result(double window, bool calm) const;

 private:
  static constexpr int kBins = 2400;  ///< 0.01 us .. 2.3e8 us
  double width_;
  int slices_;
  std::vector<std::uint32_t> counts_;  ///< slices × kBins
};

/// a / b, or 0 when nothing was counted.
inline double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Linear-interpolated quantile of an unsorted sample (sorts in place).
double quantile(std::vector<double>& v, double q);
double mean(const std::vector<double>& v);

// ---- processes (procs.cc) ----

/// A qosbbd child. Killed and reaped by the destructor on every exit path.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn `bin args... --port=0 --port-file=<port_file>` on CPU `cpu`,
  /// with stdout and stderr appended to `log`, then wait (bounded) for the
  /// port file.
  bool start(const std::string& bin, std::vector<std::string> args,
             const std::string& port_file, const std::string& log, int cpu,
             int wait_ms, std::string* err);
  /// SIGTERM, bounded wait, SIGKILL fallback. True iff it exited 0.
  bool stop(int wait_ms = 20000);
  void kill_now();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }
  const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::string log_;
};

/// Pin the calling thread to one CPU (taken modulo the CPU count). Every
/// process and load thread of a run gets its own CPU where there are
/// enough, so that placement does not differ from run to run.
void pin_thread(int cpu);

/// Peak resident set (VmHWM) of a live process, in MiB; 0 if unreadable.
double vm_hwm_mb(pid_t pid);
/// utime + stime of a process, in seconds.
double proc_cpu_s(pid_t pid);
/// CPU time of the calling thread / process, in seconds.
double thread_cpu_s();
double process_cpu_s();
/// key=value pairs of the last line of `path` that contains `marker`.
std::map<std::string, std::string> parse_log_line(const std::string& path,
                                                  const std::string& marker);
std::uint64_t file_size(const std::string& path);
bool copy_file(const std::string& from, const std::string& to);

// ---- workloads ----
Outcome run_server_workload(const Options& opt, bool journal);
Outcome run_fed_workload(const Options& opt, bool inter);
Outcome run_front_workload(const Options& opt);

// ---- self-test of the output checks (checks.cc) ----
int run_selftest();

}  // namespace pb

#endif  // PERFBENCH_PB_H_
