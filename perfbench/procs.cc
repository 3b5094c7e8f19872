// Child processes and /proc readings.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "pb.h"

extern char** environ;

namespace pb {

void Outcome::violation(std::string what) {
  std::fprintf(stderr, "pb: CHECK FAILED: %s\n", what.c_str());
  if (violations.size() < 64) violations.push_back(std::move(what));
}

void Outcome::fail_op(const std::string& what) {
  ++failed;
  if (failed <= 10) std::fprintf(stderr, "pb: failed op: %s\n", what.c_str());
}

double Outcome::value(const std::string& name) const {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second.first;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  if (cpu != "cpu") return 0.0;
  return v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void detail_slices(const Sliced& rate, const Sliced& lat, double stolen_s,
                   double window, Outcome* out) {
  out->detail["decision_p99_us"] = lat.p99_us;
  out->detail["slice_median_decisions_per_s"] = rate.rate_median;
  out->detail["slice_median_p50_us"] = lat.p50_median_us;
  out->detail["slice_median_p99_us"] = lat.p99_median_us;
  const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  out->detail["host_steal_frac"] = ratio(stolen_s, window * cpus);
}

SliceHist::SliceHist(double slice_s, int max_slices)
    : width_(slice_s),
      slices_(max_slices),
      counts_(static_cast<std::size_t>(max_slices) * kBins, 0) {}

void SliceHist::add(double t, double lat_us) {
  const int s = static_cast<int>(t / width_);
  if (s < 0 || s >= slices_) return;
  const double x = std::log(std::max(lat_us, 0.01) / 0.01) / std::log(1.01);
  const int b = std::min(kBins - 1, static_cast<int>(x));
  ++counts_[static_cast<std::size_t>(s) * kBins + static_cast<std::size_t>(b)];
}

void SliceHist::merge(const SliceHist& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

Sliced SliceHist::result(double window, bool calm) const {
  const int full = std::clamp(static_cast<int>(window / width_ + 1e-9), 1,
                              slices_);
  struct Slice {
    double n, p50, p99;
  };
  std::vector<Slice> all;
  for (int s = 0; s < full; ++s) {
    const std::uint32_t* c = &counts_[static_cast<std::size_t>(s) * kBins];
    double n = 0.0;
    for (int b = 0; b < kBins; ++b) n += c[b];
    auto q = [&](double quant) {
      const double rank = quant * (n - 1.0);
      double seen = 0.0;
      for (int b = 0; b < kBins; ++b) {
        seen += c[b];
        if (seen > rank) return 0.01 * std::pow(1.01, b + 0.5);
      }
      return 0.01 * std::pow(1.01, kBins);
    };
    all.push_back({n, n > 0.0 ? q(0.50) : 0.0, n > 0.0 ? q(0.99) : 0.0});
  }
  auto medians = [&](const std::vector<Slice>& v, double* rate, double* p50,
                     double* p99) {
    std::vector<double> r, a, b;
    for (const Slice& s : v) {
      r.push_back(s.n / width_);
      if (s.n == 0.0) continue;
      a.push_back(s.p50);
      b.push_back(s.p99);
    }
    *rate = quantile(r, 0.5);
    *p50 = quantile(a, 0.5);
    *p99 = quantile(b, 0.5);
  };
  Sliced out;
  medians(all, &out.rate_median, &out.p50_median_us, &out.p99_median_us);
  if (!calm) {
    out.rate = out.rate_median;
    out.p50_us = out.p50_median_us;
    out.p99_us = out.p99_median_us;
    return out;
  }
  std::vector<double> counts;
  for (const Slice& s : all) counts.push_back(s.n);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const double cut = counts[std::max<std::size_t>(1, counts.size() / 4) - 1];
  std::vector<Slice> busiest;
  for (const Slice& s : all) {
    if (s.n >= cut) busiest.push_back(s);
  }
  medians(busiest, &out.rate, &out.p50_us, &out.p99_us);
  return out;
}

Daemon::~Daemon() { kill_now(); }

void pin_thread(int cpu) {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % std::max(1L, n)), &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

bool Daemon::start(const std::string& bin, std::vector<std::string> args,
                   const std::string& port_file, const std::string& log,
                   int cpu, int wait_ms, std::string* err) {
  ::unlink(port_file.c_str());
  log_ = log;
  args.insert(args.begin(), bin);
  args.push_back("--port=0");
  args.push_back("--port-file=" + port_file);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawn_file_actions_addclose(&fa, 0);
  // The child inherits the spawning thread's CPU mask.
  cpu_set_t saved;
  ::sched_getaffinity(0, sizeof(saved), &saved);
  pin_thread(cpu);
  const int rc =
      posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
  ::sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    *err = "spawn " + bin + ": " + std::strerror(rc);
    return false;
  }
  // The daemon writes the port file after it listens and provisions.
  const auto deadline = Clock::now() + std::chrono::milliseconds(wait_ms);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *err = "qosbbd exited during start-up (see " + log + ")";
      return false;
    }
    std::ifstream pf(port_file);
    int port = 0;
    if (pf >> port && port > 0) {
      port_ = port;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  *err = "qosbbd wrote no port file within " + std::to_string(wait_ms) + " ms";
  kill_now();
  return false;
}

bool Daemon::stop(int wait_ms) {
  if (pid_ < 0) return false;
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(wait_ms);
  while (Clock::now() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::fprintf(stderr, "pb: qosbbd %d ignored SIGTERM; killing\n", pid_);
  kill_now();
  return false;
}

void Daemon::kill_now() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

double vm_hwm_mb(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double proc_cpu_s(pid_t pid) {
  const std::string s = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream in(s.substr(rp + 2));
  std::string field;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::map<std::string, std::string> parse_log_line(const std::string& path,
                                                  const std::string& marker) {
  std::istringstream in(read_file(path));
  std::string line, found;
  while (std::getline(in, line)) {
    if (line.find(marker) != std::string::npos) found = line;
  }
  std::map<std::string, std::string> kv;
  std::istringstream words(found);
  std::string w;
  while (words >> w) {
    const std::size_t eq = w.find('=');
    if (eq != std::string::npos) kv[w.substr(0, eq)] = w.substr(eq + 1);
  }
  return kv;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

bool copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
  return static_cast<bool>(out);
}

}  // namespace pb
