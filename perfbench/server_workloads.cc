// mem_churn and journal_churn: the seeded admit/teardown stream against a
// real qosbbd (in-memory or --journal) over 4 pipelined connections.
//
// Load model. Every connection draws its own seeded request stream and
// tears a flow down once the connection has sent `kLifetime` more admits
// after it (an offered-load model: rejected admits age out like admitted
// ones, so the population settles where capacity allows and the reject
// share stays steady). The bottleneck is sized so the offered feasible
// load is about 1.09 times its capacity; one class is infeasible by its
// delay requirement and is always rejected.
//
// Phases: fill (admits only, untimed; ends set-up), closed loop (the
// throughput window), open loop at kOpenRate ops/s (latency timed from
// the moment each request was due), then the workload's ending: teardown
// of every held flow and a Health probe, plus a restart.

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "checks.h"
#include "core/wire.h"
#include "layers.h"
#include "net/client.h"
#include "net/framing.h"
#include "pb.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace qosbb;

constexpr int kPairs = 8;
constexpr int kConns = 4;
constexpr std::size_t kPipeline = 64;
constexpr const char* kBottleneckMbps = "1000";
constexpr const char* kAccessMbps = "10000";
// Offered feasible load is about 1.09× the bottleneck.
constexpr long kLifetime = 4700;
constexpr double kOpenRate = 20000.0;
// Closed-loop work per second of --seconds/2, near each mode's capacity on
// the reference host so the phase lasts about that long.
constexpr double kMemClosedOpsPerS = 150000.0;
constexpr double kJournalClosedOpsPerS = 40000.0;
// The server sheds past 1024 queued ops per connection; the open loop
// holds a late request back rather than cross that (its latency still
// counts from the due time).
constexpr std::size_t kOpenWindow = 512;
constexpr double kLmax = 12000.0;
constexpr int kJournalRestarts = 3;
constexpr int kGeneratorCpu = 0;
constexpr int kDaemonCpu = 1;

/// A request class: a traffic type of the paper's Table 1 with an
/// end-to-end delay requirement. On the 3-hop path the §3.1 rate is ρ for
/// the loose requirements and above ρ for the tighter ones; the last class
/// needs more than its peak rate and is always rejected.
struct FlowClass {
  double sigma, rho, peak, d_req, weight;
};
constexpr FlowClass kClasses[] = {
    {60000.0, 50000.0, 100000.0, 2.44, 0.35},  // r = ρ
    {48000.0, 40000.0, 100000.0, 1.0, 0.25},   // r ≈ 67500
    {36000.0, 30000.0, 100000.0, 0.5, 0.15},   // r ≈ 97600
    {24000.0, 20000.0, 100000.0, 0.75, 0.10},  // r ≈ 70000
    {60000.0, 50000.0, 100000.0, 2.19, 0.10},  // r = ρ
    {60000.0, 50000.0, 100000.0, 0.1, 0.05},   // r_min > P: rejected
};
constexpr int kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);

double path_d_tot() {
  const double bottleneck = std::atof(kBottleneckMbps) * 1e6;
  const double access = std::atof(kAccessMbps) * 1e6;
  return kLmax / access + kLmax / bottleneck + kLmax / access;
}

int draw_class(Rng& rng) {
  double u = rng.uniform();
  for (int c = 0; c < kNumClasses - 1; ++c) {
    if (u < kClasses[c].weight) return c;
    u -= kClasses[c].weight;
  }
  return kNumClasses - 1;
}

FlowServiceRequest make_request(int cls, int pair) {
  const FlowClass& k = kClasses[cls];
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(k.sigma, k.rho, k.peak, kLmax);
  req.e2e_delay_req = k.d_req;
  req.ingress = "I" + std::to_string(pair);
  req.egress = "E" + std::to_string(pair);
  return req;
}

/// Link indices: 0 = L->R (bottleneck), 1+k = Ik->L, 1+kPairs+k = R->Ek.
struct Topo {
  std::vector<double> capacity;
  Expected31 expected[kNumClasses];

  static std::array<int, 3> links(int pair) {
    return {1 + pair, 0, 1 + kPairs + pair};
  }
};

Topo make_topo() {
  Topo t;
  t.capacity.assign(1 + 2 * kPairs, std::atof(kAccessMbps) * 1e6);
  t.capacity[0] = std::atof(kBottleneckMbps) * 1e6;
  const double d_tot = path_d_tot();
  for (int c = 0; c < kNumClasses; ++c) {
    const FlowClass& k = kClasses[c];
    t.expected[c] =
        expected_3_1({3, d_tot}, k.sigma, k.rho, k.peak, kLmax, k.d_req);
  }
  return t;
}

std::vector<std::string> daemon_args(const std::string& journal) {
  std::vector<std::string> a = {"--topo=dumbbell",
                                "--pairs=" + std::to_string(kPairs),
                                std::string("--access-mbps=") + kAccessMbps,
                                std::string("--bottleneck-mbps=") +
                                    kBottleneckMbps};
  if (!journal.empty()) a.push_back("--journal=" + journal);
  return a;
}

struct Pending {
  bool admit = true;
  int cls = 0;
  int pair = 0;
  FlowId flow = kInvalidFlowId;
  double rate = 0.0;  ///< §3.1 rate (0 if infeasible), or the held rate
  long seq = 0;
  Clock::time_point start;  ///< send time (closed loop) or due time (open)
  bool open = false;
  double pot0[3] = {0, 0, 0};
  double cum0[3] = {0, 0, 0};
};

struct Held {
  FlowId flow;
  int pair;
  double rate;
  long seq;
};

struct Conn {
  explicit Conn(std::uint64_t seed) : rng(seed) {}
  BlockingClient client;
  int fd = -1;
  FrameDecoder decoder;
  WireBuffer out;
  std::size_t out_pos = 0;
  std::deque<Pending> pending;
  std::deque<Held> held;
  Rng rng;
  long admits_sent = 0;
};

enum class Phase { kFill, kClosed, kOpen, kDrain };

class LoadGen {
 public:
  /// `phase_s` is the nominal length of the closed and of the open loop.
  LoadGen(const Topo& topo, std::uint64_t seed, bool trace, double phase_s,
          Outcome* out)
      : closed_lat(phase_s / slice_count(phase_s), 4 * slice_count(phase_s)),
        open_lat(phase_s / slice_count(phase_s), slice_count(phase_s)),
        topo_(topo), trace_(trace), out_(out), ledger_(topo.capacity),
        pot_(topo.capacity.size(), 0.0), cum_(topo.capacity.size(), 0.0) {
    for (int c = 0; c < kConns; ++c) {
      conns_.emplace_back(seed * 1000003ULL + static_cast<std::uint64_t>(c));
    }
  }

  bool connect(int port, std::string* err) {
    for (Conn& c : conns_) {
      c.client.close();
      c.decoder = FrameDecoder();
      if (Status s = c.client.connect("127.0.0.1",
                                      static_cast<std::uint16_t>(port));
          !s.is_ok()) {
        *err = s.to_string();
        return false;
      }
      c.fd = c.client.fd();
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
    }
    return true;
  }

  /// Runs one phase to completion: sends while the phase allows, then
  /// waits for every reply. False if a connection broke.
  bool run(Phase phase, Clock::time_point t_end);

  long held_flows() const {
    long n = 0;
    for (const Conn& c : conns_) n += static_cast<long>(c.held.size());
    return n;
  }

  /// Ops the closed loop sends: fixed work, so the journal a run leaves
  /// (and with it recovery time and memory) does not depend on speed.
  long closed_budget = 0;
  long closed_sent = 0;

  // Accounting.
  long admits = 0, rejects = 0, teardown_acks = 0, ops_sent = 0;
  long window_decisions = 0, window_ops = 0;
  Clock::time_point window_start, window_end;
  SliceHist closed_lat, open_lat;  ///< decision latencies of the timed loops
  long open_decisions = 0;
  std::vector<double> lateness_us;
  Clock::time_point open_start;
  std::uint64_t bytes_out = 0, bytes_in = 0;
  std::vector<double> encode_ns, decode_ns;  // traced spans

 private:
  void send_op(Conn& c, Phase phase, Clock::time_point start);
  void send_admit(Conn& c, Clock::time_point start, bool open);
  void send_teardown(Conn& c, Clock::time_point start);
  bool flush(Conn& c);
  bool read_replies(Conn& c, Phase phase);
  void handle(Conn& c, const WireBuffer& payload, Phase phase);
  bool wants_send(const Conn& c, Phase phase) const;

  const Topo& topo_;
  bool trace_;
  Outcome* out_;
  std::deque<Conn> conns_;
  LinkLedger ledger_;
  std::vector<double> pot_;  ///< per link: rate that may be reserved now
  std::vector<double> cum_;  ///< per link: all rate ever sent as admits
};

bool LoadGen::wants_send(const Conn& c, Phase phase) const {
  if (c.pending.size() >= kPipeline) return false;
  switch (phase) {
    case Phase::kFill: return c.admits_sent < kLifetime;
    case Phase::kClosed: return closed_sent < closed_budget;
    case Phase::kDrain: return !c.held.empty();
    case Phase::kOpen: return false;
  }
  return false;
}

void LoadGen::send_op(Conn& c, Phase phase, Clock::time_point start) {
  if (phase == Phase::kClosed) ++closed_sent;
  const bool expired =
      !c.held.empty() && c.held.front().seq + kLifetime <= c.admits_sent;
  if (phase == Phase::kDrain || (phase != Phase::kFill && expired)) {
    send_teardown(c, start);
  } else {
    send_admit(c, start, phase == Phase::kOpen);
  }
}

void LoadGen::send_admit(Conn& c, Clock::time_point start, bool open) {
  const int cls = draw_class(c.rng);
  const int pair = static_cast<int>(c.rng.uniform_int(0, kPairs - 1));
  const FlowServiceRequest req = make_request(cls, pair);
  const auto t0 = Clock::now();
  const WireBuffer framed = frame_net_message(encode(req));
  if (trace_) {
    encode_ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  c.out.insert(c.out.end(), framed.begin(), framed.end());
  bytes_out += framed.size();
  Pending p;
  p.admit = true;
  p.cls = cls;
  p.pair = pair;
  p.rate = topo_.expected[cls].feasible ? topo_.expected[cls].rate : 0.0;
  p.seq = c.admits_sent++;
  p.start = start;
  p.open = open;
  const auto links = Topo::links(pair);
  for (int i = 0; i < 3; ++i) {
    const std::size_t l = static_cast<std::size_t>(links[i]);
    p.pot0[i] = pot_[l];
    pot_[l] += p.rate;
    cum_[l] += p.rate;
    p.cum0[i] = cum_[l];
  }
  c.pending.push_back(p);
  ++ops_sent;
}

void LoadGen::send_teardown(Conn& c, Clock::time_point start) {
  const Held h = c.held.front();
  c.held.pop_front();
  const auto links = Topo::links(h.pair);
  ledger_.remove({links.begin(), links.end()}, h.rate);
  const WireBuffer framed = frame_net_message(encode(TeardownRequest{h.flow}));
  c.out.insert(c.out.end(), framed.begin(), framed.end());
  bytes_out += framed.size();
  Pending p;
  p.admit = false;
  p.pair = h.pair;
  p.flow = h.flow;
  p.rate = h.rate;
  p.start = start;
  c.pending.push_back(p);
  ++ops_sent;
}

bool LoadGen::flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n =
        ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

bool LoadGen::read_replies(Conn& c, Phase phase) {
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_in += static_cast<std::uint64_t>(n);
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      while (true) {
        auto frame = c.decoder.next();
        if (!frame.is_ok()) {
          if (frame.status().code() != StatusCode::kNeedMoreData) {
            out_->violation("reply stream corrupt: " +
                            frame.status().to_string());
            return false;
          }
          break;
        }
        handle(c, frame.value(), phase);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // closed or failed: the pending ops lost their replies
  }
}

void LoadGen::handle(Conn& c, const WireBuffer& payload, Phase phase) {
  const auto now = Clock::now();
  if (c.pending.empty()) {
    out_->violation("a reply arrived with no request outstanding");
    return;
  }
  const Pending p = c.pending.front();
  c.pending.pop_front();
  const bool in_window = phase == Phase::kClosed;
  if (in_window) window_end = now;
  if (in_window) ++window_ops;
  const auto t0 = Clock::now();
  auto type = peek_type(payload);
  const auto links = Topo::links(p.pair);
  auto unpot = [&](double rate) {
    for (int l : links) pot_[static_cast<std::size_t>(l)] -= rate;
  };
  if (!type.is_ok()) {
    out_->fail_op("undecodable reply");
    return;
  }
  if (!p.admit) {
    auto ack = decode_reject_reply(payload);
    if (type.value() == MessageType::kRejectReply && ack.is_ok() &&
        ack.value().reason == RejectReason::kNone) {
      unpot(p.rate);
      ++teardown_acks;
    } else {
      out_->fail_op("teardown of flow " + std::to_string(p.flow) +
                    " not acked");
    }
    return;
  }
  const double lat_us =
      std::chrono::duration<double, std::micro>(now - p.start).count();
  if (type.value() == MessageType::kReservationReply) {
    auto res = decode_reservation(payload);
    if (trace_) {
      decode_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
    if (!res.is_ok()) {
      out_->fail_op("undecodable reservation");
      return;
    }
    const Reservation& r = res.value();
    ++admits;
    if (std::string e = check_reservation(topo_.expected[p.cls],
                                          r.params.rate, r.e2e_bound);
        !e.empty()) {
      out_->violation(e);
    }
    if (std::string e = ledger_.add({links.begin(), links.end()},
                                    r.params.rate);
        !e.empty()) {
      out_->violation(e);
    }
    if (r.params.rate != p.rate) unpot(p.rate - r.params.rate);
    c.held.push_back(Held{r.flow, p.pair, r.params.rate, p.seq});
  } else if (type.value() == MessageType::kRejectReply) {
    auto rej = decode_reject_reply(payload);
    if (trace_) {
      decode_ns.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
    if (!rej.is_ok()) {
      out_->fail_op("undecodable reject");
      return;
    }
    ++rejects;
    std::vector<double> cap(3), charge(3);
    for (int i = 0; i < 3; ++i) {
      const std::size_t l = static_cast<std::size_t>(links[i]);
      cap[i] = topo_.capacity[l];
      charge[i] = p.pot0[i] + (cum_[l] - p.cum0[i]);
    }
    if (std::string e = check_reject(topo_.expected[p.cls], cap, charge);
        !e.empty()) {
      out_->violation(e + " (" + reject_reason_name(rej.value().reason) +
                      ")");
    }
    unpot(p.rate);
  } else {
    // kOverloadedReply (a shed) or anything else: no decision was made.
    unpot(p.rate);
    out_->fail_op(type.value() == MessageType::kOverloadedReply
                      ? "admit shed by the server"
                      : "unexpected reply type to an admit");
    return;
  }
  if (in_window) {
    ++window_decisions;
    closed_lat.add(seconds_between(window_start, now), lat_us);
  }
  if (p.open) {
    open_lat.add(seconds_between(open_start, p.start), lat_us);
    ++open_decisions;
  }
}

bool LoadGen::run(Phase phase, Clock::time_point t_end) {
  const auto start = Clock::now();
  if (phase == Phase::kClosed) window_start = window_end = start;
  if (phase == Phase::kOpen) open_start = start;
  long open_seq = 0;
  const double open_interval = 1.0 / kOpenRate;
  auto due_of = [&](long j) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(j) * open_interval));
  };
  std::vector<pollfd> fds(conns_.size());
  while (true) {
    auto now = Clock::now();
    bool more = false;
    if (phase == Phase::kOpen) {
      // Send every op that is due (in order), unless its connection is at
      // its in-flight cap; a held-back op stays due and its latency grows.
      while (true) {
        const auto due = due_of(open_seq);
        if (due >= t_end) break;
        more = true;
        if (due > now) break;
        Conn& c = conns_[static_cast<std::size_t>(open_seq % kConns)];
        if (c.pending.size() >= kOpenWindow) break;
        send_op(c, phase, due);
        lateness_us.push_back(
            std::chrono::duration<double, std::micro>(now - due).count());
        ++open_seq;
      }
    } else {
      for (Conn& c : conns_) {
        while (wants_send(c, phase)) send_op(c, phase, now);
        more = more || (phase == Phase::kClosed && closed_sent < closed_budget) ||
               (phase == Phase::kFill && c.admits_sent < kLifetime) ||
               (phase == Phase::kDrain && !c.held.empty());
      }
    }
    bool outstanding = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (!flush(c)) {
        out_->violation("connection broke while sending");
        return false;
      }
      fds[i].fd = c.fd;
      fds[i].events = static_cast<short>(
          POLLIN | (c.out_pos < c.out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
      if (!c.pending.empty()) outstanding = true;
    }
    if (!more && !outstanding) return true;
    // The open loop polls without sleeping: the generator has its own CPU,
    // and waking it from idle would add the host's wake-up latency to
    // every measured request.
    timespec ts{0, phase == Phase::kOpen ? 0 : 2000000};
    const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (rc < 0 && errno != EINTR) return false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!read_replies(conns_[i], phase)) {
          for (const Pending& p : conns_[i].pending) {
            out_->fail_op(std::string(p.admit ? "admit" : "teardown") +
                          " lost its reply (connection closed)");
          }
          conns_[i].pending.clear();
          out_->violation("connection closed by the server");
          return false;
        }
      }
    }
    if (Clock::now() > t_end + std::chrono::seconds(60)) {
      out_->violation("phase did not drain within 60 s");
      return false;
    }
  }
}

Result<HealthReply> probe_health(int port) {
  RetryingClientOptions o;
  o.port = static_cast<std::uint16_t>(port);
  o.reply_timeout_ms = 5000;
  o.max_attempts = 3;
  RetryingClient client(o);
  return client.health();
}

Result<SnapshotDigestReply> probe_digest(int port) {
  RetryingClientOptions o;
  o.port = static_cast<std::uint16_t>(port);
  o.reply_timeout_ms = 20000;
  o.max_attempts = 3;
  RetryingClient client(o);
  return client.snapshot_digest();
}

/// Launch qosbbd and wait until it answers a Health request: the
/// restart-to-service time.
double timed_start(Daemon& d, const Options& opt,
                   const std::vector<std::string>& args,
                   const std::string& tag, Outcome* out) {
  const auto t0 = Clock::now();
  std::string err;
  if (!d.start(opt.qosbbd, args, opt.dir + "/" + tag + ".port",
               opt.dir + "/" + tag + ".log", kDaemonCpu, 120000, &err)) {
    out->violation(err);
    return 0.0;
  }
  if (auto h = probe_health(d.port()); !h.is_ok()) {
    out->violation("restarted qosbbd did not answer: " + h.status().to_string());
    return 0.0;
  }
  return seconds_between(t0, Clock::now());
}

void check_drained(int port, Outcome* out, const char* when) {
  auto h = probe_health(port);
  if (!h.is_ok()) {
    out->violation(std::string("Health probe failed ") + when + ": " +
                   h.status().to_string());
  } else if (h.value().live_flows != 0) {
    out->violation(std::string("Health reports ") +
                   std::to_string(h.value().live_flows) + " live flows " +
                   when + " every held flow was torn down");
  }
}

/// One full pass of the workload. `seconds` splits evenly between the
/// closed and the open loop.
Outcome server_pass(const Options& opt, bool journal, bool traced,
                    double seconds, const std::string& tag) {
  Outcome out;
  const Topo topo = make_topo();
  const std::string journal_path =
      journal ? opt.dir + "/" + tag + ".journal" : std::string();
  const auto args = daemon_args(journal_path);
  pin_thread(kGeneratorCpu);

  Daemon d;
  std::string err;
  if (!d.start(opt.qosbbd, args, opt.dir + "/" + tag + ".port",
               opt.dir + "/" + tag + ".log", kDaemonCpu, 20000, &err)) {
    out.violation(err);
    return out;
  }
  LoadGen drv(topo, opt.seed, traced, seconds / 2, &out);
  if (!drv.connect(d.port(), &err)) {
    out.violation(err);
    return out;
  }
  bool ok = drv.run(Phase::kFill, Clock::now() + std::chrono::hours(1));
  const auto fill_end = Clock::now();
  out.metric("setup_s", seconds_between(opt.process_start, fill_end), "s");

  const double cpu0 = proc_cpu_s(d.pid());
  const double gen0 = thread_cpu_s();
  drv.closed_budget = static_cast<long>(
      (journal ? kJournalClosedOpsPerS : kMemClosedOpsPerS) * seconds / 2);
  const double steal0 = host_steal_s();
  ok = ok && drv.run(Phase::kClosed, Clock::now());
  const double window = seconds_between(drv.window_start, drv.window_end);
  const double server_cpu = proc_cpu_s(d.pid()) - cpu0;
  const double gen_cpu = thread_cpu_s() - gen0;
  const auto open_start = Clock::now();
  ok = ok && drv.run(Phase::kOpen,
                     open_start +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds / 2)));

  const Sliced closed = drv.closed_lat.result(window, true);
  const Sliced open = drv.open_lat.result(seconds / 2, false);
  out.metric("decisions_per_s", closed.rate, "1/s");
  out.metric("decision_p50_us", open.p50_us, "us");
  detail_slices(closed, open, host_steal_s() - steal0,
                seconds_between(drv.window_start, Clock::now()), &out);
  out.detail["closed_p50_us"] = closed.p50_us;
  out.detail["closed_p99_us"] = closed.p99_us;
  out.detail["window_mean_decisions_per_s"] =
      ratio(static_cast<double>(drv.window_decisions), window);
  out.detail["open_decisions"] = static_cast<double>(drv.open_decisions);
  out.detail["window_decisions"] = static_cast<double>(drv.window_decisions);
  out.detail["live_population"] = static_cast<double>(drv.held_flows());
  const long decisions = drv.admits + drv.rejects;

  double peak_rss = vm_hwm_mb(d.pid());
  if (!journal) {
    if (ok) ok = drv.run(Phase::kDrain, Clock::now());
    if (ok) check_drained(d.port(), &out, "after");
    peak_rss = vm_hwm_mb(d.pid());
    if (!d.stop()) out.violation("qosbbd did not exit cleanly on SIGTERM");
  } else {
    auto live = probe_digest(d.port());
    if (!live.is_ok()) out.violation("live digest: " + live.status().to_string());
    peak_rss = vm_hwm_mb(d.pid());
    if (!d.stop()) out.violation("qosbbd did not exit cleanly on SIGTERM");
    if (traced) {
      out.metric("durable.bytes_per_decision",
                 ratio(static_cast<double>(file_size(journal_path)),
                       static_cast<double>(decisions)),
                 "B");
      copy_file(journal_path, opt.dir + "/" + tag + ".journal.copy");
    }
    // Each restart replays the same journal (probes append nothing); the
    // last one serves the rest of the run.
    std::vector<double> trials;
    Daemon r;
    for (int i = 0; i < kJournalRestarts; ++i) {
      if (i > 0 && !r.stop()) out.violation("restarted qosbbd did not exit");
      trials.push_back(timed_start(r, opt, args,
                                   tag + "-restart" + std::to_string(i),
                                   &out));
      peak_rss = std::max(peak_rss, vm_hwm_mb(r.pid()));
    }
    out.detail["recovery_s"] = quantile(trials, 0.5);
    if (r.pid() > 0) {
      auto back = probe_digest(r.port());
      if (!back.is_ok()) {
        out.violation("recovered digest: " + back.status().to_string());
      } else if (live.is_ok()) {
        if (std::string e = check_recovery_digest(live.value().digest,
                                                  back.value().digest);
            !e.empty()) {
          out.violation(e);
        }
      }
      if (ok) ok = drv.connect(r.port(), &err);
      if (ok) ok = drv.run(Phase::kDrain, Clock::now());
      if (ok) check_drained(r.port(), &out, "after");
      peak_rss = std::max(peak_rss, vm_hwm_mb(r.pid()));
      if (!r.stop()) out.violation("restarted qosbbd did not exit cleanly");
    }
  }
  if (!ok) out.violation("the load did not run to its end");
  out.metric("peak_rss_mb", peak_rss, "MB");

  out.attempted = drv.ops_sent;
  out.detail["admits"] = static_cast<double>(drv.admits);
  out.detail["rejects"] = static_cast<double>(drv.rejects);
  out.detail["teardown_acks"] = static_cast<double>(drv.teardown_acks);

  if (traced) {
    const auto drain = parse_log_line(d.log(), "qosbbd: drained.");
    auto num = [&](const char* k) {
      auto it = drain.find(k);
      return it == drain.end() ? 0.0 : std::atof(it->second.c_str());
    };
    out.metric("net.server_busy_frac", ratio(server_cpu, window), "ratio");
    out.metric("net.server_cpu_us_per_op",
               ratio(server_cpu * 1e6, static_cast<double>(drv.window_ops)),
               "us");
    out.metric("net.admits_per_batch",
               ratio(num("batched_requests"), num("batches")), "count");
    out.metric("net.backpressure_pauses", num("backpressure_pauses"),
               "count");
    out.metric("wire.bytes_per_op",
               ratio(static_cast<double>(drv.bytes_in + drv.bytes_out),
                     static_cast<double>(drv.ops_sent)),
               "B");
    out.metric("generator.busy_frac", ratio(gen_cpu, window), "ratio");
    out.metric("generator.lateness_p99_us", quantile(drv.lateness_us, 0.99),
               "us");
    out.metric("admission.reject_ratio",
               ratio(static_cast<double>(drv.rejects),
                     static_cast<double>(decisions)),
               "ratio");
    out.detail["client_encode_ns"] = mean(drv.encode_ns);
    out.detail["client_decode_ns"] = mean(drv.decode_ns);
  }
  return out;
}

Churn dumbbell_churn(std::uint64_t seed) {
  DumbbellOptions o;
  o.edge_pairs = kPairs;
  o.access_capacity = std::atof(kAccessMbps) * 1e6;
  o.bottleneck_capacity = std::atof(kBottleneckMbps) * 1e6;
  Churn c;
  c.spec = dumbbell_topology(o);
  for (int k = 0; k < kPairs; ++k) {
    c.pairs.emplace_back("I" + std::to_string(k), "E" + std::to_string(k));
  }
  c.draw = [](Rng& rng) {
    const int cls = draw_class(rng);
    return make_request(cls, static_cast<int>(rng.uniform_int(0, kPairs - 1)));
  };
  c.lifetime = kConns * kLifetime;
  c.seed = seed;
  return c;
}

}  // namespace

Outcome run_server_workload(const Options& opt, bool journal) {
  if (!opt.trace) return server_pass(opt, journal, false, opt.seconds, "run");
  // Traced run: an untraced and a traced pass of half the length each
  // (their throughput ratio is the tracing overhead), then the in-process
  // layer replays.
  Outcome base = server_pass(opt, journal, false, opt.seconds / 2, "base");
  Outcome out = server_pass(opt, journal, true, opt.seconds / 2, "traced");
  out.attempted += base.attempted;
  out.failed += base.failed;
  for (auto& v : base.violations) out.violations.push_back(v);
  out.metric("trace.overhead_ratio",
             ratio(out.value("decisions_per_s"), base.value("decisions_per_s")),
             "ratio");
  const Churn churn = dumbbell_churn(opt.seed);
  layer_wire(churn, 1.0, &out);
  layer_front(churn, 1.0, &out);
  layer_admission(churn, 1.0, &out);
  if (journal) {
    layer_durable(churn, 1.5, opt.dir + "/layer.journal", &out);
    layer_journal_replay(churn.spec, opt.dir + "/traced.journal.copy", &out);
  }
  return out;
}

}  // namespace pb
