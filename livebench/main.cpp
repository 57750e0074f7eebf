// Live-path benchmark: n=4 in-process net::LiveNode replicas over
// loopback TCP, in payment mode, with real secp256k1 ECDSA on votes and
// transactions and no injected delay (latency is CPU plus protocol
// cadence). Pre-signed independent payments arrive on an open loop
// through the replicas' client gateways; commit time is observed from
// outside, through each replica's committed floor. A run is five
// trials, each a fresh cluster in a child process. See README.md.
//
//   zlb_livebench --workload steady --seed 1 --seconds 15 --trace 0
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones. Diagnostics go to stderr.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "livebench.hpp"
#include "net/frame.hpp"
#include "net/live_node.hpp"
#include "net/socket.hpp"

namespace zlb::livebench {
namespace {

using namespace std::chrono_literals;
using net::LiveNode;
using net::LiveNodeConfig;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- workloads ---------------------------------------------------------

constexpr std::size_t kCommittee = 4;
/// Clusters set up per run, one after another, each measured for an
/// equal share of the window: independent trials whose medians the run
/// reports.
constexpr int kTrials = 5;

struct Workload {
  const char* name;
  double rate;                    ///< offered payments per second
  std::size_t genesis;            ///< genesis UTXOs (floor: the coins spent)
  bool journal;                   ///< per-replica on-disk journal
  std::uint64_t checkpoint_interval;
  std::size_t standbys;
  std::vector<ReplicaId> colluders;
  InstanceId equivocate_from;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"steady", 400, 0, false, 0, 0, {}, 0},
      {"durable", 400, 200'000, true, 32, 0, {}, 0},
      {"saturate", 1200, 0, false, 0, 0, {}, 0},
      {"reconfig", 200, 0, false, 16, 2, {2, 3}, 30},
  };
  return kAll;
}

// --- cluster -------------------------------------------------------------

/// Committee 0..3 plus the workload's standbys, each replica on its own
/// thread. The destructor stops every node and joins its thread, on
/// every exit path. Replicas are built here rather than by LiveCluster
/// because LiveCluster copies one journal_path to every node.
class Cluster {
 public:
  Cluster(const Workload& w, const Payments& pay,
          const std::filesystem::path& dir) {
    LiveNodeConfig base;
    base.instances = 1'000'000;  // unbounded; the harness stops the nodes
    base.real_blocks = true;
    base.checkpoint.interval = w.checkpoint_interval;
    for (ReplicaId i = 0; i < kCommittee; ++i) base.committee.push_back(i);
    for (std::size_t i = 0; i < w.standbys; ++i) {
      base.pool.push_back(static_cast<ReplicaId>(kCommittee + i));
    }
    std::map<ReplicaId, std::uint16_t> ports;
    for (ReplicaId i = 0; i < kCommittee + w.standbys; ++i) {
      LiveNodeConfig cfg = base;
      cfg.me = i;
      cfg.standby = i >= kCommittee;
      if (std::count(w.colluders.begin(), w.colluders.end(), i) != 0) {
        cfg.byzantine_equivocate = true;
        cfg.equivocate_from = w.equivocate_from;
      }
      if (w.journal) {
        cfg.journal_path = (dir / ("node" + std::to_string(i) + ".wal")).string();
      }
      nodes_.push_back(std::make_unique<LiveNode>(cfg));
      ports[i] = nodes_.back()->port();
    }
    // Every replica mints the same genesis; one thread per replica.
    std::vector<std::thread> minters;
    for (auto& node : nodes_) {
      node->set_peer_ports(ports);
      minters.emplace_back([&node, &pay, &w] {
        mint_genesis(node->block_manager().utxos(), pay, w.genesis);
      });
    }
    for (auto& t : minters) t.join();
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start() {
    for (auto& node : nodes_) {
      threads_.emplace_back([n = node.get()] { n->run(170s); });
    }
  }
  /// Stops and joins every replica; run() flushes its commit pipeline.
  void stop() {
    for (auto& node : nodes_) node->stop();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  [[nodiscard]] LiveNode& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::vector<std::thread> threads_;
};

// --- open-loop generator ------------------------------------------------

/// Per-payment timestamps; -1 = did not happen.
struct TxTimes {
  std::vector<std::int64_t> due, sent, acked;
  std::vector<std::uint8_t> status;  ///< net::SubmitStatus, 0 = no ACK
};

std::optional<net::Fd> connect_gateway(std::uint16_t port) {
  const std::int64_t deadline = now_ns() + 10'000'000'000;
  while (now_ns() < deadline) {
    auto fd = net::connect_loopback(port);
    if (fd) {
      pollfd p{fd->get(), POLLOUT, 0};
      if (::poll(&p, 1, 1000) > 0 && net::connect_finished(*fd)) {
        return std::move(*fd);
      }
    }
    std::this_thread::sleep_for(10ms);
  }
  return std::nullopt;
}

/// One thread, one non-blocking connection per gateway: writes each
/// framed payment at its due time and collects ACKs without blocking
/// on them (a gateway answers in order per connection). Returns false
/// if a connection failed.
bool run_generator(const Payments& pay, std::size_t lo,
                   std::vector<net::Fd>& conns, TxTimes& times,
                   std::int64_t ack_deadline_after_ns) {
  struct Conn {
    Bytes out;
    std::size_t offset = 0;
    std::deque<std::pair<std::size_t, std::size_t>> unsent;  ///< (tx, end)
    std::deque<std::size_t> awaiting;
    net::FrameDecoder decoder;
  };
  std::vector<Conn> cs(conns.size());
  const std::size_t n = times.due.size();
  std::size_t next = 0;
  std::size_t answered = 0;
  const std::int64_t give_up =
      (n == 0 ? now_ns() : times.due[n - 1]) + ack_deadline_after_ns;
  std::vector<pollfd> fds(conns.size());

  while (answered < n && now_ns() < give_up) {
    const std::int64_t now = now_ns();
    while (next < n && times.due[next] <= now) {
      Conn& c = cs[pay.target[lo + next]];
      const Bytes& frame = pay.frames[lo + next];
      c.out.insert(c.out.end(), frame.begin(), frame.end());
      c.unsent.emplace_back(next, c.out.size());
      ++next;
    }
    for (std::size_t j = 0; j < cs.size(); ++j) {
      Conn& c = cs[j];
      if (c.offset < c.out.size()) {
        if (net::write_some(conns[j], c.out, c.offset) == net::IoStatus::kError) {
          return false;
        }
        const std::int64_t t = now_ns();
        while (!c.unsent.empty() && c.unsent.front().second <= c.offset) {
          times.sent[c.unsent.front().first] = t;
          c.awaiting.push_back(c.unsent.front().first);
          c.unsent.pop_front();
        }
        if (c.offset == c.out.size()) {
          c.out.clear();
          c.offset = 0;
        }
      }
      fds[j] = pollfd{conns[j].get(),
                      static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                      0};
    }
    std::int64_t wait_ns = 20'000'000;
    if (next < n) wait_ns = std::max<std::int64_t>(0, times.due[next] - now_ns());
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) return false;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if ((fds[j].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Bytes chunk;
      const net::IoStatus st = net::read_available(conns[j], chunk);
      if (st == net::IoStatus::kClosed || st == net::IoStatus::kError) return false;
      const std::int64_t t = now_ns();
      Conn& c = cs[j];
      const bool ok = c.decoder.feed(
          BytesView(chunk.data(), chunk.size()), [&](BytesView payload) {
            if (c.awaiting.empty() || payload.size() != 1) return;
            const std::size_t i = c.awaiting.front();
            c.awaiting.pop_front();
            times.acked[i] = t;
            times.status[i] = payload[0];
            ++answered;
          });
      if (!ok) return false;
    }
  }
  return true;
}

// --- floor poller ---------------------------------------------------------

struct Probe {
  std::vector<FloorStep> floors;
  std::int64_t epoch1_ns = -1;  ///< first poll seeing epoch >= 1 and active
  std::size_t depth_max = 0;
  std::size_t parked_max = 0;
};

/// Light poller: records every advance of each replica's committed
/// floor (1 ms resolution). Traced runs also sample pipeline gauges.
class Poller {
 public:
  Poller(Cluster& cluster, bool trace)
      : cluster_(cluster), trace_(trace), probes_(cluster.size()) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Poller() { stop(); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Callers stop the poller once every ledger holds what they wait
  /// for; the final sample sees any floor advance since the last tick.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid once stop() returned.
  [[nodiscard]] const std::vector<Probe>& probes() const { return probes_; }

 private:
  void loop() {
    while (!stop_.load()) {
      sample();
      std::this_thread::sleep_for(1ms);
    }
    sample();
  }

  void sample() {
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < probes_.size(); ++i) {
      LiveNode& node = cluster_.node(i);
      Probe& p = probes_[i];
      const bm::CommitPipeline* pipe = node.pipeline();
      const InstanceId f = pipe->committed_floor();
      if (p.floors.empty() || p.floors.back().floor != f) {
        p.floors.push_back({f, t});
      }
      if (p.epoch1_ns < 0 && node.epoch() >= 1 && node.active()) {
        p.epoch1_ns = t;
      }
      if (trace_) {
        p.depth_max = std::max(p.depth_max, pipe->depth());
        p.parked_max = std::max(p.parked_max, pipe->parked());
      }
    }
  }

  Cluster& cluster_;
  const bool trace_;
  std::vector<Probe> probes_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after everything it reads
};

// --- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::uint64_t counter(Cluster& c, ReplicaId i, const std::string& name,
                      const obs::LabelSet& labels = {}) {
  return c.node(i).metrics().counter(name, "", labels).value();
}

/// Protocol frames a replica sent for consensus (proposals, votes,
/// certified decisions).
std::uint64_t consensus_msgs(Cluster& c, ReplicaId i) {
  std::uint64_t total = 0;
  for (const char* kind : {"vote", "proposal", "decision"}) {
    total += counter(c, i, "zlb_msgs_total", {{"dir", "tx"}, {"kind", kind}});
  }
  return total;
}

/// Median cost of one transaction-signature verification on this
/// machine: a calibration for every other figure.
double ecdsa_verify_us(const Payments& pay) {
  std::vector<double> per;
  const std::size_t n = std::min<std::size_t>(pay.txs.size(), 200);
  for (int rep = 0; rep < 5 && n > 0; ++rep) {
    const std::int64_t t0 = now_ns();
    std::size_t ok = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& in = pay.txs[i].inputs[0];
      const auto sig =
          crypto::Signature::from_bytes(BytesView(in.sig.data(), in.sig.size()));
      ok += sig && crypto::verify_digest(in.pubkey, pay.txs[i].body_digest(), *sig)
                ? 1
                : 0;
    }
    if (ok != n) return -1;
    per.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                  static_cast<double>(n));
  }
  return median(per);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir = ".bench_build/livebench/work";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

/// What one trial yields: a fresh cluster, set up, loaded for its share
/// of the window, drained, stopped and checked. Each trial runs in a
/// child process of its own, so it starts from a fresh allocator and its
/// peak resident set is its own, and sends this back through a pipe.
struct Trial {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0, rejected = 0;
  std::vector<double> lat_ms, ack_us, late_ms;  ///< pooled over trials
  /// Per-trial figures; the run reports their median (-1 = not reached).
  std::map<std::string, double> figures;
  std::map<std::string, double> sums;    ///< pooled by sum
  std::map<std::string, double> maxima;  ///< pooled by max
  std::map<std::string, obs::HistogramSnapshot> hists;  ///< pooled by merge
};

void put(Writer& w, double v) { w.u64(std::bit_cast<std::uint64_t>(v)); }
double get_double(Reader& r) { return std::bit_cast<double>(r.u64()); }

void put(Writer& w, const std::vector<double>& v) {
  w.varint(v.size());
  for (const double x : v) put(w, x);
}
std::vector<double> get_doubles(Reader& r) {
  std::vector<double> v(r.length_prefix(8, std::size_t{1} << 24));
  for (double& x : v) x = get_double(r);
  return v;
}

void put(Writer& w, const std::map<std::string, double>& m) {
  w.varint(m.size());
  for (const auto& [k, v] : m) {
    w.string(k);
    put(w, v);
  }
}
std::map<std::string, double> get_figures(Reader& r) {
  std::map<std::string, double> m;
  for (auto n = r.length_prefix(9, 1024); n > 0; --n) {
    std::string k = r.string();
    m[std::move(k)] = get_double(r);
  }
  return m;
}

Bytes encode(const Trial& t) {
  Writer w;
  w.boolean(t.correct);
  w.u64(t.attempted);
  w.u64(t.failed);
  w.u64(t.rejected);
  put(w, t.lat_ms);
  put(w, t.ack_us);
  put(w, t.late_ms);
  put(w, t.figures);
  put(w, t.sums);
  put(w, t.maxima);
  w.varint(t.hists.size());
  for (const auto& [k, h] : t.hists) {
    w.string(k);
    w.varint(h.buckets.size());
    for (const auto b : h.buckets) w.u64(b);
    w.u64(h.count);
    w.i64(h.sum);
  }
  return w.take();
}

Trial decode(BytesView bytes) {
  Reader r(bytes);
  Trial t;
  t.correct = r.boolean();
  t.attempted = r.u64();
  t.failed = r.u64();
  t.rejected = r.u64();
  t.lat_ms = get_doubles(r);
  t.ack_us = get_doubles(r);
  t.late_ms = get_doubles(r);
  t.figures = get_figures(r);
  t.sums = get_figures(r);
  t.maxima = get_figures(r);
  for (auto n = r.length_prefix(9, 1024); n > 0; --n) {
    std::string k = r.string();
    obs::HistogramSnapshot h;
    h.buckets.resize(r.length_prefix(8, obs::Histogram::kBuckets));
    for (auto& b : h.buckets) b = r.u64();
    h.count = r.u64();
    h.sum = r.i64();
    t.hists[std::move(k)] = std::move(h);
  }
  r.expect_done();
  return t;
}

void merge_into(obs::HistogramSnapshot& into, const obs::HistogramSnapshot& h) {
  into.buckets.resize(std::max(into.buckets.size(), h.buckets.size()), 0);
  for (std::size_t b = 0; b < h.buckets.size(); ++b) into.buckets[b] += h.buckets[b];
  into.count += h.count;
  into.sum += h.sum;
}

/// Histograms read after the replicas stopped, merged over `ids`.
/// Phase series are the replicas' lifecycle tracers; the rest the
/// commit pipeline's stages and the checkpoint export.
void read_hists(Cluster& c, const std::vector<ReplicaId>& ids,
                std::map<std::string, obs::HistogramSnapshot>& out) {
  for (const char* phase : {"propose", "deliver", "decide", "commit", "apply"}) {
    for (const ReplicaId i : ids) {
      merge_into(out[std::string("phase.") + phase],
                 c.node(i).metrics()
                     .histogram("zlb_decide_phase_latency_seconds", "", 1e-9,
                                {{"phase", phase}})
                     .snapshot());
    }
  }
  for (const char* name :
       {"zlb_pipeline_decode_seconds", "zlb_pipeline_verify_seconds",
        "zlb_pipeline_apply_seconds", "zlb_pipeline_journal_seconds",
        "zlb_checkpoint_export_seconds"}) {
    for (const ReplicaId i : ids) {
      merge_into(out[name],
                 c.node(i).metrics().histogram(name, "", 1e-9).snapshot());
    }
  }
}

class Bench {
 public:
  Bench(const Workload& w, const Args& args) : w_(w), args_(args) {
    for (ReplicaId i = 0; i < kCommittee + w.standbys; ++i) {
      if (is_colluder(i)) continue;
      honest_.push_back(i);
      if (i < kCommittee) veterans_.push_back(i);
    }
  }

  [[nodiscard]] bool is_colluder(ReplicaId i) const {
    return std::count(w_.colluders.begin(), w_.colluders.end(), i) != 0;
  }
  [[nodiscard]] const std::vector<ReplicaId>& veterans() const { return veterans_; }

  /// Payments [lo, hi) of `pay` against a freshly built cluster, over
  /// `window_s` seconds. Returns nullopt when set-up failed.
  std::optional<Trial> run_trial(const Payments& pay, std::size_t lo,
                                 std::size_t hi, double window_s);

 private:
  void analyse(Cluster& c, const Payments& pay, std::size_t lo,
               std::size_t hi, const TxTimes& times, const Poller& poller,
               std::int64_t t0, std::int64_t window_end, Trial& t);

  const Workload& w_;
  const Args& args_;
  std::vector<ReplicaId> veterans_;  ///< honest committee members
  std::vector<ReplicaId> honest_;    ///< veterans + standbys
};

std::optional<Trial> Bench::run_trial(const Payments& pay, std::size_t lo,
                                      std::size_t hi, double window_s) {
  Trial t;
  t.attempted = hi - lo;
  std::filesystem::remove_all(args_.workdir);
  std::filesystem::create_directories(args_.workdir);

  // Set-up: build the replicas, mint the genesis, start them, and wait
  // until every committee member decided its first instance.
  const std::int64_t s0 = now_ns();
  Cluster c(w_, pay, args_.workdir);
  c.start();
  const std::int64_t ready_deadline = now_ns() + 30'000'000'000;
  auto ready = [&] {
    for (ReplicaId i = 0; i < kCommittee; ++i) {
      if (c.node(i).decided_count() == 0) return false;
    }
    return true;
  };
  while (!ready() && now_ns() < ready_deadline) std::this_thread::sleep_for(200us);
  if (!ready()) {
    std::fprintf(stderr, "set-up: no first decision within 30 s\n");
    return std::nullopt;
  }
  t.figures["setup_s"] = static_cast<double>(now_ns() - s0) * 1e-9;

  std::vector<net::Fd> conns;
  for (const ReplicaId r : veterans_) {
    auto fd = connect_gateway(c.node(r).client_port());
    if (!fd) {
      std::fprintf(stderr, "cannot connect to gateway of replica %u\n", r);
      return std::nullopt;
    }
    conns.push_back(std::move(*fd));
  }

  struct Counters {
    net::TransportStats ts;
    std::uint64_t decided = 0;
    std::uint64_t msgs = 0;
  };
  auto counters = [&] {
    std::vector<Counters> out;
    for (std::size_t i = 0; i < c.size(); ++i) {
      out.push_back({c.node(i).transport_stats(), c.node(i).decided_count(),
                     consensus_msgs(c, static_cast<ReplicaId>(i))});
    }
    return out;
  };
  const std::vector<Counters> before = counters();

  Poller poller(c, args_.trace);
  const std::size_t n = hi - lo;
  TxTimes times;
  times.due.resize(n);
  times.sent.assign(n, -1);
  times.acked.assign(n, -1);
  times.status.assign(n, 0);
  const std::int64_t t0 = now_ns() + 5'000'000;
  const double gap_ns = 1e9 / w_.rate;
  for (std::size_t i = 0; i < n; ++i) {
    times.due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
  }
  const std::int64_t window_end = t0 + static_cast<std::int64_t>(window_s * 1e9);
  const double cpu0 = cpu_seconds();

  if (!run_generator(pay, lo, conns, times, 10'000'000'000)) {
    std::fprintf(stderr, "generator: gateway connection failed\n");
  }
  while (now_ns() < window_end) std::this_thread::sleep_for(1ms);
  const double cpu_s = cpu_seconds() - cpu0;

  // Drain: until every ACKed payment is in every honest ledger (the
  // sink's balance is the sum of what was accepted), or the deadline.
  chain::Amount expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (times.status[i] == static_cast<std::uint8_t>(net::SubmitStatus::kAccepted)) {
      expected += pay.txs[lo + i].outputs[0].value;
    }
  }
  const std::int64_t drain_deadline = now_ns() + 60'000'000'000;
  // With standbys the drain also waits for the recovery to be whole:
  // every honest replica active in epoch 1 and past the floor replica 0
  // had once it was seen in epoch 1.
  std::optional<InstanceId> switched_floor;
  auto drained = [&] {
    if (w_.standbys > 0) {
      if (!switched_floor && c.node(0).epoch() >= 1) {
        switched_floor = c.node(0).pipeline()->committed_floor();
      }
      if (!switched_floor) return false;
      for (const ReplicaId i : honest_) {
        LiveNode& node = c.node(i);
        if (!node.active() || node.epoch() < 1 ||
            node.pipeline()->committed_floor() <= *switched_floor) {
          return false;
        }
      }
    }
    for (const ReplicaId i : honest_) {
      if (c.node(i).balance(pay.sink) != expected) return false;
    }
    return true;
  };
  bool drain_ok = drained();
  while (!drain_ok && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(50ms);
    drain_ok = drained();
  }
  const std::vector<Counters> after = counters();
  poller.stop();
  c.stop();
  if (!drain_ok) {
    std::fprintf(stderr, "drain: deadline hit\n");
    t.correct = false;
  }
  for (const ReplicaId j : honest_) {
    t.sums["bytes"] += static_cast<double>(after[j].ts.bytes_sent - before[j].ts.bytes_sent);
    t.sums["frames"] += static_cast<double>(after[j].ts.frames_sent - before[j].ts.frames_sent);
    t.sums["msgs"] += static_cast<double>(after[j].msgs - before[j].msgs);
  }
  t.sums["decided_lead"] = static_cast<double>(after[veterans_[0]].decided -
                                               before[veterans_[0]].decided);
  analyse(c, pay, lo, hi, times, poller, t0, window_end, t);
  // Process CPU over the load window (the drain left out), per 1000
  // payments committed.
  t.figures["cpu_s_per_ktx"] =
      t.lat_ms.empty() ? 0 : cpu_s / (static_cast<double>(t.lat_ms.size()) / 1000.0);
  return t;
}

void Bench::analyse(Cluster& c, const Payments& pay, std::size_t lo,
                    std::size_t hi, const TxTimes& times, const Poller& poller,
                    std::int64_t t0, std::int64_t window_end, Trial& t) {
  // --- join: payment -> instance -> floor crossing ---------------------
  const auto& probes = poller.probes();
  std::map<ReplicaId, TxInstances> where;
  for (const ReplicaId r : veterans_) {
    where[r] = tx_instances(c.node(r).block_manager().store());
  }
  const auto accepted = static_cast<std::uint8_t>(net::SubmitStatus::kAccepted);
  // A payment is committed once every honest member of the committee it
  // was submitted to has committed it (standbys join later; the checks
  // below still require them to hold it by the end).
  std::vector<std::int64_t> committed_at;
  std::size_t uncommitted = 0;
  std::int64_t last_commit = t0;
  // Admitted-but-uncommitted payments per replica over time: +1 at the
  // ACK, -1 at the replica's commit.
  std::map<ReplicaId, std::vector<std::pair<std::int64_t, int>>> backlog;
  for (std::size_t i = 0; i < hi - lo; ++i) {
    const chain::TxId& id = pay.ids[lo + i];
    const ReplicaId r = veterans_[pay.target[lo + i]];
    if (times.sent[i] >= 0) {
      t.late_ms.push_back(static_cast<double>(times.sent[i] - times.due[i]) * 1e-6);
      if (times.acked[i] >= 0) {
        t.ack_us.push_back(static_cast<double>(times.acked[i] - times.sent[i]) * 1e-3);
      }
    }
    if (times.status[i] != accepted) {
      ++t.failed;
      if (times.status[i] != 0) ++t.rejected;
      continue;
    }
    const std::int64_t mine = commit_time_ns(where[r], probes[r].floors, id);
    std::int64_t everywhere = mine;
    for (const ReplicaId j : veterans_) {
      const std::int64_t at = commit_time_ns(where[r], probes[j].floors, id);
      everywhere = at < 0 || everywhere < 0 ? -1 : std::max(everywhere, at);
    }
    if (mine < 0 || everywhere < 0) {
      ++t.failed;
      ++uncommitted;
      continue;
    }
    t.lat_ms.push_back(static_cast<double>(mine - times.due[i]) * 1e-6);
    committed_at.push_back(everywhere);
    last_commit = std::max(last_commit, everywhere);
    backlog[r].push_back({times.acked[i], +1});
    backlog[r].push_back({mine, -1});
  }
  if (t.failed != 0) {
    std::fprintf(stderr, "failed: %llu refused, %llu unanswered, %zu uncommitted\n",
                 static_cast<unsigned long long>(t.rejected),
                 static_cast<unsigned long long>(t.failed - t.rejected - uncommitted),
                 uncommitted);
  }
  // Throughput: the commit rate from the first commit to the window's
  // end, which leaves out the pipeline's fill at the window's start.
  std::sort(committed_at.begin(), committed_at.end());
  double tps = 0;
  if (!committed_at.empty() && committed_at.front() < window_end) {
    const auto in_window = static_cast<double>(
        std::upper_bound(committed_at.begin(), committed_at.end(), window_end) -
        committed_at.begin());
    tps = (in_window - 1) /
          (static_cast<double>(window_end - committed_at.front()) * 1e-9);
  }
  t.figures["commit_tps"] = tps;
  std::vector<double> sorted = t.lat_ms;
  std::sort(sorted.begin(), sorted.end());
  t.figures["commit_p50_ms"] = tail_percentile(sorted, 0.5).value;

  // --- correctness -------------------------------------------------------
  // Ledger digests hash the whole UTXO set; one thread per replica.
  std::vector<crypto::Hash32> digests(honest_.size());
  {
    std::vector<std::thread> hashers;
    for (std::size_t k = 0; k < honest_.size(); ++k) {
      hashers.emplace_back(
          [&, k] { digests[k] = c.node(honest_[k]).state_digest(); });
    }
    for (auto& h : hashers) h.join();
  }
  for (std::size_t k = 0; k < honest_.size(); ++k) {
    if (digests[k] != digests[0]) {
      std::fprintf(stderr, "check: replica %u ledger digest differs\n", honest_[k]);
      t.correct = false;
    }
  }
  for (const ReplicaId j : honest_) {
    const chain::UtxoSet& u = c.node(j).block_manager().utxos();
    std::size_t bad = 0;
    for (std::size_t i = 0; i < hi - lo; ++i) {
      if (times.status[i] != accepted) continue;
      // Committed exactly once: its payment output exists (an outpoint
      // is unique) and the coin it spends is gone.
      const chain::Transaction& tx = pay.txs[lo + i];
      const auto out = u.get(chain::OutPoint{pay.ids[lo + i], 0});
      if (!out || !(*out == tx.outputs[0]) || u.contains(tx.inputs[0].prev)) ++bad;
    }
    if (bad != 0) {
      std::fprintf(stderr, "check: replica %u misses %zu ACKed payments\n", j, bad);
      t.correct = false;
    }
  }
  if (w_.standbys > 0) {
    for (const ReplicaId j : honest_) {
      if (c.node(j).committee_members() != honest_) {
        std::fprintf(stderr, "check: replica %u committee is not the honest set\n", j);
        t.correct = false;
      }
      if (!c.node(j).active() || c.node(j).epoch() != 1) {
        std::fprintf(stderr, "check: replica %u not active in epoch 1\n", j);
        t.correct = false;
      }
    }
  }

  // Longest interval in which no honest veteran's floor advanced, from
  // the window start to the last payment's commit everywhere.
  std::vector<std::int64_t> advances;
  for (const ReplicaId r : veterans_) {
    for (const auto& s : probes[r].floors) {
      if (s.at_ns > t0 && s.at_ns <= last_commit) advances.push_back(s.at_ns);
    }
  }
  std::sort(advances.begin(), advances.end());
  double gap_ms = 0;
  std::int64_t prev = t0;
  for (const std::int64_t at : advances) {
    gap_ms = std::max(gap_ms, static_cast<double>(at - prev) * 1e-6);
    prev = at;
  }
  t.figures["service_gap_ms"] = gap_ms;

  // --- per-layer inputs ----------------------------------------------------
  const ReplicaId lead = veterans_[0];
  t.sums["span_s"] = static_cast<double>(last_commit - t0) * 1e-9;
  // Instances the lead replica committed during the window and drain.
  InstanceId k_first = 0, k_end = 0;
  for (const auto& s : probes[lead].floors) {
    if (s.at_ns <= t0) k_first = s.floor;
    if (s.at_ns <= last_commit) k_end = s.floor;
  }
  t.sums["instances"] = static_cast<double>(k_end - k_first);
  const chain::BlockStore& store = c.node(lead).block_manager().store();
  for (InstanceId k = k_first; k < k_end; ++k) {
    bool any = false;
    for (const auto& id : store.at_index(k)) {
      const chain::Block* b = store.get(id);
      if (b == nullptr || b->txs.empty()) continue;
      any = true;
      t.sums["blocks"] += 1;
      t.sums["txs"] += static_cast<double>(b->txs.size());
    }
    t.sums["useful"] += any ? 1 : 0;
  }
  // Slot inclusion: share of honest members' slots set in the decided
  // bitmask. A slot is the member's rank in its epoch's committee.
  for (const auto& d : c.node(lead).decisions()) {
    if (d.index < k_first || d.index >= k_end) continue;
    std::vector<ReplicaId> members;
    for (ReplicaId i = 0; i < kCommittee + w_.standbys; ++i) {
      if (d.epoch == 0 ? i < kCommittee : !is_colluder(i)) members.push_back(i);
    }
    for (std::size_t s = 0; s < members.size() && s < d.bitmask.size(); ++s) {
      if (is_colluder(members[s])) continue;
      t.sums["slots"] += 1;
      t.sums["included"] += d.bitmask[s] != 0 ? 1 : 0;
    }
  }
  for (const ReplicaId j : honest_) {
    t.sums["reconnects"] += static_cast<double>(c.node(j).transport_stats().reconnects);
    t.sums["rounds"] += static_cast<double>(counter(c, j, "zlb_consensus_rounds_total"));
    t.sums["decided_all"] += static_cast<double>(c.node(j).decided_count());
    t.sums["evicted"] += static_cast<double>(counter(c, j, "zlb_mempool_evicted_total"));
    const auto sync = c.node(j).sync_stats();
    t.sums["chunks"] += static_cast<double>(sync.chunks_served);
    t.sums["snaps"] += static_cast<double>(sync.snapshots_installed);
    t.maxima["depth"] = std::max(t.maxima["depth"], static_cast<double>(probes[j].depth_max));
    t.maxima["parked"] = std::max(t.maxima["parked"], static_cast<double>(probes[j].parked_max));
  }
  for (auto& [r, ev] : backlog) {
    std::sort(ev.begin(), ev.end());
    double level = 0;
    for (const auto& e : ev) {
      level += e.second;
      t.maxima["backlog"] = std::max(t.maxima["backlog"], level);
    }
  }
  read_hists(c, honest_, t.hists);

  // Membership change, timed from the attack reaching the chain head:
  // replica 0's committed floor arriving at the first equivocating
  // instance. Recovered: every honest replica, standbys included, is an
  // active epoch-1 member and has committed past where replica 0 stood
  // when it switched epochs.
  for (const char* f : {"recovery_ms", "reconfig.detect_ms", "reconfig.exclude_ms",
                        "reconfig.include_ms", "reconfig.resume_ms"}) {
    t.figures[f] = -1;
  }
  if (w_.colluders.empty() || w_.equivocate_from == 0) return;
  const std::int64_t attack = passed_at(probes[0].floors, w_.equivocate_from - 1);
  const std::int64_t switch_at = probes[0].epoch1_ns;
  if (attack >= 0 && switch_at >= 0) {
    InstanceId f1 = 0;
    for (const auto& s : probes[0].floors) {
      if (s.at_ns <= switch_at) f1 = s.floor;
    }
    std::int64_t recovered = 0;
    for (const ReplicaId j : honest_) {
      std::int64_t at = -1;
      for (const auto& s : probes[j].floors) {
        if (probes[j].epoch1_ns >= 0 && s.at_ns >= probes[j].epoch1_ns &&
            s.floor > f1) {
          at = s.at_ns;
          break;
        }
      }
      recovered = at < 0 || recovered < 0 ? -1 : std::max(recovered, at);
    }
    if (recovered >= 0) {
      t.figures["recovery_ms"] = static_cast<double>(recovered - attack) * 1e-6;
    }
  }
  // Phase stamps as the replicas report them (ms since run(); the
  // cluster started every replica together): the earliest honest
  // veteran's.
  auto stamp = [&](std::int64_t net::LiveNode::ReconfigStats::* f) {
    std::int64_t best = -1;
    for (const ReplicaId r : veterans_) {
      const std::int64_t v = c.node(r).reconfig_stats().*f;
      if (v >= 0 && (best < 0 || v < best)) best = v;
    }
    return static_cast<double>(best);
  };
  t.figures["reconfig.detect_ms"] = stamp(&net::LiveNode::ReconfigStats::detect_ms);
  t.figures["reconfig.exclude_ms"] = stamp(&net::LiveNode::ReconfigStats::exclude_ms);
  t.figures["reconfig.include_ms"] = stamp(&net::LiveNode::ReconfigStats::include_ms);
  t.figures["reconfig.resume_ms"] = stamp(&net::LiveNode::ReconfigStats::resume_ms);
}

void report(const Trial& t) {
  std::fprintf(stderr,
               "  trial: setup %.3f s, p50 %.1f ms, %.0f tx/s, gap %.1f ms, "
               "%.0f instances, recovery %.1f ms\n",
               t.figures.at("setup_s"), t.figures.at("commit_p50_ms"),
               t.figures.at("commit_tps"), t.figures.at("service_gap_ms"),
               t.sums.at("instances"), t.figures.at("recovery_ms"));
}

/// Runs one trial in a child process and collects its result. The
/// parent holds no threads here, so forking is safe; the child dies
/// with the parent if the parent is killed.
std::optional<Trial> run_trial_process(Bench& bench, const Payments& pay,
                                       std::size_t lo, std::size_t hi,
                                       double window_s) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    int rc = 1;
    if (auto t = bench.run_trial(pay, lo, hi, window_s)) {
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      t->figures["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
      const Bytes out = encode(*t);
      std::size_t off = 0;
      while (off < out.size()) {
        const ssize_t k = ::write(fds[1], out.data() + off, out.size() - off);
        if (k <= 0) break;
        off += static_cast<std::size_t>(k);
      }
      rc = off == out.size() ? 0 : 1;
    }
    std::fflush(stderr);
    ::_exit(rc);
  }
  ::close(fds[1]);
  Bytes in;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t k = ::read(fds[0], buf, sizeof(buf));
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    in.insert(in.end(), buf, buf + k);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  try {
    return decode(BytesView(in.data(), in.size()));
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// Median over trials of a per-trial figure; -1 when some trial never
/// reached it.
double trial_median(const std::vector<Trial>& trials, const std::string& name) {
  std::vector<double> v;
  for (const auto& t : trials) {
    const auto it = t.figures.find(name);
    if (it == t.figures.end() || it->second < 0) return -1;
    v.push_back(it->second);
  }
  return median(v);
}

int run(const Args& args) {
  const Workload* wp = nullptr;
  for (const auto& w : workloads()) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  Bench bench(w, args);

  // Inputs: a function of the seed only. Payments go to the honest
  // veterans' gateways (a colluder's ACKed payments would die with it).
  const auto count = static_cast<std::size_t>(w.rate * args.seconds);
  const Payments pay = make_payments(
      args.seed, count, bench.veterans().size(),
      std::max(1u, std::thread::hardware_concurrency()));
  const double verify_us = ecdsa_verify_us(pay);

  // The window is split over kTrials freshly built clusters. Each
  // cluster settles into its own timing regime (how the replicas' block
  // timers line up, which slots get left out), so the run reports the
  // median trial: steadier than one long window over one regime.
  std::vector<Trial> trials;
  for (int s = 0; s < kTrials; ++s) {
    const std::size_t lo = count * static_cast<std::size_t>(s) / kTrials;
    const std::size_t hi = count * static_cast<std::size_t>(s + 1) / kTrials;
    auto t = run_trial_process(bench, pay, lo, hi, args.seconds / kTrials);
    if (!t) {
      std::fprintf(stderr, "trial %d failed to run\n", s);
      return 1;
    }
    report(*t);
    trials.push_back(std::move(*t));
  }

  Trial all;  // pooled, for the per-layer figures
  for (const auto& t : trials) {
    all.correct = all.correct && t.correct;
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.rejected += t.rejected;
    all.lat_ms.insert(all.lat_ms.end(), t.lat_ms.begin(), t.lat_ms.end());
    all.ack_us.insert(all.ack_us.end(), t.ack_us.begin(), t.ack_us.end());
    all.late_ms.insert(all.late_ms.end(), t.late_ms.begin(), t.late_ms.end());
    for (const auto& [k, v] : t.sums) all.sums[k] += v;
    for (const auto& [k, v] : t.maxima) all.maxima[k] = std::max(all.maxima[k], v);
    for (const auto& [k, h] : t.hists) merge_into(all.hists[k], h);
  }
  std::sort(all.lat_ms.begin(), all.lat_ms.end());
  std::sort(all.ack_us.begin(), all.ack_us.end());
  std::sort(all.late_ms.begin(), all.late_ms.end());
  const double p50 = trial_median(trials, "commit_p50_ms");
  const double cpu_per_ktx = trial_median(trials, "cpu_s_per_ktx");
  const Percentile p99 = tail_percentile(all.lat_ms, 0.99);
  // An open loop is only open while the generator keeps to schedule.
  const double late_p99 = tail_percentile(all.late_ms, 0.99).value;
  if (late_p99 > 10.0) {
    std::fprintf(stderr, "generator: fell behind (late p99 %.1f ms)\n", late_p99);
  }
  std::fprintf(stderr,
               "%s seed=%llu: %zu payments, %zu committed, %llu failed; p50 "
               "%.1f ms, pooled p%.4g %.1f ms over %zu samples\n",
               w.name, static_cast<unsigned long long>(args.seed), count,
               all.lat_ms.size(), static_cast<unsigned long long>(all.failed),
               p50, p99.q * 100, p99.value, all.lat_ms.size());

  if (!args.trace) {
    std::vector<Metric> m;
    for (const auto& [name, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"setup_s", "s"},
             {"commit_p50_ms", "ms"},
             {"commit_tps", "1/s"},
             {"service_gap_ms", "ms"},
             {"cpu_s_per_ktx", "s"},
             {"peak_rss_mb", "MB"}}) {
      m.push_back({name, trial_median(trials, name), unit});
    }
    print_result(all.correct, all.attempted, all.failed, m);
    return 0;
  }

  auto hist = [&](const std::string& name, double q) {
    return all.hists[name].quantile(q) * 1e-6;  // raw nanoseconds -> ms
  };
  // Phase budget from the replicas' own tracers; reconcile its sum of
  // medians with the externally measured commit median.
  const double propose_wait = hist("phase.propose", 0.5);
  const double phase_sum = propose_wait + hist("phase.deliver", 0.5) +
                           hist("phase.decide", 0.5) + hist("phase.commit", 0.5) +
                           hist("phase.apply", 0.5);
  const double ratio = p50 > 0 ? phase_sum / p50 : 0;
  if (ratio < 0.75 || ratio > 1.25) {
    std::fprintf(stderr,
                 "reconcile: MISMATCH phase sum %.1f ms vs commit p50 %.1f ms "
                 "(ratio %.2f)\n",
                 phase_sum, p50, ratio);
  }
  auto sum = [&](const char* k) { return all.sums[k]; };
  auto ratio_of = [](double a, double b) { return b > 0 ? a / b : 0; };
  const double decided = std::max(1.0, sum("decided_lead"));
  print_result(
      all.correct, all.attempted, all.failed,
      {
          {"commit_p99_ms", p99.value, "ms"},
          {"failed_ratio", ratio_of(static_cast<double>(all.failed), static_cast<double>(all.attempted)), "ratio"},
          {"recovery_ms", trial_median(trials, "recovery_ms"), "ms"},
          {"gen_late_p99_ms", late_p99, "ms"},
          {"gateway.ack_p50_us", tail_percentile(all.ack_us, 0.5).value, "us"},
          {"gateway.ack_p99_us", tail_percentile(all.ack_us, 0.99).value, "us"},
          {"gateway.rejected", static_cast<double>(all.rejected), "count"},
          {"node.instances_per_s", ratio_of(sum("instances"), sum("span_s")), "1/s"},
          {"node.useful_instance_ratio", ratio_of(sum("useful"), sum("instances")), "ratio"},
          {"node.slot_inclusion_ratio", ratio_of(sum("included"), sum("slots")), "ratio"},
          {"node.txs_per_block", ratio_of(sum("txs"), sum("blocks")), "count"},
          {"phase.propose_wait_p50_ms", propose_wait, "ms"},
          {"phase.rbc_deliver_p50_ms", hist("phase.deliver", 0.5), "ms"},
          {"phase.rbc_deliver_p99_ms", hist("phase.deliver", 0.99), "ms"},
          {"phase.bc_decide_p50_ms", hist("phase.decide", 0.5), "ms"},
          {"phase.bc_decide_p99_ms", hist("phase.decide", 0.99), "ms"},
          {"consensus.rounds_per_instance", ratio_of(sum("rounds"), sum("decided_all")), "count"},
          {"consensus.msgs_per_instance", sum("msgs") / decided, "count"},
          {"transport.bytes_per_instance", sum("bytes") / decided, "B"},
          {"transport.frames_per_instance", sum("frames") / decided, "count"},
          {"transport.reconnects", sum("reconnects"), "count"},
          {"pipeline.verify_p50_ms", hist("zlb_pipeline_verify_seconds", 0.5), "ms"},
          {"pipeline.verify_p99_ms", hist("zlb_pipeline_verify_seconds", 0.99), "ms"},
          {"pipeline.decode_p50_ms", hist("zlb_pipeline_decode_seconds", 0.5), "ms"},
          {"pipeline.apply_p50_ms", hist("zlb_pipeline_apply_seconds", 0.5), "ms"},
          {"pipeline.depth_max", all.maxima["depth"], "count"},
          {"pipeline.parked_max", all.maxima["parked"], "count"},
          {"journal.fsync_p50_ms", hist("zlb_pipeline_journal_seconds", 0.5), "ms"},
          {"journal.fsync_p99_ms", hist("zlb_pipeline_journal_seconds", 0.99), "ms"},
          {"checkpoint.export_p50_ms", hist("zlb_checkpoint_export_seconds", 0.5), "ms"},
          {"checkpoint.export_max_ms", hist("zlb_checkpoint_export_seconds", 1.0), "ms"},
          {"checkpoint.count", static_cast<double>(all.hists["zlb_checkpoint_export_seconds"].count), "count"},
          {"mempool.size_max", all.maxima["backlog"], "count"},
          {"mempool.evicted", sum("evicted"), "count"},
          {"reconfig.detect_ms", trial_median(trials, "reconfig.detect_ms"), "ms"},
          {"reconfig.exclude_ms", trial_median(trials, "reconfig.exclude_ms"), "ms"},
          {"reconfig.include_ms", trial_median(trials, "reconfig.include_ms"), "ms"},
          {"reconfig.resume_ms", trial_median(trials, "reconfig.resume_ms"), "ms"},
          {"sync.snapshots_installed", sum("snaps"), "count"},
          {"sync.chunks_served", sum("chunks"), "count"},
          {"crypto.ecdsa_verify_us", verify_us, "us"},
          {"reconcile.phase_sum_p50_ms", phase_sum, "ms"},
          {"reconcile.ratio", ratio, "ratio"},
          {"traced.commit_p50_ms", p50, "ms"},
          {"traced.cpu_s_per_ktx", cpu_per_ktx, "s"},
      });
  return 0;
}

}  // namespace
}  // namespace zlb::livebench

int main(int argc, char** argv) {
  const auto args = zlb::livebench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: zlb_livebench --workload <steady|durable|saturate|"
                 "reconfig> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n");
    return 2;
  }
  const int rc = zlb::livebench::run(*args);
  std::filesystem::remove_all(args->workdir);
  return rc;
}
