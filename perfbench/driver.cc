// Repository benchmark driver (perfbench/README.md). Builds Clusters through the public
// harness API, runs one named workload again and again until a host-time budget is spent,
// checks every repetition's outputs, and prints one JSON report line that run.py turns
// into the benchmark's metrics.
//
//   perfbench_plain  --workload <name> --seed <n> --seconds <s> [--min-reps <k>]
//   perfbench_traced (same flags; recorders on, wall-clock layer ledger filled)
//
// Every repetition uses the same seed, so its virtual-time (vt) metrics must be
// bit-identical to the first repetition's; host-time (wall) metrics are reported per
// repetition and run.py takes their median.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/achilles/replica.h"
#include "src/chaos/linearizability.h"
#include "src/consensus/messages.h"
#include "src/harness/cluster.h"
#include "src/harness/fault_script.h"

#if PERFBENCH_TRACED
#include "perfbench/ledger.h"
#endif

namespace perfbench {
namespace {

using namespace achilles;  // NOLINT: the driver is a thin client of the harness API.

constexpr bool kTraced = PERFBENCH_TRACED != 0;

struct Workload {
  ClusterConfig config;
  SimDuration warmup = 0;   // Part of set-up: the cluster reaches steady state.
  SimDuration measure = 0;  // The measured window.
  SimDuration drain = 0;    // After the window: lets in-window operations finish.
  // > 0: one replica crashes and reboots onto stale sealed state every churn_period, in
  // rotation, for the whole window.
  SimDuration churn_period = 0;
};

// The three workloads; README.md says why each exists. Returns false on an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  ClusterConfig& c = w->config;
  c.protocol = Protocol::kAchilles;
  c.net = NetworkConfig::Lan();
  c.seed = seed;
  c.tracing = kTraced;
  c.journaling = kTraced;
  c.critpath = kTraced;
  if (name == "lan-sat-n21") {
    // Fig. 4 headline: Achilles at saturation. Closed loop, <= 4000 outstanding txs.
    c.f = 10;
    c.batch_size = 400;
    c.payload_size = 256;
    c.client_rate_tps = 0.0;
    c.client_max_outstanding = 4000;
    w->warmup = Ms(500);
    w->measure = Ms(5500);  // >= 1000 committed blocks, so commit_p99 has 10 beyond it.
    w->drain = Ms(300);
  } else if (name == "kv-lease-n3") {
    // KV app: 4 closed-loop sessions (70% reads over 8 keys, leases on) beside 1 KTPS of
    // open-loop background transactions; checkpoints on.
    c.f = 1;
    c.batch_size = 100;
    c.payload_size = 64;
    c.client_rate_tps = 1000.0;
    c.app_kv = true;
    c.kv_client.num_sessions = 4;
    c.kv_client.key_space = 8;
    c.kv_client.read_ratio = 0.7;
    c.ckpt.enabled = true;
    w->warmup = Ms(500);
    w->measure = Sec(5);  // >= 1000 writes, so write_p99 has 10 beyond it.
    w->drain = Sec(1);
  } else if (name == "reboot-churn-n5") {
    // The paper's recovery path under the rollback attack: 20 KTPS open loop, one
    // crash + stale-sealed-state reboot every 250 ms in rotation, checkpoints on.
    c.f = 2;
    c.batch_size = 400;
    c.payload_size = 256;
    c.client_rate_tps = 20000.0;
    c.ckpt.enabled = true;
    // Table 2's view timeout. With the 500 ms default a view change outlasts two crash
    // periods and the cluster stops committing within ~3 s (README.md, "Findings").
    c.base_timeout = Ms(200);
    w->warmup = Ms(500);
    w->measure = Ms(26500);  // 104 reboots, so recovery_p90 has 10 beyond it.
    w->drain = Sec(1);
    w->churn_period = Ms(250);
  } else {
    return false;
  }
  return true;
}

double Secs(SimDuration d) { return static_cast<double>(d) / kSecond; }

double WallSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double PercentileMs(const std::vector<SimDuration>& samples, double p) {
  LatencyRecorder recorder;
  for (SimDuration s : samples) {
    recorder.Record(s);
  }
  return recorder.PercentileMs(p);
}

// Commit and submission bookkeeping for the measured window, fed by a CommitTracker commit
// listener and a Network delivery tap (both outside virtual time).
class WindowObserver {
 public:
  WindowObserver(uint32_t client_host, SimTime start, SimTime end)
      : client_host_(client_host), start_(start), end_(end), last_commit_(start) {}

  // The load client's submissions, each seen once per replica: dedup by sequence.
  void OnDelivery(uint32_t from, const MessageRef& msg) {
    if (from != client_host_) {
      return;
    }
    const auto* submit = dynamic_cast<const ClientSubmitMsg*>(msg.get());
    if (submit == nullptr) {
      return;
    }
    for (const Transaction& tx : submit->txs) {
      const int64_t seq = static_cast<uint32_t>(tx.id);
      if (seq <= max_seq_seen_) {
        continue;
      }
      max_seq_seen_ = seq;
      if (tx.submit_time >= start_ && tx.submit_time < end_) {
        first_seq_ = std::min(first_seq_, seq);
        last_seq_ = seq;
      }
    }
  }

  // Per (replica, block) commit. Each height counts once, at its first commit: replicas
  // commit in height order, so the first commit of h always raises the global maximum.
  void OnCommit(const BlockPtr& block, SimTime now) {
    if (block->height <= max_height_) {
      return;
    }
    max_height_ = block->height;
    for (const Transaction& tx : block->txs) {
      if (static_cast<uint32_t>(tx.id >> 32) != client_host_) {
        continue;
      }
      const size_t seq = static_cast<uint32_t>(tx.id);
      if (seq >= committed_.size()) {
        committed_.resize(std::max(2 * committed_.size(), seq + 1), 0);
      }
      committed_[seq] = 1;
    }
    if (now >= start_ && now <= end_) {
      if (blocks_ == 0) {
        first_commit_ = now;
      } else {
        txs_after_first_ += block->txs.size();
      }
      ++blocks_;
      max_gap_ = std::max(max_gap_, now - last_commit_);
      last_commit_ = now;
    }
  }

  uint64_t blocks() const { return blocks_; }
  // Committed txs per second between the window's first and last commit: the sustained
  // rate, free of the block-sized quantum that counting up to a window edge adds.
  double ThroughputTps() const {
    return last_commit_ > first_commit_
               ? static_cast<double>(txs_after_first_) / Secs(last_commit_ - first_commit_)
               : 0.0;
  }
  // Longest stretch of the window with no new commit (window edges included).
  SimDuration MaxGap() const { return std::max(max_gap_, end_ - last_commit_); }
  uint64_t attempted() const {
    return last_seq_ >= first_seq_ ? static_cast<uint64_t>(last_seq_ - first_seq_ + 1) : 0;
  }
  uint64_t uncommitted() const {
    uint64_t missing = 0;
    for (int64_t s = first_seq_; s <= last_seq_; ++s) {
      const size_t seq = static_cast<size_t>(s);
      missing += seq >= committed_.size() || committed_[seq] == 0;
    }
    return missing;
  }

 private:
  uint32_t client_host_;
  SimTime start_;
  SimTime end_;
  int64_t max_seq_seen_ = -1;
  int64_t first_seq_ = INT64_MAX;
  int64_t last_seq_ = -1;
  std::vector<uint8_t> committed_;  // By load-client sequence number.
  Height max_height_ = 0;
  uint64_t blocks_ = 0;
  uint64_t txs_after_first_ = 0;
  SimTime first_commit_ = 0;
  SimTime last_commit_;
  SimDuration max_gap_ = 0;
};

struct RepResult {
  std::vector<std::pair<std::string, double>> vt;  // Functions of the seed alone.
  double setup_s = 0.0;
  double window_wall_s = 0.0;
  std::vector<std::string> failures;  // Failed correctness checks.
#if PERFBENCH_TRACED
  LedgerTotals ledger;  // Window delta.
#endif
};

RepResult RunRep(const Workload& w) {
  RepResult r;
  auto vt = [&r](const char* name, double value) { r.vt.emplace_back(name, value); };
  const SimTime start = w.warmup;
  const SimTime end = w.warmup + w.measure;
  const double window_s = Secs(w.measure);

  const auto t_setup = std::chrono::steady_clock::now();
  Cluster cluster(w.config);
  const uint32_t n = cluster.num_replicas();
  WindowObserver observer(cluster.client_host_id(), start, end);
  cluster.net().SetDeliveryTap(
      [&observer](uint32_t from, uint32_t, const MessageRef& msg, SimTime) {
        observer.OnDelivery(from, msg);
      });
  cluster.tracker().AddCommitListener(
      [&observer](NodeId, const BlockPtr& block, SimTime now) {
        observer.OnCommit(block, now);
      });

  // Churn: crash + stale-sealed-state reboot in rotation; each reboot must finish recovery
  // before the same node's next crash (or, for the last round, by the end of the drain).
  struct Reboot {
    uint32_t node;
    SimTime boot_done;
  };
  std::vector<Reboot> reboots;
  std::vector<int> open_reboot(n, -1);
  std::vector<SimDuration> recovery;
  auto settle = [&](uint32_t node) {
    const int idx = open_reboot[node];
    if (idx < 0) {
      return;
    }
    open_reboot[node] = -1;
    const Reboot& rb = reboots[static_cast<size_t>(idx)];
    const auto* rep = dynamic_cast<const AchillesReplica*>(cluster.replica(node));
    if (rep == nullptr || rep->recovering() || rep->recovery_completed_at() < rb.boot_done) {
      char msg[128];
      std::snprintf(msg, sizeof msg, "reboot %d of node %u did not finish recovery", idx,
                    node);
      r.failures.emplace_back(msg);
      return;
    }
    recovery.push_back(rep->recovery_completed_at() - rb.boot_done);
  };
  if (w.churn_period > 0) {
    StorageFate stale;
    stale.sealed = SealedFate::kStale;
    FaultScript script;
    uint32_t k = 0;
    for (SimTime at = start + w.churn_period / 2; at < end; at += w.churn_period, ++k) {
      script.events.push_back({at, FaultKind::kCrash, k % n, 0, 0});
      script.events.push_back({at, FaultKind::kReboot, k % n, 0, EncodeStorageFate(stale)});
    }
    const SimDuration init = cluster.ReplicaInitDelay();
    cluster.InstallFaultScript(script, [&, init](const FaultEvent& e) {
      if (e.kind == FaultKind::kCrash) {
        settle(e.node);
      } else if (e.kind == FaultKind::kReboot) {
        open_reboot[e.node] = static_cast<int>(reboots.size());
        reboots.push_back({e.node, e.at + init});
      }
    });
  }
  cluster.Start();
  cluster.sim().RunFor(w.warmup);
  r.setup_s = WallSince(t_setup);

  // Window start: zero the window-scoped instruments and snapshot the cumulative ones.
  obs::MetricsRegistry& m = cluster.metrics();
  for (const char* h : {"host.handler_ns", "host.queue_wait_ns", "net.nic_wait_ns"}) {
    m.GetHistogram(h)->Reset();
  }
  const uint64_t fallbacks0 = m.GetCounter("app.lease_fallbacks")->value();
  const uint64_t stable0 = m.GetCounter("ckpt.stable_total")->value();
  const uint64_t adopts0 = m.GetCounter("ckpt.snapshot_adopts")->value();
  const uint64_t serves0 = m.GetCounter("ckpt.snapshot_serves")->value();
  std::vector<SimDuration> cpu0(n);
  for (uint32_t i = 0; i < n; ++i) {
    cpu0[i] = cluster.net().host(i).cpu_time_used();
  }
  const uint64_t counter0 = cluster.TotalCounterWrites();
  const uint64_t events0 = cluster.sim().executed_events();
  cluster.tracker().StartMeasurement(start);
  cluster.net().ResetStats();

#if PERFBENCH_TRACED
  const LedgerTotals ledger0 = ReadLedger();
#endif
  const auto t_window = std::chrono::steady_clock::now();
  cluster.sim().RunFor(w.measure);
  r.window_wall_s = WallSince(t_window);
#if PERFBENCH_TRACED
  const LedgerTotals ledger1 = ReadLedger();
  for (size_t l = 0; l < kNumLayers; ++l) {
    r.ledger.ns[l] = ledger1.ns[l] - ledger0.ns[l];
    r.ledger.calls[l] = ledger1.calls[l] - ledger0.calls[l];
  }
#endif

  // Window end: read everything the window produced before the drain runs on.
  CommitTracker& tracker = cluster.tracker();
  tracker.EndMeasurement(end);
  const uint64_t events = cluster.sim().executed_events() - events0;
  const uint64_t messages = cluster.net().messages_sent();
  const uint64_t bytes = cluster.net().bytes_sent();
  const uint64_t counter_writes = cluster.TotalCounterWrites() - counter0;
  double cpu_busy_max = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    const SimDuration used = cluster.net().host(i).cpu_time_used() - cpu0[i];
    cpu_busy_max = std::max(cpu_busy_max, Secs(used) / window_s);
  }
  cluster.RefreshFootprintGauges();
  double log_bytes = 0.0;
  double log_entries = 0.0;
  for (uint32_t i = 0; i < n; ++i) {
    const obs::MetricsRegistry::Labels labels{{"node", std::to_string(i)}};
    log_bytes += m.GetGauge("log.bytes_retained", labels)->value();
    log_entries += m.GetGauge("log.entries_retained", labels)->value();
  }
  const double handler_p99_us = m.GetHistogram("host.handler_ns")->Percentile(99) / 1e3;
  const double queue_wait_p99_us = m.GetHistogram("host.queue_wait_ns")->Percentile(99) / 1e3;
  const double nic_wait_p99_us = m.GetHistogram("net.nic_wait_ns")->Percentile(99) / 1e3;
  const uint64_t fallbacks = m.GetCounter("app.lease_fallbacks")->value() - fallbacks0;
  const uint64_t stable = m.GetCounter("ckpt.stable_total")->value() - stable0;
  const uint64_t adopts = m.GetCounter("ckpt.snapshot_adopts")->value() - adopts0;
  const uint64_t serves = m.GetCounter("ckpt.snapshot_serves")->value() - serves0;
  const double committed_txs = std::max(1.0, std::round(tracker.ThroughputTps() * window_s));
  const obs::BreakdownMs breakdown = cluster.breakdown().MeanPerTx();

  cluster.sim().RunFor(w.drain);
  for (uint32_t i = 0; i < n; ++i) {
    settle(i);
  }

  // --- Correctness checks (any failure fails the whole repetition) ---
  if (tracker.safety_violated()) {
    r.failures.push_back("safety: " + tracker.violation());
  }
  uint64_t attempted = observer.attempted();
  uint64_t failed = observer.uncommitted();
  std::vector<SimDuration> reads, writes, lease_reads;
  uint64_t kv_ops = 0;
  if (w.config.app_kv) {
    const std::vector<app::KvOpRecord>& ops = cluster.kv_client()->ops();
    const chaos::LinearizabilityVerdict verdict = chaos::CheckKvHistory(ops);
    if (!verdict.ok) {
      r.failures.push_back("linearizability: " + verdict.violation);
    }
    const uint64_t stale = m.GetCounter("app.stale_read_candidates")->value();
    if (stale != 0) {
      r.failures.push_back("app.stale_read_candidates = " + std::to_string(stale));
    }
    for (const app::KvOpRecord& op : ops) {
      if (op.invoke < start || op.invoke >= end) {
        continue;
      }
      ++attempted;
      if (!op.complete()) {
        ++failed;
        continue;
      }
      if (op.response <= end) {
        ++kv_ops;
      }
      const SimDuration latency = op.response - op.invoke;
      (op.kind == app::KvOpKind::kPut ? writes : reads).push_back(latency);
      if (op.lease_read) {
        lease_reads.push_back(latency);
      }
    }
  }
  const uint64_t e2e_samples = tracker.e2e_latency().count();
  const uint64_t commit_samples = tracker.commit_latency().count();
  auto need = [&r](const char* what, uint64_t have, uint64_t want) {
    if (have < want) {
      r.failures.push_back(std::string("too few ") + what + " samples: " +
                           std::to_string(have) + " < " + std::to_string(want));
    }
  };
  need("e2e", e2e_samples, 1000);
  need("commit", commit_samples, 1000);
  if (w.config.app_kv) {
    need("read", reads.size(), 1000);
    need("write", writes.size(), 1000);
  }
  if (w.churn_period > 0) {
    need("recovery", recovery.size(), 100);
  }

  // --- Virtual-time metrics: end-to-end ---
  const double e2e_mean = tracker.e2e_latency().MeanMs();
  vt("tput_ktps", observer.ThroughputTps() / 1e3);
  vt("e2e_p50_ms", tracker.e2e_latency().PercentileMs(50));
  vt("e2e_p99_ms", tracker.e2e_latency().PercentileMs(99));
  vt("commit_p50_ms", tracker.commit_latency().PercentileMs(50));
  vt("commit_p99_ms", tracker.commit_latency().PercentileMs(99));
  vt("outage_max_ms", ToMs(observer.MaxGap()));
  vt("read_p50_ms", PercentileMs(reads, 50));
  vt("read_p99_ms", PercentileMs(reads, 99));
  vt("write_p50_ms", PercentileMs(writes, 50));
  vt("write_p99_ms", PercentileMs(writes, 99));
  vt("recovery_p50_ms", PercentileMs(recovery, 50));
  vt("recovery_p90_ms", PercentileMs(recovery, 90));
  vt("ops_attempted", static_cast<double>(attempted));
  vt("ops_failed", static_cast<double>(failed));
  vt("samples.e2e", static_cast<double>(e2e_samples));
  vt("samples.commit", static_cast<double>(commit_samples));
  vt("samples.read", static_cast<double>(reads.size()));
  vt("samples.write", static_cast<double>(writes.size()));
  vt("samples.recovery", static_cast<double>(recovery.size()));
  // --- Virtual-time metrics: per layer ---
  vt("sim.events", static_cast<double>(events));
  vt("sim.events_per_vsec", static_cast<double>(events) / window_s);
  vt("sim.peak_pending", static_cast<double>(cluster.sim().peak_pending_events()));
  vt("host.cpu_busy_max", cpu_busy_max);
  vt("host.handler_p99_us", handler_p99_us);
  vt("host.queue_wait_p99_us", queue_wait_p99_us);
  vt("net.msgs_per_ktx", static_cast<double>(messages) * 1e3 / committed_txs);
  vt("net.bytes_per_tx", static_cast<double>(bytes) / committed_txs);
  vt("net.nic_wait_p99_us", nic_wait_p99_us);
  vt("consensus.txs_per_block",
     observer.blocks() == 0 ? 0.0 : committed_txs / static_cast<double>(observer.blocks()));
  vt("consensus.blocks_per_vsec", static_cast<double>(observer.blocks()) / window_s);
  static constexpr std::pair<const char*, obs::Component> kParts[] = {
      {"vt.net_ms", obs::Component::kNetPropagation},
      {"vt.nic_ms", obs::Component::kNicSerialization},
      {"vt.cpu_ms", obs::Component::kCpu},
      {"vt.ecall_ms", obs::Component::kEcall},
      {"vt.crypto_ms", obs::Component::kCrypto},
      {"vt.counter_ms", obs::Component::kCounter},
      {"vt.fsync_ms", obs::Component::kFsync},
      {"vt.idle_ms", obs::Component::kIdle},
  };
  for (const auto& [name, component] : kParts) {
    vt(name, breakdown.part(component));
  }
  vt("obs.idle_share", e2e_mean > 0.0 ? breakdown.part(obs::Component::kIdle) / e2e_mean : 0.0);
  vt("tee.counter_writes_per_block",
     observer.blocks() == 0 ? 0.0
                            : static_cast<double>(counter_writes) /
                                  static_cast<double>(observer.blocks()));
  vt("storage.log_bytes_retained", log_bytes);
  vt("storage.log_entries_retained", log_entries);
  vt("ckpt.stable_per_vsec", static_cast<double>(stable) / window_s);
  vt("ckpt.snapshot_adopts", static_cast<double>(adopts));
  vt("ckpt.snapshot_serves", static_cast<double>(serves));
  vt("achilles.recoveries_completed", static_cast<double>(recovery.size()));
  vt("app.ops_per_vsec", static_cast<double>(kv_ops) / window_s);
  vt("app.lease_share",
     reads.empty() ? 0.0 : static_cast<double>(lease_reads.size()) /
                               static_cast<double>(reads.size()));
  vt("app.lease_fallbacks", static_cast<double>(fallbacks));
  vt("app.lease_read_p99_us", PercentileMs(lease_reads, 99) * 1e3);
  return r;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_{plain,traced} --workload <lan-sat-n21|kv-lease-n3|"
               "reboot-churn-n5> --seed <n> --seconds <s> [--min-reps <k>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  int min_reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--min-reps") {
      min_reps = std::max(1, std::atoi(value));
    } else {
      return Usage();
    }
  }
  Workload workload;
  if (argc % 2 == 0 || !MakeWorkload(workload_name, seed, &workload)) {
    return Usage();
  }

  const auto t_run = std::chrono::steady_clock::now();
  std::vector<RepResult> reps;
  std::vector<std::string> failures;
  do {
    reps.push_back(RunRep(workload));
    const RepResult& rep = reps.back();
    for (const std::string& f : rep.failures) {
      failures.push_back("rep " + std::to_string(reps.size() - 1) + ": " + f);
    }
    // Same seed, same schedule: any vt difference is a determinism failure.
    if (rep.vt != reps.front().vt) {
      failures.push_back("rep " + std::to_string(reps.size() - 1) +
                         ": virtual-time metrics differ from rep 0");
    }
  } while (static_cast<int>(reps.size()) < min_reps || WallSince(t_run) < seconds);

  std::vector<double> setup_s, wall_ms_per_vsec, window_wall_ms;
  for (const RepResult& rep : reps) {
    setup_s.push_back(rep.setup_s);
    wall_ms_per_vsec.push_back(rep.window_wall_s * 1e3 / Secs(workload.measure));
    window_wall_ms.push_back(rep.window_wall_s * 1e3);
  }
  std::string out = "{\"workload\":" + JsonString(workload_name) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"traced\":" + (kTraced ? "true" : "false") +
                    ",\"reps\":" + std::to_string(reps.size());
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"window_vsec\":%.17g,\"peak_rss_mb\":%.17g",
                Secs(workload.measure), PeakRssMb());
  out += buf;
  out += ",\"setup_s\":" + JsonArray(setup_s);
  out += ",\"wall_ms_per_vsec\":" + JsonArray(wall_ms_per_vsec);
  out += ",\"window_wall_ms\":" + JsonArray(window_wall_ms);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(failures[i]);
  }
  out += "],\"vt\":{";
  const auto& vt = reps.front().vt;
  for (size_t i = 0; i < vt.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", vt[i].second);
    out += (i == 0 ? "" : ",") + JsonString(vt[i].first) + ":" + buf;
  }
  out += "}";
#if PERFBENCH_TRACED
  static constexpr const char* kLayerNames[kNumLayers] = {"other", "queue",  "net",
                                                          "mempool", "crypto", "obs"};
  out += ",\"ledger\":{";
  for (size_t l = 0; l < kNumLayers; ++l) {
    std::vector<double> ms, calls;
    for (const RepResult& rep : reps) {
      ms.push_back(static_cast<double>(rep.ledger.ns[l]) / 1e6);
      calls.push_back(static_cast<double>(rep.ledger.calls[l]));
    }
    out += std::string(l == 0 ? "" : ",") + JsonString(kLayerNames[l]) + ":{\"ms\":" +
           JsonArray(ms) + ",\"calls\":" + JsonArray(calls) + "}";
  }
  out += "}";
#endif
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
