// bench_defense: races the pluggable rollback-defense backends (src/storage/defense.h)
// against each other across the TEE protocols that persist trusted state through the
// defense seam. Two questions, two tables:
//
//   steady-state tax   what does each defense cost on the commit critical path when
//                      nothing goes wrong? Per (protocol x defense): throughput, commit
//                      p50, defense writes (counter increments under local, quorum
//                      replications/certifications otherwise), and the throughput tax
//                      vs the same protocol under --defense local. Each defended run
//                      publishes the tax as the `defense.tax_pct` metrics gauge, whose
//                      worst value (clamped at 0) the CI bench-smoke job bounds.
//
//   post-reboot recovery   how fast is a crashed replica useful again, and what happens
//                      when the adversary serves it rolled-back sealed state at reboot?
//                      Per (protocol x defense) x {clean, rollback}: virtual ms from
//                      reboot until the victim's committed prefix catches back up to the
//                      cluster's height at the crash, or "halt" when the replica
//                      (correctly) crash-stops instead — the local/healer answer to a
//                      detected rollback, vs rollbaccine's peer repair and Achilles'
//                      counter-free network recovery, which rejoin through the attack.
//
// The quorum is modeled as always reachable within the charged latency (DESIGN.md §2.23),
// which is the assumption most favorable to the competing designs — the tax reported here
// is their floor, not their ceiling.
#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/achilles/replica.h"
#include "src/harness/bench_report.h"
#include "src/harness/experiment.h"
#include "src/storage/defense.h"

namespace achilles {
namespace {

constexpr Protocol kProtocols[] = {Protocol::kAchilles, Protocol::kDamysusR,
                                   Protocol::kOneShotR};
constexpr persist::DefenseKind kDefenses[] = {persist::DefenseKind::kLocal,
                                              persist::DefenseKind::kRollbaccine,
                                              persist::DefenseKind::kHealer};

ClusterConfig BaseConfig(Protocol protocol, persist::DefenseKind defense) {
  ClusterConfig config;
  config.protocol = protocol;
  config.defense = defense;
  config.f = 1;
  config.batch_size = 100;
  config.payload_size = 256;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(200);
  config.seed = 0xdefe45e0 + static_cast<uint64_t>(protocol) * 16 +
                static_cast<uint64_t>(defense);
  return config;
}

// Total externalized anti-rollback writes the run performed: counter increments under
// local, peer replications + certifications under the quorum backends.
uint64_t DefenseWrites(Cluster& cluster, const RunStats& stats,
                       persist::DefenseKind defense) {
  if (defense == persist::DefenseKind::kLocal) {
    return stats.counter_writes;
  }
  persist::DefenseService* service = cluster.defense_service();
  return service == nullptr ? 0 : service->replications() + service->certifications();
}

// MeasureOnce with the defense gauge: the tax vs `local_tps` (<= 0 on the baseline run
// itself) is published into the run's metrics snapshot before it is recorded, so the
// JSON report carries it per defended run.
RunStats MeasureSteady(const ClusterConfig& config, double local_tps,
                       uint64_t* defense_writes) {
  SimDuration warmup = DefaultWarmup(config.net);
  SimDuration measure = DefaultMeasure(config.net);
  const double scale = BenchScale();
  if (scale < 1.0) {
    warmup = std::max<SimDuration>(Ms(200), static_cast<SimDuration>(warmup * scale));
    measure = std::max<SimDuration>(Ms(500), static_cast<SimDuration>(measure * scale));
  }
  Cluster cluster(config);
  const RunStats stats = cluster.RunMeasured(warmup, measure);
  if (!stats.safety_ok) {
    std::fprintf(stderr, "FATAL: safety violated (%s, defense=%s)\n",
                 ProtocolName(config.protocol), persist::DefenseKindName(config.defense));
    std::abort();
  }
  *defense_writes = DefenseWrites(cluster, stats, config.defense);
  if (local_tps > 0.0) {
    const double tax = 100.0 * (1.0 - stats.throughput_tps / local_tps);
    cluster.metrics().GetGauge("defense.tax_pct")->Set(tax);
  }
  BenchReport::Instance().RecordRun(config, stats, cluster);
  return stats;
}

struct RecoveryOutcome {
  bool halted = false;     // Victim crash-stopped (rollback detected and refused).
  bool recovered = false;  // Victim's committed prefix caught back up to the crash height.
  double ms = 0.0;         // Virtual reboot -> caught-up latency when recovered.
};

// Crashes the last replica, optionally rolls its sealed storage back to the oldest
// version (the full-reset rollback attack), reboots it, and measures virtual time until
// its committed prefix regains the cluster's committed height at the crash.
RecoveryOutcome MeasureRecovery(Protocol protocol, persist::DefenseKind defense,
                                bool rollback) {
  ClusterConfig config = BaseConfig(protocol, defense);
  config.seed += rollback ? 0x9000 : 0x1000;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Ms(400));
  const uint32_t victim = cluster.num_replicas() - 1;
  Height target = 0;
  for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
    target = std::max(target, cluster.replica(i)->Invariants().committed_height);
  }
  cluster.CrashReplica(victim);
  cluster.sim().RunFor(Ms(120));  // Let the survivors absorb the crash first.
  SealedStorage& storage = cluster.platform(victim).storage();
  if (rollback) {
    storage.SetRollbackMode(RollbackMode::kOldest);
  }
  cluster.RebootReplica(victim);
  storage.SetRollbackMode(RollbackMode::kLatest);
  const SimTime reboot_at = cluster.sim().Now();
  RecoveryOutcome outcome;
  const SimTime deadline = reboot_at + Sec(12);
  while (cluster.sim().Now() < deadline) {
    cluster.sim().RunFor(Ms(10));
    const InvariantSnapshot snap = cluster.replica(victim)->Invariants();
    if (snap.halted) {
      outcome.halted = true;
      return outcome;
    }
    if (snap.committed_height >= target && !snap.recovering) {
      outcome.recovered = true;
      outcome.ms = ToMs(cluster.sim().Now() - reboot_at);
      return outcome;
    }
  }
  return outcome;  // Neither caught up nor halted inside the budget.
}

std::string RecoveryCell(const RecoveryOutcome& outcome) {
  if (outcome.halted) {
    return "halt";
  }
  if (!outcome.recovered) {
    return "DID NOT RECOVER";
  }
  return TablePrinter::Num(outcome.ms);
}

int Main() {
  std::printf("# Rollback-defense backends: steady-state tax and post-reboot recovery\n");
  std::printf("# (quorum reachable within charged latency; tax is the defenses' floor)\n\n");

  TablePrinter steady({"protocol", "defense", "tps", "commit p50 (ms)", "defense writes",
                       "tax vs local (%)"});
  for (Protocol protocol : kProtocols) {
    double local_tps = 0.0;
    for (persist::DefenseKind defense : kDefenses) {
      ClusterConfig config = BaseConfig(protocol, defense);
      uint64_t writes = 0;
      const RunStats stats = MeasureSteady(config, local_tps, &writes);
      const bool is_local = defense == persist::DefenseKind::kLocal;
      const double tax = is_local ? 0.0 : 100.0 * (1.0 - stats.throughput_tps / local_tps);
      steady.AddRow({ProtocolName(protocol), persist::DefenseKindName(defense),
                     TablePrinter::Num(stats.throughput_tps, 0),
                     TablePrinter::Num(stats.commit_p50_ms),
                     std::to_string(writes),
                     is_local ? "-" : TablePrinter::Num(tax, 1)});
      if (is_local) {
        local_tps = stats.throughput_tps;
      }
      std::fprintf(stderr, "  steady %s/%s done\n", ProtocolName(protocol),
                   persist::DefenseKindName(defense));
    }
  }
  steady.Print();

  std::printf("\n## Post-reboot recovery (virtual ms, reboot -> committed prefix regains\n");
  std::printf("## the crash-time cluster height; 'halt' = rollback detected, replica\n");
  std::printf("## crash-stops by design)\n\n");
  TablePrinter recovery({"protocol", "defense", "clean reboot (ms)",
                         "rolled-back reboot"});
  for (Protocol protocol : kProtocols) {
    for (persist::DefenseKind defense : kDefenses) {
      const RecoveryOutcome clean = MeasureRecovery(protocol, defense, /*rollback=*/false);
      const RecoveryOutcome attacked = MeasureRecovery(protocol, defense,
                                                       /*rollback=*/true);
      recovery.AddRow({ProtocolName(protocol), persist::DefenseKindName(defense),
                       RecoveryCell(clean), RecoveryCell(attacked)});
      std::fprintf(stderr, "  recovery %s/%s done\n", ProtocolName(protocol),
                   persist::DefenseKindName(defense));
    }
  }
  recovery.Print();

  std::printf(
      "\nReading: local detects rollback only with a counter (the -R variants halt);\n"
      "rollbaccine repairs it from peer copies and rejoins; healer refuses it (halt)\n"
      "unless the protocol — Achilles — can re-derive trusted state from the network.\n");
  return 0;
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) {
  // --smoke mirrors bench_all's CI plumbing mode for standalone invocations.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      setenv("ACHILLES_BENCH_SCALE", "0.05", /*overwrite=*/0);
    }
  }
  achilles::BenchIo io("defense", &argc, argv);
  return io.Finish(achilles::Main());
}
