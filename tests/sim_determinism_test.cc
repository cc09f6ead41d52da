// Replay-stability suite for the simulation core (DESIGN.md §2.21).
//
// The event queue dequeues in exactly (time, seq) order, so a whole chaos run is a pure
// function of (seed, config): same event log, same flight-recorder journal, same
// client-observed KV history, digest for digest. This suite re-runs adversarial chaos
// seeds (crash, reboot, partition, rollback attacks, checkpoint/snapshot fates; seeds
// round-robin over all ten protocols) and replays their script artifacts, and requires
// every digest to match the first run.
//
// Any hidden nondeterminism in the hot path — an iteration over pointer-keyed state, an
// uninitialised field, a cancel that resurrects — shows up here as a digest mismatch long
// before anyone reads a benchmark number.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/chaos/runner.h"
#include "src/harness/cluster.h"

namespace achilles {
namespace {

// Reboot/checkpoint-weighted options: the recovery paths (WAL replay, snapshot state
// transfer, sealed-state restore) schedule the gnarliest event patterns — far-future
// timeouts, cancelled retransmits, reboot closures — which is exactly where
// nondeterminism would hide.
chaos::ChaosOptions SweepOptions(bool app_kv) {
  chaos::ChaosOptions options;
  options.journal = true;       // The journal digest fingerprints replica internals.
  options.reboot_prob = 0.85;
  options.ckpt_prob = 0.5;
  options.app_kv = app_kv;
  return options;
}

void ExpectSameRun(const chaos::ChaosResult& a, const chaos::ChaosResult& b,
                   uint64_t seed) {
  ASSERT_EQ(a.ok, b.ok) << "seed " << seed;
  ASSERT_EQ(a.violation, b.violation) << "seed " << seed;
  ASSERT_EQ(a.final_height, b.final_height) << "seed " << seed;
  ASSERT_EQ(a.log_digest_hex, b.log_digest_hex)
      << "seed " << seed << " (" << ProtocolName(a.protocol) << ", f=" << a.f
      << "): event-log digest diverged";
  ASSERT_EQ(a.journal_digest_hex, b.journal_digest_hex)
      << "seed " << seed << ": journal digest diverged";
  ASSERT_EQ(a.history_digest_hex, b.history_digest_hex)
      << "seed " << seed << ": KV history digest diverged";
}

TEST(SimDeterminismTest, ReplayIsDigestStable) {
  // Same seed twice => bit-identical run. This is the --replay property chaos_main
  // checks; the KV leg adds the client-observed history digest to the compare.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    for (const bool app_kv : {false, true}) {
      const chaos::ChaosOptions options = SweepOptions(app_kv);
      const chaos::ChaosResult first = chaos::RunChaosSeed(options, seed);
      const chaos::ChaosResult second = chaos::RunChaosSeed(options, seed);
      if (app_kv) {
        ASSERT_FALSE(first.history_digest_hex.empty()) << "seed " << seed;
      }
      ExpectSameRun(first, second, seed);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(SimDeterminismTest, ScriptReplayMatchesSeedRun) {
  // Replaying the *artifact* (explicit script) lands on the original digests: the
  // reproducer a failing CI run uploads re-executes the exact failing schedule.
  const chaos::ChaosOptions options = SweepOptions(/*app_kv=*/false);
  for (uint64_t seed = 3; seed < 23; seed += 5) {
    const chaos::ChaosResult original = chaos::RunChaosSeed(options, seed);
    const chaos::ChaosResult replay = chaos::RunChaosScript(
        options, seed, original.protocol, original.f, original.script);
    ExpectSameRun(original, replay, seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace achilles
