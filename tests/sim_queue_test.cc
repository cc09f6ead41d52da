// Event-queue suite for the simulation core (DESIGN.md §2.21).
//
// The production Simulation runs on the CalendarQueue. The differential fuzz drives it in
// lockstep with a test-local reference scheduler — an ordered set of (time, seq, tag) where
// cancel is an erase — and requires identical observable behaviour: pop order (time, then
// FIFO seq), Step/RunUntil results, pending/peak accounting, and cancel semantics,
// including cancelling handles whose events already fired, which must be a safe no-op.
//
// The fuzz loop runs >= 50 seeds x >= 10,000 operations each, cycling adversarial time
// distributions (uniform short delays, heavy same-tick ties, far-future tails, and a mix)
// that stress the calendar's bucket adaptation, intra-bucket FIFO chains, and the
// fruitless-year direct-scan fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulation.h"

namespace achilles {
namespace {

using Firing = std::pair<SimTime, uint64_t>;  // (virtual time, schedule tag)

struct Probe {
  Simulation* sim;
  std::vector<Firing> fired;

  static void Fire(void* self, uint64_t tag, uint64_t) {
    auto* p = static_cast<Probe*>(self);
    p->fired.emplace_back(p->sim->Now(), tag);
  }
};

// Reference scheduler: an ordered set keyed by (time, seq, tag) gives the (time, seq) pop
// order by construction, and cancel erases by seq. A handle is the event's seq; cancelling
// one that already fired or was cancelled finds nothing to erase.
class ReferenceSim {
 public:
  SimTime Now() const { return now_; }
  size_t pending_events() const { return pending_.size(); }
  uint64_t executed_events() const { return executed_; }
  size_t peak_pending_events() const { return peak_pending_; }
  const std::vector<Firing>& fired() const { return fired_; }

  uint64_t ScheduleAfter(SimDuration delay, uint64_t tag) {
    const Key key{now_ + delay, next_seq_++, tag};
    pending_.insert(key);
    by_seq_.emplace(std::get<1>(key), key);
    peak_pending_ = std::max(peak_pending_, pending_.size());
    return std::get<1>(key);
  }

  void Cancel(uint64_t seq) {
    const auto it = by_seq_.find(seq);
    if (it != by_seq_.end()) {
      pending_.erase(it->second);
      by_seq_.erase(it);
    }
  }

  bool Step() {
    if (pending_.empty()) {
      return false;
    }
    const Key key = *pending_.begin();
    pending_.erase(pending_.begin());
    by_seq_.erase(std::get<1>(key));
    now_ = std::get<0>(key);
    ++executed_;
    fired_.emplace_back(now_, std::get<2>(key));
    return true;
  }

  void RunUntil(SimTime t) {
    while (!pending_.empty() && std::get<0>(*pending_.begin()) <= t) {
      Step();
    }
    now_ = t;
  }

  void RunUntilIdle() {
    while (Step()) {
    }
  }

 private:
  using Key = std::tuple<SimTime, uint64_t, uint64_t>;  // (time, seq, tag)

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t peak_pending_ = 0;
  std::set<Key> pending_;
  std::unordered_map<uint64_t, Key> by_seq_;
  std::vector<Firing> fired_;
};

// Adversarial delay distributions, selected per seed.
SimDuration DrawDelay(Rng& rng, int mode) {
  switch (mode) {
    case 0:  // Uniform short: the steady-state protocol shape.
      return static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Us(500))));
    case 1:  // Heavy ties: a handful of hot ticks exercises FIFO chains within a bucket.
      return static_cast<SimDuration>(Us(25) * static_cast<SimDuration>(rng.UniformU64(4)));
    case 2:  // Far-future tail: timeouts a year of buckets away force the direct scan.
      if (rng.UniformU64(20) == 0) {
        return Sec(1) + static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Sec(5))));
      }
      return static_cast<SimDuration>(rng.UniformU64(static_cast<uint64_t>(Us(50))));
    default:  // Mixed: re-roll the mode per event.
      return DrawDelay(rng, static_cast<int>(rng.UniformU64(3)));
  }
}

// Applies one op script to the Simulation and the reference and checks lockstep
// equivalence after every op.
void DifferentialFuzz(uint64_t seed, size_t num_ops) {
  Simulation sim(seed);
  ReferenceSim ref;
  Probe probe{&sim, {}};
  Rng script(seed * 0x9e3779b97f4a7c15ULL + 1);
  // Handles are never dropped: late cancels deliberately hit fired/recycled events.
  std::vector<EventId> sim_ids;
  std::vector<uint64_t> ref_ids;
  uint64_t tag = 0;
  const int mode = static_cast<int>(seed % 4);

  for (size_t op = 0; op < num_ops; ++op) {
    const uint64_t roll = script.UniformU64(100);
    if (roll < 50) {
      const SimDuration d = DrawDelay(script, mode);
      sim_ids.push_back(sim.ScheduleRawAfter(d, &Probe::Fire, &probe, tag));
      ref_ids.push_back(ref.ScheduleAfter(d, tag));
      ++tag;
    } else if (roll < 58) {
      // Boxed fallback events must interleave with raw ones identically.
      const SimDuration d = DrawDelay(script, mode);
      const uint64_t t = tag++;
      sim_ids.push_back(
          sim.ScheduleAfter(d, [&probe, t] { probe.fired.emplace_back(probe.sim->Now(), t); }));
      ref_ids.push_back(ref.ScheduleAfter(d, t));
    } else if (roll < 68 && !sim_ids.empty()) {
      // Cancel a uniformly random handle — pending, fired, or already cancelled alike.
      const size_t pick = script.UniformU64(sim_ids.size());
      sim.Cancel(sim_ids[pick]);
      ref.Cancel(ref_ids[pick]);
    } else if (roll < 90) {
      ASSERT_EQ(sim.Step(), ref.Step()) << "seed " << seed << " op " << op;
    } else {
      const SimTime t = ref.Now() + DrawDelay(script, mode);
      sim.RunUntil(t);
      ref.RunUntil(t);
      ASSERT_EQ(sim.Now(), t) << "seed " << seed << " op " << op;
    }
    ASSERT_EQ(sim.Now(), ref.Now()) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.pending_events(), ref.pending_events()) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.executed_events(), ref.executed_events()) << "seed " << seed << " op " << op;
    // Every pending event owns exactly one queued, pooled node: a leak, a double free or a
    // stray unlink breaks one of these before it reaches the pop order.
    ASSERT_EQ(sim.queue().size(), ref.pending_events()) << "seed " << seed << " op " << op;
    ASSERT_EQ(sim.pool().live(), ref.pending_events()) << "seed " << seed << " op " << op;
    ASSERT_EQ(probe.fired.size(), ref.fired().size()) << "seed " << seed << " op " << op;
  }

  sim.RunUntilIdle();
  ref.RunUntilIdle();
  ASSERT_EQ(probe.fired, ref.fired()) << "seed " << seed;
  ASSERT_EQ(sim.executed_events(), ref.executed_events());
  ASSERT_EQ(sim.peak_pending_events(), ref.peak_pending_events()) << "seed " << seed;
  ASSERT_EQ(sim.pending_events(), 0u);
  ASSERT_EQ(sim.pool().live(), 0u);
}

TEST(SimQueueDifferentialTest, FuzzManySeedsManyOps) {
  // 56 seeds x 12,000 ops — covers all four distribution modes 14 times over.
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    DifferentialFuzz(seed, 12'000);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Equal-time events pop strictly FIFO (by schedule seq), even when a burst lands on one
// tick interleaved with earlier/later stragglers.
TEST(SimQueueTest, EqualTimePopsAreFifo) {
  Simulation sim(7);
  Probe probe{&sim, {}};
  const SimTime burst = Us(100);
  std::vector<uint64_t> before, at, after;
  for (uint64_t i = 0; i < 256; ++i) {
    sim.ScheduleRawAt(burst, &Probe::Fire, &probe, i);
    at.push_back(i);
    if (i % 16 == 0) {  // Stragglers around the burst must not disturb the FIFO chain.
      sim.ScheduleRawAt(burst - Us(1), &Probe::Fire, &probe, 10'000 + i);
      sim.ScheduleRawAt(burst + Us(1), &Probe::Fire, &probe, 20'000 + i);
      before.push_back(10'000 + i);
      after.push_back(20'000 + i);
    }
  }
  sim.RunUntilIdle();
  std::vector<uint64_t> expect = before;
  expect.insert(expect.end(), at.begin(), at.end());
  expect.insert(expect.end(), after.begin(), after.end());
  std::vector<uint64_t> tags;
  for (const Firing& f : probe.fired) {
    tags.push_back(f.second);
  }
  EXPECT_EQ(tags, expect);
}

TEST(SimQueueTest, CancelOfFiredEventIsNoOp) {
  Simulation sim(3);
  Probe probe{&sim, {}};
  const EventId first = sim.ScheduleRawAfter(Us(1), &Probe::Fire, &probe, 1);
  sim.ScheduleRawAfter(Us(2), &Probe::Fire, &probe, 2);
  ASSERT_TRUE(sim.Step());  // Fires tag 1; its node returns to the pool.
  const size_t pending_before = sim.pending_events();
  sim.Cancel(first);           // Already fired: generation check rejects the handle.
  sim.Cancel(kInvalidEvent);   // Never scheduled: equally a no-op.
  EXPECT_EQ(sim.pending_events(), pending_before);
  // The node slot may be recycled by a new event; the stale handle must not kill it.
  const EventId recycled = sim.ScheduleRawAfter(Us(3), &Probe::Fire, &probe, 3);
  sim.Cancel(first);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntilIdle();
  ASSERT_EQ(probe.fired.size(), 3u);
  EXPECT_EQ(probe.fired[1].second, 2u);
  EXPECT_EQ(probe.fired[2].second, 3u);
  sim.Cancel(recycled);  // Cancel after idle: everything fired, still a no-op.
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimQueueTest, RunUntilBoundaryIsInclusive) {
  Simulation sim(11);
  Probe probe{&sim, {}};
  sim.ScheduleRawAt(Us(10), &Probe::Fire, &probe, 1);
  sim.ScheduleRawAt(Us(20), &Probe::Fire, &probe, 2);  // Exactly at the boundary.
  sim.ScheduleRawAt(Us(20) + 1, &Probe::Fire, &probe, 3);
  sim.RunUntil(Us(20));
  // Events at t <= boundary fire; the clock parks exactly at the boundary.
  ASSERT_EQ(probe.fired.size(), 2u);
  EXPECT_EQ(probe.fired[1].second, 2u);
  EXPECT_EQ(sim.Now(), Us(20));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunUntilIdle();
  ASSERT_EQ(probe.fired.size(), 3u);
  EXPECT_EQ(sim.Now(), Us(20) + 1);
}

TEST(SimQueueTest, PendingAndPeakAccounting) {
  Simulation sim(5);
  Probe probe{&sim, {}};
  std::vector<EventId> ids;
  for (uint64_t i = 0; i < 100; ++i) {
    ids.push_back(
        sim.ScheduleRawAfter(Us(1) + static_cast<SimDuration>(i), &Probe::Fire, &probe, i));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  for (size_t i = 0; i < 40; ++i) {  // Cancels shrink pending but never the peak.
    sim.Cancel(ids[i * 2]);
  }
  EXPECT_EQ(sim.pending_events(), 60u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  // Cancel frees the node at once: the pool and the queue hold only the 60 survivors.
  EXPECT_EQ(sim.pool().live(), 60u);
  EXPECT_EQ(sim.queue().size(), 60u);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 60u);
  EXPECT_EQ(probe.fired.size(), 60u);
  EXPECT_EQ(sim.peak_pending_events(), 100u);
  EXPECT_EQ(sim.pool().live(), 0u);
  EXPECT_GE(sim.pool().high_water(), 100u);
}

}  // namespace
}  // namespace achilles
