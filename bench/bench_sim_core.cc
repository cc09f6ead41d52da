// Simulator-core microbenchmark: raw calendar-queue throughput on three time profiles,
// plus the counters that show the slab pool, the raw-callback path and the calendar's
// bucket adaptation doing their job (DESIGN.md §2.21). No cluster, no protocols — this
// isolates the scheduling hot path that dominates bench_fig4_saturation's wall clock.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/harness/bench_report.h"
#include "src/harness/experiment.h"
#include "src/sim/simulation.h"

namespace achilles {
namespace {

struct Profile {
  const char* name;
  // Returns the delay for the i-th scheduled event given a random draw.
  SimDuration (*delay)(Rng& rng);
};

SimDuration UniformShort(Rng& rng) { return static_cast<SimDuration>(rng.UniformU64(Us(200))); }

SimDuration Bursty(Rng& rng) {
  // 90% of events land on one of 16 hot ticks, the rest spread wide: stresses intra-bucket
  // FIFO chains and the calendar's width estimate at once.
  if (rng.UniformU64(10) != 0) {
    return static_cast<SimDuration>(Us(50) * rng.UniformU64(16));
  }
  return static_cast<SimDuration>(rng.UniformU64(Ms(50)));
}

SimDuration FarFuture(Rng& rng) {
  // Mostly near-term traffic with a tail of far-out timers (protocol timeout shape):
  // stresses the cursor's year sweep and the direct-scan fallback.
  if (rng.UniformU64(20) == 0) {
    return Ms(100) + static_cast<SimDuration>(rng.UniformU64(Sec(2)));
  }
  return static_cast<SimDuration>(rng.UniformU64(Us(100)));
}

constexpr Profile kProfiles[] = {
    {"uniform-short", &UniformShort},
    {"bursty", &Bursty},
    {"far-future", &FarFuture},
};

struct ProfileResult {
  double ops_per_sec = 0.0;
  uint64_t executed = 0;
  size_t pool_slabs = 0;
  size_t pool_capacity = 0;
  size_t peak_pending = 0;
  uint64_t boxed_events = 0;
  uint64_t queue_resizes = 0;
};

// Self-scheduling raw event: each firing schedules `fanout` successors until the budget
// runs dry, with a seeded cancel mix (roughly 1 in 8 scheduled events is cancelled).
struct Driver {
  Simulation* sim;
  const Profile* profile;
  uint64_t remaining;
  EventId pending_cancel{};

  static void Fire(void* self, uint64_t, uint64_t) {
    auto* d = static_cast<Driver*>(self);
    if (d->remaining == 0) {
      return;
    }
    const int fanout = 1 + static_cast<int>(d->sim->rng().UniformU64(2));
    for (int i = 0; i < fanout && d->remaining > 0; ++i, --d->remaining) {
      const EventId id = d->sim->ScheduleRawAfter(d->profile->delay(d->sim->rng()),
                                                  &Driver::Fire, d);
      if (d->sim->rng().UniformU64(8) == 0) {
        // Cancel a previously remembered event and remember this one instead.
        d->sim->Cancel(d->pending_cancel);
        d->pending_cancel = id;
      }
    }
  }
};

ProfileResult RunProfile(const Profile& profile, uint64_t budget, uint64_t seed) {
  Simulation sim(seed);
  Driver driver{&sim, &profile, budget, kInvalidEvent};
  // Seed a handful of initial chains so the queue carries realistic parallelism.
  for (int i = 0; i < 64 && driver.remaining > 0; ++i, --driver.remaining) {
    sim.ScheduleRawAfter(profile.delay(sim.rng()), &Driver::Fire, &driver);
  }
  const auto start = std::chrono::steady_clock::now();
  sim.RunUntilIdle();
  const auto stop = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(stop - start).count();

  ProfileResult r;
  r.executed = sim.executed_events();
  r.ops_per_sec = secs > 0.0 ? static_cast<double>(r.executed) / secs : 0.0;
  r.pool_slabs = sim.pool().slabs();
  r.pool_capacity = sim.pool().capacity();
  r.peak_pending = sim.peak_pending_events();
  r.boxed_events = sim.boxed_events();
  r.queue_resizes = sim.queue().resizes();
  return r;
}

int Main() {
  const uint64_t budget =
      static_cast<uint64_t>(2'000'000 * BenchScale()) < 100'000
          ? 100'000
          : static_cast<uint64_t>(2'000'000 * BenchScale());
  std::printf("# Simulator core — calendar event queue by time profile (%llu events/profile)"
              "\n\n",
              static_cast<unsigned long long>(budget));
  TablePrinter table({"profile", "events/sec", "peak pending", "pool slabs", "pool capacity",
                      "boxed events", "queue resizes"});
  for (const Profile& profile : kProfiles) {
    const ProfileResult r = RunProfile(profile, budget, 42);
    table.AddRow({profile.name, TablePrinter::Num(r.ops_per_sec / 1e6, 3) + "M",
                  std::to_string(r.peak_pending), std::to_string(r.pool_slabs),
                  std::to_string(r.pool_capacity), std::to_string(r.boxed_events),
                  std::to_string(r.queue_resizes)});
    std::fprintf(stderr, "  done %s\n", profile.name);
  }
  table.Print();
  std::printf("\nSteady-state protocol traffic schedules through the raw path: boxed\n");
  std::printf("events stay at zero and the pool's slab count bounds total allocation.\n");
  return 0;
}

}  // namespace
}  // namespace achilles

int main(int argc, char** argv) {
  achilles::BenchIo io("sim_core", &argc, argv);
  return io.Finish(achilles::Main());
}
