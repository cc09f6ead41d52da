// Experiment helpers shared by the bench binaries: single measured runs, saturation
// search, and aligned table printing.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/harness/cluster.h"

namespace achilles {

// Runs one cluster to completion of warmup+measure and returns the stats. Aborts the
// process with a diagnostic if the run violated safety (a bench must never average over a
// broken run).
RunStats MeasureOnce(const ClusterConfig& config, SimDuration warmup, SimDuration measure);

// Parses a bench scale fraction in full: true and *out set only for a number in (0, 1]
// with no trailing text ("abc", "0.5x", "0" and "1.5" are all rejected).
bool ParseBenchScale(const char* text, double* out);

// Smoke-scale factor from ACHILLES_BENCH_SCALE in (0, 1], or 1.0 when unset or empty.
// MeasureOnce applies it to measurement windows; microbenches (bench_sim_core) apply it
// to op counts. A value ParseBenchScale rejects exits the process with status 2; BenchIo
// calls this at startup so every bench binary fails before it runs anything.
double BenchScale();

// Default measurement windows per network profile (WAN views are ~400x longer).
SimDuration DefaultWarmup(const NetworkConfig& net);
SimDuration DefaultMeasure(const NetworkConfig& net);

// --- Table printing ---

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Num(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace achilles

#endif  // SRC_HARNESS_EXPERIMENT_H_
