#include "src/harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/harness/bench_report.h"

namespace achilles {

bool ParseBenchScale(const char* text, double* out) {
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(parsed > 0.0 && parsed <= 1.0)) {
    return false;
  }
  *out = parsed;
  return true;
}

// Smoke-scale knob for CI: ACHILLES_BENCH_SCALE=<fraction> shrinks every bench's
// warmup/measure window by that factor (tools/bench_all --smoke sets it for its children).
// Floors keep the windows long enough that protocols still commit; results at reduced
// scale are for plumbing checks, not for quoting.
double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("ACHILLES_BENCH_SCALE");
    double parsed = 1.0;
    if (env != nullptr && *env != '\0' && !ParseBenchScale(env, &parsed)) {
      // A typo must not silently run the full-scale bench the caller meant to shrink.
      std::fprintf(stderr, "ACHILLES_BENCH_SCALE wants a fraction in (0, 1], got '%s'\n",
                   env);
      std::exit(2);
    }
    return parsed;
  }();
  return scale;
}

RunStats MeasureOnce(const ClusterConfig& config, SimDuration warmup, SimDuration measure) {
  const double scale = BenchScale();
  if (scale < 1.0) {
    warmup = std::max<SimDuration>(Ms(200), static_cast<SimDuration>(warmup * scale));
    measure = std::max<SimDuration>(Ms(500), static_cast<SimDuration>(measure * scale));
  }
  BenchReport& report = BenchReport::Instance();
  ClusterConfig effective = config;
  // First measured run of the process carries the trace when --trace-out was given.
  // Tracing records to memory only, so stats are unaffected (tested bit-identical).
  effective.tracing = config.tracing || report.trace_wanted();
  // --critpath-out turns on causal profiling for every run of the process; like tracing,
  // collection is memory-only and leaves virtual-time results bit-identical.
  effective.critpath = config.critpath || report.critpath_wanted();
  Cluster cluster(effective);
  const RunStats stats = cluster.RunMeasured(warmup, measure);
  if (!stats.safety_ok) {
    std::fprintf(stderr, "FATAL: safety violated during bench run (%s, f=%u): %s\n",
                 ProtocolName(config.protocol), config.f,
                 cluster.tracker().violation().c_str());
    std::abort();
  }
  report.RecordRun(effective, stats, cluster);
  return stats;
}

SimDuration DefaultWarmup(const NetworkConfig& net) {
  return net.one_way_base >= Ms(5) ? Sec(2) : Ms(500);
}

SimDuration DefaultMeasure(const NetworkConfig& net) {
  return net.one_way_base >= Ms(5) ? Sec(10) : Sec(3);
}

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void TablePrinter::Print() const {
  BenchReport::Instance().RecordTable(headers_, rows_);
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t c = 0; c < widths.size(); ++c) {
    for (size_t i = 0; i < widths[c] + 2; ++i) {
      std::printf("-");
    }
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    print_row(row);
  }
  std::fflush(stdout);
}

}  // namespace achilles
