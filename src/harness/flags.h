// Shared CLI flag family for every bench and chaos tool. One FlagSet parses the four
// flags that cut across the whole tool fleet, so no binary grows its own divergent
// spelling of them:
//
//   --defense NAME|--defense=NAME   rollback-defense backend (local|rollbaccine|healer;
//                                   src/storage/defense.h). Applied process-wide via
//                                   persist::SetDefaultDefense, so every ClusterConfig a
//                                   bench builds afterwards picks it up with no per-bench
//                                   plumbing.
//   --json-out[=PATH]               machine-readable report (BENCH_<tool>.json default)
//   --trace-out[=PATH]              Chrome trace_event export of the first measured run
//   --critpath-out[=PATH]           causal critical-path profile export
//
// Parse extracts the family from argv in place — consumed entries are removed and *argc
// shrinks — so a tool's own parser only ever sees its private flags. Tools that have no
// use for an out-path (chaos_main, bench_all) still accept the family: the values are
// parsed, exposed through the accessors, and simply unused.
#ifndef SRC_HARNESS_FLAGS_H_
#define SRC_HARNESS_FLAGS_H_

#include <string>

#include "src/storage/defense.h"

namespace achilles {
namespace harness {

class FlagSet {
 public:
  // `tool` names the binary for diagnostics and for the default BENCH_<tool>.* paths.
  explicit FlagSet(const char* tool);

  // Consumes the shared flag family from argv[1..*argc), compacting the survivors and
  // updating *argc. On success applies --defense via persist::SetDefaultDefense and
  // returns true; on a malformed value (e.g. --defense bogus) prints a diagnostic naming
  // the tool and returns false. Idempotent over argv: flags not in the family are left
  // untouched, in order.
  bool Parse(int* argc, char** argv);

  persist::DefenseKind defense() const { return defense_; }
  bool defense_set() const { return defense_set_; }
  const std::string& json_out() const { return json_out_; }
  const std::string& trace_out() const { return trace_out_; }
  const std::string& critpath_out() const { return critpath_out_; }

 private:
  std::string tool_;
  persist::DefenseKind defense_ = persist::DefenseKind::kLocal;
  bool defense_set_ = false;
  std::string json_out_;
  std::string trace_out_;
  std::string critpath_out_;
};

}  // namespace harness
}  // namespace achilles

#endif  // SRC_HARNESS_FLAGS_H_
