// Wall-clock layer ledger of the traced benchmark binary. layer_wraps.cc routes calls into
// each named layer's public entry points through a LayerScope, which charges elapsed host
// time to exactly one layer at a time: entering a layer pauses the caller's layer, so
// nested calls (a queue push inside Network::Send) are booked to the innermost layer and
// nothing is counted twice. Time spent outside every named layer is the residual, booked
// to kOther. Single-threaded, like the simulator.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>

namespace perfbench {

enum Layer : uint8_t {
  kOther = 0,  // Protocol handlers, host dispatch, harness: everything not named below.
  kQueue,      // src/sim event queue: CalendarQueue + EventPool.
  kNet,        // src/sim/network: Network::Send / Multicast.
  kMempool,    // src/consensus/mempool.
  kCrypto,     // src/crypto: hashes, MACs, signatures.
  kObs,        // src/obs recorders: span tracer, journal, critical-path collector.
  kNumLayers,
};

struct LedgerTotals {
  std::array<uint64_t, kNumLayers> ns{};     // Exclusive wall time per layer.
  std::array<uint64_t, kNumLayers> calls{};  // Entries into the layer from another layer.
};

// Totals since process start. Read between calls, from outside every layer.
LedgerTotals ReadLedger();

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
