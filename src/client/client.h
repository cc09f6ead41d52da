// Simulated client population running on its own host. Two modes:
//  - rate mode: open loop at a target tx/s, paced per tick: each tick submits rate × tick
//    txs, carrying the fractional remainder to the next tick (no random arrivals);
//  - saturating mode (rate 0): keeps a bounded number of transactions outstanding so replica
//    mempools never run dry without growing unboundedly.
// Replies feed end-to-end latency: the first valid reply per block confirms it (reply
// responsiveness — certificates make one reply sufficient).
#ifndef SRC_CLIENT_CLIENT_H_
#define SRC_CLIENT_CLIENT_H_

#include "src/consensus/commit_tracker.h"
#include "src/consensus/messages.h"
#include "src/sim/network.h"

namespace achilles {

struct ClientConfig {
  uint32_t payload_size = 256;
  double rate_tps = 0.0;            // 0 = saturating mode.
  size_t chunk = 200;               // Transactions per submit message.
  size_t max_outstanding = 4000;    // Saturating mode: cap on uncommitted submissions.
  SimDuration tick = Ms(1);         // Pacing granularity.
  uint32_t num_replicas = 3;        // Submissions go to every replica...
  uint32_t first_replica_host = 0;  // ...starting at this host id (instances may offset).
};

class ClientProcess : public IProcess {
 public:
  ClientProcess(Host* host, Network* net, CommitTracker* tracker, const ClientConfig& config);

  void OnStart() override;
  void OnMessage(uint32_t from, const MessageRef& msg) override;

  uint64_t submitted() const { return next_seq_; }

 private:
  void Tick();
  void SubmitChunk(size_t count);

  Host* host_;
  Network* net_;
  CommitTracker* tracker_;
  ClientConfig config_;
  uint32_t next_seq_ = 0;
  uint64_t confirmed_txs_ = 0;
  double rate_carry_ = 0.0;
};

}  // namespace achilles

#endif  // SRC_CLIENT_CLIENT_H_
