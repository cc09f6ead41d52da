// Common machinery for every replica implementation: identity and quorum math, message
// sending with CPU cost accounting, the shared block store, chained commit + client replies,
// view timers (pacemaker), and block synchronization.
#ifndef SRC_CONSENSUS_REPLICA_BASE_H_
#define SRC_CONSENSUS_REPLICA_BASE_H_

#include <memory>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/consensus/commit_tracker.h"
#include "src/consensus/mempool.h"
#include "src/consensus/messages.h"
#include "src/sim/network.h"
#include "src/tee/enclave.h"

namespace achilles {

struct ProtocolParams {
  uint32_t n = 3;                       // Replica count.
  uint32_t f = 1;                       // Fault threshold.
  size_t batch_size = 400;              // Transactions per block.
  SimDuration base_timeout = Ms(500);   // Pacemaker initial view timeout.
  double timeout_multiplier = 2.0;      // Exponential back-off per consecutive timeout.
  SimDuration max_timeout = Sec(30);
  // NEW-VIEW optimization (§4.4): hand the commitment certificate straight to the next
  // leader instead of running the NEW-VIEW collection. Off only for the ablation bench.
  bool commit_fast_path = true;

  // --- Deliberately-broken variants (chaos-harness oracle self-tests ONLY) ---
  // Disables Achilles' recovery-reply nonce freshness check (checker and untrusted driver
  // alike): replies recorded during an earlier recovery round become acceptable again.
  bool break_recovery_nonce = false;
  // Disables the -R checkers' sealed-version == persistent-counter compare on restore:
  // stale sealed state is installed silently instead of crash-stopping.
  bool break_counter_compare = false;

  // Quorum used by the 2f+1 TEE protocols is f+1; FlexiBFT (3f+1) overrides with 2f+1.
  size_t quorum() const { return static_cast<size_t>(f) + 1; }
};

// Cross-protocol state digest polled by the chaos harness's oracles (src/chaos). Fields a
// protocol has no equivalent of keep their zero defaults.
struct InvariantSnapshot {
  View view = 0;                 // Trusted/pacemaker view (Raft term, MinBFT/FlexiBFT epoch).
  Height committed_height = 0;   // Committed-prefix head.
  Hash256 committed_hash{};
  uint64_t counter_value = 0;    // Persistent monotonic counter reading (0 when disabled).
  uint64_t trusted_version = 0;  // Sealed trusted-state version (0 = protocol keeps none).
  bool recovering = false;       // Achilles: recovery (Algorithm 3) still in flight.
  bool halted = false;           // -R variants: crash-stopped after detecting a rollback.
};

// Sink for application-level traffic riding on the replica's host (read requests, lease
// grants — src/app/kv_service.h). ReplicaBase::OnMessage offers every inbound message here
// first; a sink consumes the types it owns and returns false for consensus traffic. Lives
// outside the simulated machine (the per-replica state it keeps is keyed by replica id),
// so one sink serves a whole cluster.
class AppMessageSink {
 public:
  virtual ~AppMessageSink() = default;
  // `from_host` is the raw sending host id (clients included). Returns true iff consumed.
  virtual bool OnAppMessage(NodeId replica, uint32_t from_host, const MessageRef& msg) = 0;
};

struct ReplicaContext {
  NodePlatform* platform = nullptr;
  Network* net = nullptr;
  CommitTracker* tracker = nullptr;
  AppMessageSink* app = nullptr;  // Optional replicated-app message sink.
  ProtocolParams params;
  checkpoint::CheckpointOptions ckpt;  // Checkpointing/log-compaction knobs (off by default).
  std::vector<uint32_t> client_ids;  // Hosts to send ClientReplyMsg to.
  // Host id of each replica index. Empty = identity (replica i lives on host i), which is
  // the normal Cluster layout; the concurrent-instances extension offsets hosts.
  std::vector<uint32_t> replica_hosts;
};

class ReplicaBase : public IProcess {
 public:
  explicit ReplicaBase(const ReplicaContext& ctx);

  // IProcess: charges the per-message handling cost, serves block-sync and client-submit
  // traffic, then dispatches to the protocol.
  void OnMessage(uint32_t from, const MessageRef& msg) final;

  // Read-side accessors used by the harness.
  Height last_committed_height() const { return last_committed_height_; }
  const BlockStore& store() const { return store_; }
  Mempool::Footprint mempool_footprint() const { return mempool_.footprint(); }

  // Invariant digest for the chaos oracles. The base fills the committed prefix and the
  // platform counter; each protocol overrides to add its trusted view/version/fault state.
  virtual InvariantSnapshot Invariants() const;

  // --- Checkpointing / snapshot state transfer (src/checkpoint) ---
  // Highest stable-checkpoint height this incarnation can prove locally: the sealed
  // certificate read at boot, raised by every checkpoint persisted or adopted since. An
  // honest replica never accepts a snapshot below this floor.
  Height checkpoint_floor() const { return ckpt_floor_; }
  // Reboot path (protocol constructors, before any WAL replay): reads the host snapshot
  // payload and the sealed certificate, validates digest + freshness, and on success
  // installs the checkpoint as the committed prefix. A stale/erased/corrupt snapshot — or a
  // snapshot that disagrees with the sealed certificate — is rejected (journals
  // kRollbackReject) and the replica falls back to network state transfer. Returns the
  // restored block, or nullptr.
  BlockPtr RestoreStableCheckpoint();
  // Persists a freshly assembled stable checkpoint: snapshot payload host-durable, the
  // certificate TEE-sealed (host-durable outside a TEE), then OnStableCheckpoint truncates
  // logs behind it. Runs inside this replica's handler context (fsync/seal costs charged
  // here). Called by the CheckpointManager.
  void PersistStableCheckpoint(const checkpoint::CheckpointCert& cert, const BlockPtr& block);
  // Network state transfer: installs a fetched, verified snapshot as the committed prefix
  // (AdoptCheckpoint + floor bump + OnCheckpointAdopted head fix-up). `allow_regress` is
  // the deliberately-broken stale-snapshot-accept path: it force-installs a snapshot BELOW
  // the current committed prefix, which honest verification forbids.
  void AdoptStateTransfer(const BlockPtr& block, size_t cert_wire_size, bool allow_regress);

 protected:
  virtual void HandleMessage(NodeId from, const MessageRef& msg) = 0;
  // Pacemaker expiry for the view armed via ArmViewTimer.
  virtual void OnViewTimeout(View /*view*/) {}
  // A previously missing block (and its ancestors) became available.
  virtual void OnBlocksSynced() {}
  // A stable checkpoint was just persisted locally. The base truncates the in-memory block
  // store behind it (minus the catch-up slack still served to backfilling peers); protocols
  // with durable logs override to also truncate their WAL prefix (charged as fsync).
  virtual void OnStableCheckpoint(const checkpoint::CheckpointCert& cert);
  // A snapshot was adopted via state transfer; protocols that keep a log-head pointer
  // (Raft) override to advance it past the adopted block.
  virtual void OnCheckpointAdopted(const BlockPtr& /*block*/) {}
  // Where the checkpoint certificate lives: the rollback-defense backend's record facet
  // (src/storage/defense.h). Under the local backend that is the historical dispatch —
  // TEE sealing surface when the platform has one, host record store otherwise (baselines
  // without a TEE cannot detect snapshot rollback — see the README threat-model table);
  // the quorum backends add their own freshness guarantee to the certificate.
  persist::Store& CheckpointCertStore();

  // --- Host-durable persistence seam (satellite of the backend API redesign) ---
  // Protocol modules reach the per-node disk only through these two handles (plus the
  // persist::Store handles above), never through HostStableStorage directly; persistence
  // semantics stay greppable at the persist:: seam.
  storage::WriteAheadLog& Wal(const std::string& name);
  // Host-durable metadata records (persist::Durability::kHostDurable). Put is a sync put;
  // PutAsync buys the torn-tail window deliberately.
  persist::Store& HostRecords();

  NodeId id() const { return ctx_.platform->node_id(); }
  uint32_t n() const { return ctx_.params.n; }
  uint32_t f() const { return ctx_.params.f; }
  size_t quorum() const { return ctx_.params.quorum(); }
  NodeId LeaderOf(View v) const { return LeaderOfView(v, ctx_.params.n); }
  Host& host() { return ctx_.platform->host(); }
  EnclaveRuntime& enclave() { return *enclave_; }
  NodePlatform& platform() { return *ctx_.platform; }
  CommitTracker& tracker() { return *ctx_.tracker; }
  const ProtocolParams& params() const { return ctx_.params; }
  SimTime LocalNow() const { return ctx_.platform->host().LocalNow(); }

  // --- Messaging (wire cost via Network; CPU charge is the sender's handler charge) ---
  // `to` below params.n addresses a replica (translated to its host); higher values are
  // raw host ids (clients).
  void SendTo(NodeId to, MessageRef msg) {
    ctx_.net->Send(HostOf(id()), to < ctx_.params.n ? HostOf(to) : to, std::move(msg));
  }
  void BroadcastToReplicas(const MessageRef& msg, bool include_self);
  // Replica index <-> host id mapping (identity in the standard layout).
  uint32_t HostOf(NodeId replica) const {
    return ctx_.replica_hosts.empty() ? replica : ctx_.replica_hosts[replica];
  }
  NodeId ReplicaOfHost(uint32_t host) const;

  // --- Cost charging helpers ---
  void ChargeHashBytes(size_t bytes) { enclave_->ChargeHash(bytes); }
  void ChargeExecute(size_t tx_count);
  // Untrusted-side verification (outside the enclave, no TEE factor).
  void ChargeVerifyPlain(size_t count);
  // `count` signatures over one message (quorum certificate): batched cost when cheaper.
  void ChargeVerifyBatch(size_t count);
  void ChargeSignPlain();

  // --- Observability ---
  // Announces a freshly built proposal: informs the tracker and restarts the latency
  // attribution path at the block's propose time, making this block the origin of every
  // chain that flows out of the proposal (src/obs/breakdown.h). Protocols call this once
  // per block they create, right after Block::Create.
  void MarkProposed(const BlockPtr& block);
  // Emits a trace instant on this replica's track (no virtual-time cost).
  void TraceInstant(const char* name, uint64_t arg = 0);
  // Records a flight-recorder event on this replica's host track (src/obs/journal.h),
  // parented to the running handler's causal context. Zero virtual-time cost; returns the
  // journal seq (0 when journaling is off). Protocols call this at every state transition
  // (view/epoch/term change, leader change, lock update, recovery phase).
  uint64_t JournalEvent(obs::JournalKind kind, uint64_t a = 0, uint64_t b = 0,
                        std::string detail = {});
  // Compact block identity for journal payloads: the hash's first 8 bytes, big-endian.
  static uint64_t JournalHash(const Hash256& hash);
  // Critical-path quorum bookkeeping (src/obs/critpath.h). CritNote marks the running
  // handler as carrying one input of quorum instance (`tag`, `instance`) — call it right
  // after adding a vote to a quorum set. CritJoin attaches every noted input to the
  // running handler — call it where the quorum check passes, so the what-if engine knows
  // commit progress waits on the whole vote set, not just the chain that happened to
  // arrive last. Zero virtual-time cost; no-ops when collection is off.
  void CritNote(uint32_t tag, uint64_t instance);
  void CritJoin(uint32_t tag, uint64_t instance);

  // --- Chained commit (commits `block` and all uncommitted ancestors, oldest first) ---
  // Informs the tracker, marks the mempool, replies to clients with `cert_wire_size`. If
  // the chain between the committed prefix and `block` is not locally available (deep lag,
  // pruned peers), the certified block is adopted as a checkpoint instead: state transfer
  // rather than replay. Returns true iff the committed height advanced to block->height.
  bool CommitChain(const BlockPtr& block, size_t cert_wire_size);

  // Installs `block` as the committed prefix without replaying ancestors. Only valid for
  // blocks whose commitment is certified (f+1 store certificates).
  void AdoptCheckpoint(const BlockPtr& block, size_t cert_wire_size);

  // True iff every parent link from `hash` down to the committed prefix is present — the
  // paper's block-availability rule, bounded by finality (no need to reach genesis).
  bool HaveChainAboveCommitted(const Hash256& hash) const;

  // Ensures the uncommitted ancestry of `target` is present; if a link is missing, requests
  // the deepest missing ancestor from `peer` and returns false. Each fetch round makes
  // strict progress, so repeated calls converge.
  bool EnsureAncestry(const Hash256& target, NodeId peer);

  // --- Pacemaker ---
  // Arms (or re-arms) the single view timer for `view`, with exponential back-off driven by
  // `consecutive_timeouts`. OnViewTimeout(view) fires unless re-armed or cancelled.
  void ArmViewTimer(View view, uint32_t consecutive_timeouts);
  void CancelViewTimer();

  // --- Block sync ---
  // Requests `want` (and transitively its ancestors) from `from_peer`.
  void RequestBlock(NodeId from_peer, const Hash256& want);
  // Adds a validated incoming block to the store (checks hash/exec integrity).
  bool AcceptBlock(const BlockPtr& block);

  // Protocols where only the leader answers clients (Raft) can turn replies off.
  void set_client_replies_enabled(bool enabled) { client_replies_enabled_ = enabled; }

  Mempool mempool_;
  BlockStore store_;
  Height last_committed_height_ = 0;
  Hash256 last_committed_hash_;
  Height ckpt_floor_ = 0;            // See checkpoint_floor().
  Height last_persisted_ckpt_ = 0;   // Dedup guard for PersistStableCheckpoint.

 private:
  void HandleFetchRequest(NodeId from, const BlockFetchRequest& req);
  void HandleFetchResponse(const BlockFetchResponse& resp);

  ReplicaContext ctx_;
  std::unique_ptr<EnclaveRuntime> enclave_;
  uint64_t view_timer_ = 0;
  bool view_timer_armed_ = false;
  bool client_replies_enabled_ = true;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_REPLICA_BASE_H_
