// Tests for the checkpoint subsystem (src/checkpoint): certificate primitives and codecs,
// stable-checkpoint formation + log compaction through a live cluster, snapshot-based
// state transfer for lagging rejoiners, and the sealed-certificate rollback floor across
// adversarial snapshot fates.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/checkpoint/manager.h"
#include "src/harness/cluster.h"
#include "src/obs/journal.h"

namespace achilles {
namespace {

using checkpoint::CheckpointCert;
using checkpoint::CheckpointDigest;
using checkpoint::SnapshotFate;

BlockPtr MakeChain(Height height) {
  BlockPtr block = Block::Genesis();
  for (Height h = 1; h <= height; ++h) {
    block = Block::Create(1, block, {Transaction{h, 0, 16, 0}}, 0);
  }
  return block;
}

CheckpointCert MakeCert(const CryptoSuite& suite, const BlockPtr& block, size_t signers) {
  CheckpointCert cert;
  cert.height = block->height;
  cert.block_hash = block->hash;
  cert.digest = CheckpointDigest(*block);
  const Bytes msg = cert.SigningDigest();
  for (uint32_t i = 0; i < signers; ++i) {
    cert.sigs.push_back(suite.Sign(i, ByteView(msg.data(), msg.size())));
  }
  return cert;
}

// --- Certificate primitives ---

TEST(CheckpointCertTest, DigestIsDeterministicAndSensitive) {
  const BlockPtr a = MakeChain(4);
  EXPECT_EQ(CheckpointDigest(*a), CheckpointDigest(*a));
  const BlockPtr b = MakeChain(5);
  EXPECT_NE(CheckpointDigest(*a), CheckpointDigest(*b));
}

TEST(CheckpointCertTest, VerifyNeedsAQuorumOfDistinctValidSigners) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const BlockPtr block = MakeChain(8);
  const CheckpointCert cert = MakeCert(suite, block, 3);
  EXPECT_TRUE(cert.Verify(suite, 3));
  EXPECT_FALSE(cert.Verify(suite, 4));  // Quorum short by one.
  CheckpointCert dup = cert;
  dup.sigs[2] = dup.sigs[0];  // Duplicate signer: still only 2 distinct.
  EXPECT_FALSE(dup.Verify(suite, 3));
  CheckpointCert forged = cert;
  forged.height += 1;  // Signatures no longer cover the claimed height.
  EXPECT_FALSE(forged.Verify(suite, 3));
}

TEST(CheckpointCertTest, EncodeDecodeRoundTrips) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const CheckpointCert cert = MakeCert(suite, MakeChain(16), 3);
  const Bytes wire = cert.Encode();
  const std::optional<CheckpointCert> back =
      CheckpointCert::Decode(ByteView(wire.data(), wire.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->height, cert.height);
  EXPECT_EQ(back->block_hash, cert.block_hash);
  EXPECT_EQ(back->digest, cert.digest);
  ASSERT_EQ(back->sigs.size(), cert.sigs.size());
  EXPECT_TRUE(back->Verify(suite, 3));
  EXPECT_FALSE(CheckpointCert::Decode(ByteView(wire.data(), wire.size() / 2)).has_value());
}

TEST(CheckpointCertTest, SnapshotRecordRoundTripsAndRejectsCorruption) {
  const CryptoSuite suite(SignatureScheme::kFastHmac, 5, 42);
  const BlockPtr block = MakeChain(8);
  const CheckpointCert cert = MakeCert(suite, block, 3);
  const Bytes record = checkpoint::EncodeSnapshotRecord(cert, *block);
  CheckpointCert back_cert;
  BlockPtr back_block;
  ASSERT_TRUE(checkpoint::DecodeSnapshotRecord(ByteView(record.data(), record.size()),
                                               &back_cert, &back_block));
  ASSERT_NE(back_block, nullptr);
  EXPECT_EQ(back_block->hash, block->hash);
  EXPECT_EQ(back_cert.height, cert.height);
  EXPECT_EQ(CheckpointDigest(*back_block), back_cert.digest);
  // Flip one byte anywhere in the record: the full acceptance predicate (codec, digest
  // binding, and quorum verification) must reject it — no matter whether the flip landed
  // in the cert header, a signature, or the block body.
  for (const size_t pos : {size_t{4}, record.size() / 2, record.size() - 4}) {
    Bytes mangled = record;
    mangled[pos] ^= 0x5a;
    const bool decoded = checkpoint::DecodeSnapshotRecord(
        ByteView(mangled.data(), mangled.size()), &back_cert, &back_block);
    const bool accepted = decoded && back_block != nullptr &&
                          back_block->hash == back_cert.block_hash &&
                          CheckpointDigest(*back_block) == back_cert.digest &&
                          back_cert.Verify(suite, 3);
    EXPECT_FALSE(accepted) << "flip at byte " << pos << " survived every check";
  }
}

// --- Cluster integration ---

ClusterConfig CkptConfig(Protocol protocol, Height interval, uint64_t seed) {
  ClusterConfig config;
  config.protocol = protocol;
  config.f = 1;
  config.batch_size = 100;
  config.payload_size = 32;
  config.net = NetworkConfig::Lan();
  config.base_timeout = Ms(250);
  config.client_rate_tps = 2000.0;
  config.seed = seed;
  config.ckpt.enabled = true;
  config.ckpt.interval = interval;
  return config;
}

TEST(CheckpointClusterTest, ManagerIsNullUnlessEnabled) {
  ClusterConfig config;
  config.protocol = Protocol::kRaft;
  Cluster cluster(config);
  EXPECT_EQ(cluster.checkpoint_manager(), nullptr);
}

TEST(CheckpointClusterTest, StableCheckpointsFormAndCompactTheLog) {
  // Twin runs, same seed: checkpointing must bound the retained log well below the
  // no-compaction baseline at the same virtual time.
  uint64_t retained_on = 0;
  uint64_t retained_off = 0;
  for (const bool enabled : {false, true}) {
    ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 77);
    config.ckpt.enabled = enabled;
    Cluster cluster(config);
    cluster.RunMeasured(Ms(500), Sec(2));
    uint64_t retained = 0;
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      retained += cluster.platform(i).host_storage().TotalWalRecords();
    }
    if (enabled) {
      retained_on = retained;
      checkpoint::CheckpointManager* mgr = cluster.checkpoint_manager();
      ASSERT_NE(mgr, nullptr);
      EXPECT_GT(mgr->checkpoints_assembled(), 0u);
      EXPECT_GT(mgr->votes_cast(), 0u);
      EXPECT_GT(mgr->latest_stable(), 0u);
      for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
        EXPECT_GT(mgr->last_stable(i), 0u) << "replica " << i << " never went stable";
      }
    } else {
      retained_off = retained;
    }
  }
  EXPECT_LT(retained_on, retained_off / 2)
      << "compaction retained " << retained_on << " records vs " << retained_off
      << " without";
}

// Per-node max of `probe` at 1, 2, 4 and 8 virtual seconds after start.
std::vector<double> PerNodeMaxOverTime(
    const ClusterConfig& config, const std::function<double(Cluster&, uint32_t)>& probe) {
  Cluster cluster(config);
  cluster.Start();
  std::vector<double> samples;
  SimTime at = 0;
  for (const int sec : {1, 2, 4, 8}) {
    cluster.sim().RunFor(Sec(sec) - at);
    at = Sec(sec);
    cluster.RefreshFootprintGauges();
    double worst = 0.0;
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      worst = std::max(worst, probe(cluster, i));
    }
    samples.push_back(worst);
  }
  return samples;
}

// log.entries_retained: WAL records + in-memory block store.
std::vector<double> RetainedEntriesOverTime(const ClusterConfig& config) {
  return PerNodeMaxOverTime(config, [](Cluster& cluster, uint32_t node) {
    const obs::MetricsRegistry::Labels labels{{"node", std::to_string(node)}};
    return cluster.metrics().GetGauge("log.entries_retained", labels)->value();
  });
}

std::string Join(const std::vector<double>& samples) {
  std::string out;
  for (const double v : samples) {
    out += (out.empty() ? "" : " -> ") + std::to_string(static_cast<uint64_t>(v));
  }
  return out;
}

TEST(CheckpointClusterTest, RetainedLogPlateausWithCheckpointsOn) {
  // Bounded state: once checkpoints truncate the log, no later sample (8 s of history at
  // the last) retains more than twice what 1 s did, for every protocol.
  for (int p = 0; p < kNumProtocols; ++p) {
    const Protocol protocol = static_cast<Protocol>(p);
    const std::vector<double> samples = RetainedEntriesOverTime(CkptConfig(protocol, 8, 77));
    EXPECT_LE(*std::max_element(samples.begin(), samples.end()), 2 * samples.front())
        << ProtocolName(protocol) << " retained entries at 1/2/4/8 s: " << Join(samples);
  }
}

// Per-node max of `probe` over the mempool, at 1/2/4/8 s of a load below every protocol's
// capacity (Damysus-R, the slowest, commits ~1.6 K tx/s here), so the in-flight window is
// stationary. Past capacity the backlog, and with it the mempool, grows by design.
std::vector<double> MempoolOverTime(Protocol protocol,
                                    double (*probe)(const Mempool::Footprint&)) {
  ClusterConfig config = CkptConfig(protocol, 8, 77);
  config.client_rate_tps = 1000.0;
  return PerNodeMaxOverTime(config, [probe](Cluster& cluster, uint32_t node) {
    return probe(cluster.replica(node)->mempool_footprint());
  });
}

// A plateau bound: no sample above twice the 1 s value, where a 1 s value under `floor`
// counts as `floor`; below one batch, values are a few words or txs of jitter.
double PlateauBound(const std::vector<double>& samples, double floor) {
  return 2 * std::max(samples.front(), floor);
}

TEST(CheckpointClusterTest, MempoolIdStatePlateaus) {
  // The dedup state follows the in-flight window, not history: window words plus run keys.
  for (int p = 0; p < kNumProtocols; ++p) {
    const Protocol protocol = static_cast<Protocol>(p);
    const double batch = static_cast<double>(CkptConfig(protocol, 8, 77).batch_size);
    const std::vector<double> ids = MempoolOverTime(protocol, [](const Mempool::Footprint& fp) {
      return static_cast<double>(fp.words + fp.runs);
    });
    EXPECT_LE(*std::max_element(ids.begin(), ids.end()), PlateauBound(ids, batch / 32))
        << ProtocolName(protocol) << " mempool id state at 1/2/4/8 s: " << Join(ids);
  }
}

TEST(CheckpointClusterTest, MempoolQueuePlateaus) {
  // Replicas that rarely or never lead drop committed txs off their queue as they commit.
  for (int p = 0; p < kNumProtocols; ++p) {
    const Protocol protocol = static_cast<Protocol>(p);
    const double batch = static_cast<double>(CkptConfig(protocol, 8, 77).batch_size);
    const std::vector<double> queued = MempoolOverTime(
        protocol, [](const Mempool::Footprint& fp) { return static_cast<double>(fp.queued); });
    EXPECT_LE(*std::max_element(queued.begin(), queued.end()), PlateauBound(queued, batch))
        << ProtocolName(protocol) << " mempool queue at 1/2/4/8 s: " << Join(queued);
  }
}

TEST(CheckpointClusterTest, MempoolIdStateWithKvLeaseReadsGrowsTwoBitsPerKvOp) {
  // Raft's stable leader serves GETs off its lease. Each such read consumes a KV client
  // seq that never reaches a pool, so that client's window cannot trim past it and exact
  // dedup keeps two bits for every later KV seq. All of it is window words: run keys,
  // which cost a map node each, stay flat.
  ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 77);
  config.client_rate_tps = 1000.0;
  config.app_kv = true;
  const double load_words = static_cast<double>(config.batch_size) / 32;
  Cluster cluster(config);
  cluster.Start();
  std::vector<double> words;
  std::vector<double> runs;
  SimTime at = 0;
  for (const int sec : {1, 2, 4, 8}) {
    cluster.sim().RunFor(Sec(sec) - at);
    at = Sec(sec);
    words.push_back(0.0);
    runs.push_back(0.0);
    for (uint32_t i = 0; i < cluster.num_replicas(); ++i) {
      const Mempool::Footprint fp = cluster.replica(i)->mempool_footprint();
      words.back() = std::max(words.back(), static_cast<double>(fp.words));
      runs.back() = std::max(runs.back(), static_cast<double>(fp.runs));
    }
    // The KV window (a word per 32 KV seqs) beside the load client's in-flight one.
    const double kv_seqs = static_cast<double>(cluster.kv_client()->ops().size());
    EXPECT_LE(words.back(), kv_seqs / 32 + 2 * load_words + 2)
        << sec << " s, " << kv_seqs << " KV seqs";
  }
  EXPECT_GT(cluster.kv_service()->lease_reads_served(), 0u);
  EXPECT_GT(words.back(), 2 * words.front()) << "window words at 1/2/4/8 s: " << Join(words);
  EXPECT_LE(*std::max_element(runs.begin(), runs.end()), PlateauBound(runs, 8))
      << "run keys at 1/2/4/8 s: " << Join(runs);
}

TEST(CheckpointClusterTest, RetainedLogGrowsWithCheckpointsOff) {
  // The plateau above is the checkpoints' doing: without them, every protocol that keeps
  // a host WAL retains its whole history and fails the same bound.
  for (const Protocol protocol : {Protocol::kDamysusR, Protocol::kOneShotR,
                                  Protocol::kFlexiBft, Protocol::kRaft, Protocol::kMinBft}) {
    ClusterConfig config = CkptConfig(protocol, 8, 77);
    config.ckpt.enabled = false;
    const std::vector<double> samples = RetainedEntriesOverTime(config);
    EXPECT_GT(samples.back(), 2 * samples.front())
        << ProtocolName(protocol) << " retained entries at 1/2/4/8 s: " << Join(samples);
  }
}

TEST(CheckpointClusterTest, LaggardRejoinsViaSnapshotTransfer) {
  ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 78);
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Ms(500));
  const uint32_t victim = cluster.num_replicas() - 1;
  cluster.CrashReplica(victim);
  cluster.sim().RunFor(Ms(1500));  // Far past catchup_intervals * interval = 16 heights.
  const Height frontier = cluster.replica(0)->last_committed_height();
  ASSERT_GT(frontier, 16u);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  EXPECT_GE(cluster.checkpoint_manager()->snapshot_adopts(), 1u);
  const ReplicaBase* rep = cluster.replica(victim);
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->last_committed_height(), frontier);
  EXPECT_GT(rep->checkpoint_floor(), 0u);  // The adopted cert raised the rollback floor.
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

TEST(CheckpointClusterTest, CorruptSnapshotIsRejectedOnReboot) {
  // MinBFT keeps trusted components in a TEE, so the certificate is sealed and the
  // corrupted host snapshot must be detected and dropped (network transfer instead).
  ClusterConfig config = CkptConfig(Protocol::kMinBft, 8, 79);
  config.journaling = true;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(2));
  const uint32_t victim = cluster.num_replicas() - 1;
  ASSERT_GT(cluster.checkpoint_manager()->last_stable(victim), 0u);
  cluster.CrashReplica(victim);
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kCorrupt);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  bool rejected = false;
  for (const obs::JournalRecord& r : cluster.journal().NodeEvents(victim)) {
    if (r.kind == obs::JournalKind::kRollbackReject && r.detail == "ckpt/corrupt-snapshot") {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "corrupt snapshot was not rejected";
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

TEST(CheckpointClusterTest, StaleSnapshotUnderASealedCertIsRejected) {
  ClusterConfig config = CkptConfig(Protocol::kMinBft, 8, 80);
  config.journaling = true;
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(3));  // Long enough to retain several boundary snapshots.
  const uint32_t victim = cluster.num_replicas() - 1;
  ASSERT_GT(cluster.checkpoint_manager()->last_stable(victim), 8u);
  cluster.CrashReplica(victim);
  // The adversarial host resurrects the oldest retained snapshot; the sealed certificate
  // still names the newer one, so the replica must refuse the rollback.
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kStale);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  bool rejected = false;
  for (const obs::JournalRecord& r : cluster.journal().NodeEvents(victim)) {
    if (r.kind == obs::JournalKind::kRollbackReject && r.detail == "ckpt/stale-snapshot") {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected) << "stale snapshot was accepted under a fresher sealed cert";
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

TEST(CheckpointClusterTest, ErasedSnapshotFallsBackToNetworkTransfer) {
  ClusterConfig config = CkptConfig(Protocol::kRaft, 8, 81);
  Cluster cluster(config);
  cluster.Start();
  cluster.sim().RunFor(Sec(1));
  const uint32_t victim = cluster.num_replicas() - 1;
  cluster.CrashReplica(victim);
  cluster.sim().RunFor(Ms(1500));
  const Height frontier = cluster.replica(0)->last_committed_height();
  cluster.checkpoint_manager()->ApplySnapshotFate(victim, SnapshotFate::kErased);
  cluster.RebootReplica(victim);
  cluster.sim().RunFor(Sec(2));
  const ReplicaBase* rep = cluster.replica(victim);
  ASSERT_NE(rep, nullptr);
  EXPECT_GE(rep->last_committed_height(), frontier);
  EXPECT_FALSE(cluster.tracker().safety_violated()) << cluster.tracker().violation();
}

}  // namespace
}  // namespace achilles
