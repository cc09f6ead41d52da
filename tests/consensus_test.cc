#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/consensus/block.h"
#include "src/consensus/certificates.h"
#include "src/consensus/commit_tracker.h"
#include "src/consensus/mempool.h"
#include "src/consensus/metrics.h"
#include "src/consensus/types.h"

namespace achilles {
namespace {

std::vector<Transaction> MakeTxs(uint32_t client, uint32_t count, SimTime t = 0) {
  std::vector<Transaction> txs;
  for (uint32_t i = 0; i < count; ++i) {
    txs.push_back(Transaction{Transaction::MakeId(client, i), t, 256});
  }
  return txs;
}

// --- Blocks ---

TEST(BlockTest, GenesisIsStable) {
  const BlockPtr& g = Block::Genesis();
  EXPECT_EQ(g->height, 0u);
  EXPECT_EQ(g->view, 0u);
  EXPECT_EQ(Block::Genesis()->hash, g->hash);
}

TEST(BlockTest, CreateLinksParentAndHeights) {
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(5));
  EXPECT_EQ(b1->height, 1u);
  EXPECT_EQ(b1->parent, Block::Genesis()->hash);
  EXPECT_EQ(b1->propose_time, Ms(5));
  const BlockPtr b2 = Block::Create(2, b1, MakeTxs(1, 2), Ms(6));
  EXPECT_EQ(b2->height, 2u);
  EXPECT_EQ(b2->parent, b1->hash);
}

TEST(BlockTest, HashCoversContent) {
  const BlockPtr a = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), 0);
  const BlockPtr b = Block::Create(1, Block::Genesis(), MakeTxs(2, 3), 0);
  const BlockPtr c = Block::Create(2, Block::Genesis(), MakeTxs(1, 3), 0);
  EXPECT_NE(a->hash, b->hash);  // Different txs.
  EXPECT_NE(a->hash, c->hash);  // Different view.
}

TEST(BlockTest, ProposeTimeNotPartOfHash) {
  const BlockPtr a = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(1));
  const BlockPtr b = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), Ms(99));
  EXPECT_EQ(a->hash, b->hash);
}

TEST(BlockTest, ValidUnderDetectsForgedExecResult) {
  const BlockPtr good = Block::Create(1, Block::Genesis(), MakeTxs(1, 3), 0);
  EXPECT_TRUE(good->ValidUnder(Block::Genesis()->exec_result));

  auto forged = std::make_shared<Block>(*good);
  forged->exec_result = Sha256Digest(AsBytes("wrong"));
  EXPECT_FALSE(forged->ValidUnder(Block::Genesis()->exec_result));
}

TEST(BlockTest, WireSizeScalesWithPayload) {
  const BlockPtr small = Block::Create(1, Block::Genesis(), MakeTxs(1, 10), 0);
  const BlockPtr big = Block::Create(1, Block::Genesis(), MakeTxs(1, 400), 0);
  EXPECT_GT(big->WireSize(), small->WireSize());
  // 400 txs * (8 + 256) bytes + header.
  EXPECT_EQ(big->WireSize(), 400u * 264u + 112u);
}

// --- BlockStore ---

TEST(BlockStoreTest, AncestryAndExtends) {
  BlockStore store;
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  const BlockPtr b3 = Block::Create(3, b2, {}, 0);
  store.Add(b1);
  store.Add(b3);  // b2 missing.
  EXPECT_FALSE(store.HasFullAncestry(b3->hash));
  store.Add(b2);
  EXPECT_TRUE(store.HasFullAncestry(b3->hash));
  EXPECT_TRUE(store.Extends(b3->hash, b1->hash));
  EXPECT_TRUE(store.Extends(b3->hash, Block::Genesis()->hash));
  EXPECT_FALSE(store.Extends(b1->hash, b3->hash));
}

TEST(BlockStoreTest, ConflictingForksDoNotExtend) {
  BlockStore store;
  const BlockPtr left = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  const BlockPtr right = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  store.Add(left);
  store.Add(right);
  EXPECT_FALSE(store.Extends(left->hash, right->hash));
  EXPECT_FALSE(store.Extends(right->hash, left->hash));
}

TEST(BlockStoreTest, PathBetweenReturnsOrderedChain) {
  BlockStore store;
  const BlockPtr b1 = Block::Create(1, Block::Genesis(), {}, 0);
  const BlockPtr b2 = Block::Create(2, b1, {}, 0);
  const BlockPtr b3 = Block::Create(3, b2, {}, 0);
  store.Add(b1);
  store.Add(b2);
  store.Add(b3);
  const auto path = store.PathBetween(b1->hash, b3->hash);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->hash, b2->hash);
  EXPECT_EQ(path[1]->hash, b3->hash);
  // Non-extending target yields empty path.
  const BlockPtr fork = Block::Create(1, Block::Genesis(), MakeTxs(9, 1), 0);
  store.Add(fork);
  EXPECT_TRUE(store.PathBetween(b1->hash, fork->hash).empty());
}

// --- Mempool ---

TEST(MempoolTest, FifoBatching) {
  Mempool pool;
  pool.AddBatch(MakeTxs(1, 10));
  const auto batch = pool.TakeBatch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, Transaction::MakeId(1, 0));
  EXPECT_EQ(batch[3].id, Transaction::MakeId(1, 3));
  EXPECT_EQ(pool.pending(), 6u);
}

TEST(MempoolTest, DuplicatesDropped) {
  Mempool pool;
  pool.AddBatch(MakeTxs(1, 5));
  pool.AddBatch(MakeTxs(1, 5));  // Same ids again.
  EXPECT_EQ(pool.pending(), 5u);
}

TEST(MempoolTest, CommittedTxsNeverReenterOrLeave) {
  Mempool pool;
  const auto txs = MakeTxs(1, 5);
  pool.AddBatch(txs);
  pool.MarkCommitted({txs[0], txs[1]});
  const auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 3u);  // Committed ones skipped.
  EXPECT_EQ(batch[0].id, txs[2].id);
  pool.AddBatch({txs[0]});  // Resubmission of committed tx.
  EXPECT_EQ(pool.pending(), 0u);
}

// Reference mempool: two ever-growing id sets and a FIFO whose committed front is dropped
// on commit, the state the windowed pool must reproduce answer for answer.
class ReferenceMempool {
 public:
  void AddBatch(const std::vector<Transaction>& txs) {
    for (const Transaction& tx : txs) {
      if (known_.insert(tx.id).second) {
        queue_.push_back(tx);
      }
    }
  }

  std::vector<Transaction> TakeBatch(size_t max) {
    std::vector<Transaction> batch;
    while (batch.size() < max && !queue_.empty()) {
      const Transaction tx = queue_.front();
      queue_.pop_front();
      if (committed_.count(tx.id) == 0) {
        batch.push_back(tx);
      }
    }
    return batch;
  }

  void MarkCommitted(const std::vector<Transaction>& txs) {
    for (const Transaction& tx : txs) {
      committed_.insert(tx.id);
      known_.insert(tx.id);
    }
    while (!queue_.empty() && committed_.count(queue_.front().id) != 0) {
      queue_.pop_front();
    }
  }

  size_t pending() const { return queue_.size(); }

 private:
  std::deque<Transaction> queue_;
  std::unordered_set<uint64_t> known_;
  std::unordered_set<uint64_t> committed_;
};

// One client's submission cursor. Streams start at seq 0, mid-stream (a replica that
// rebooted and first hears a client late) or just below 2^32.
struct FuzzClient {
  uint32_t id;
  uint64_t next;
};

std::vector<Transaction> FuzzIds(const FuzzClient& c, uint64_t from, size_t count) {
  std::vector<Transaction> txs;
  for (uint64_t seq = from; seq < from + count && seq <= UINT32_MAX; ++seq) {
    txs.push_back(Transaction{Transaction::MakeId(c.id, static_cast<uint32_t>(seq)), 0, 8});
  }
  return txs;
}

// Drives the windowed pool and the reference in lockstep through in-order, reordered and
// duplicate submits, commits ahead of and behind submission, seq gaps small and far past
// a window's reach (some replayed in order after a commit past them, as a lagging replica
// would), junk 64-bit ids, id 0 and seqs at the top of the 32-bit range; every TakeBatch
// result and pending() must match after every op.
void MempoolDifferentialFuzz(uint64_t seed, size_t num_ops) {
  Mempool pool;
  ReferenceMempool ref;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<FuzzClient> clients = {{0, 0},
                                     {1, 0},
                                     {7, rng.UniformU64(1 << 20)},
                                     {UINT32_MAX, UINT32_MAX - 3000}};
  auto both = [&](auto&& op) {
    op(pool);
    op(ref);
  };
  for (size_t op = 0; op < num_ops; ++op) {
    FuzzClient& c = clients[rng.UniformU64(clients.size())];
    const size_t count = 1 + rng.UniformU64(40);
    const uint64_t roll = rng.UniformU64(100);
    std::vector<Transaction> txs;
    bool commit = false;
    if (roll < 35) {  // In-order submit, sometimes shuffled in flight.
      txs = FuzzIds(c, c.next, count);
      c.next += count;
      if (rng.Chance(0.3)) {
        for (size_t i = txs.size(); i > 1; --i) {
          std::swap(txs[i - 1], txs[rng.UniformU64(i)]);
        }
      }
    } else if (roll < 45) {  // Duplicate or late resubmit of an earlier range.
      txs = FuzzIds(c, rng.UniformU64(c.next + 1), count);
    } else if (roll < 60) {  // Commit behind submission, usually near the front.
      const uint64_t back = rng.Chance(0.8) ? rng.UniformU64(200) : rng.UniformU64(c.next + 1);
      txs = FuzzIds(c, c.next - std::min(back, c.next), count);
      commit = true;
    } else if (roll < 65) {  // Commit ahead of submission (a block that outran the submit).
      txs = FuzzIds(c, c.next + rng.UniformU64(100), count);
      commit = true;
    } else if (roll < 70) {  // Seq gap: lost txs, a long partition, or far past the window.
      static constexpr uint64_t kGaps[] = {1, 50, 3000, 100000, 200000};
      const uint64_t gap = 1 + rng.UniformU64(kGaps[rng.UniformU64(5)]);
      if (rng.Chance(0.02)) {
        // A lagging replica: a commit past the gap lands first, then it replays the gap.
        const std::vector<Transaction> ahead = FuzzIds(c, c.next + gap, count);
        both([&](auto& p) { p.MarkCommitted(ahead); });
        txs = FuzzIds(c, c.next, gap);
        commit = true;
      }
      c.next += gap;
    } else if (roll < 74) {  // Junk 64-bit ids, as the Byzantine spammer sends.
      for (size_t i = 0; i < count; ++i) {
        txs.push_back(Transaction{rng.NextU64(), 0, 8});
      }
      commit = rng.Chance(0.3);
    } else if (roll < 76) {  // Id 0 and the top id.
      txs = {Transaction{0, 0, 8}, Transaction{UINT64_MAX, 0, 8}};
      commit = rng.Chance(0.5);
    } else if (roll < 77 && clients.size() < 8) {  // A new client, first heard mid-stream.
      clients.push_back({static_cast<uint32_t>(2 + rng.UniformU64(1000)), rng.UniformU64(5000)});
    } else {
      const size_t max = rng.UniformU64(60);
      const std::vector<Transaction> got = pool.TakeBatch(max);
      const std::vector<Transaction> want = ref.TakeBatch(max);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " op " << op;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << "seed " << seed << " op " << op << " tx " << i;
      }
    }
    if (commit) {
      both([&](auto& p) { p.MarkCommitted(txs); });
    } else if (!txs.empty()) {
      both([&](auto& p) { p.AddBatch(txs); });
    }
    ASSERT_EQ(pool.pending(), ref.pending()) << "seed " << seed << " op " << op;
  }
  const std::vector<Transaction> rest = pool.TakeBatch(SIZE_MAX);
  ASSERT_EQ(rest.size(), ref.TakeBatch(SIZE_MAX).size()) << "seed " << seed;
}

TEST(MempoolTest, DifferentialFuzzAgainstTwoSetReference) {
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    MempoolDifferentialFuzz(seed, 10'000);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(MempoolTest, WindowCatchesUpWithCommitsStoredFarAhead) {
  // Commits far past the window go to the runs. When in-order commits bring the window up
  // to them, it takes them over, and a whole committed word drops below the watermark at
  // once, taking the id being looked up with it.
  Mempool pool;
  const auto range = [](uint32_t from, uint32_t to) {
    std::vector<Transaction> txs;
    for (uint32_t seq = from; seq < to; ++seq) {
      txs.push_back(Transaction{Transaction::MakeId(3, seq), 0, 8});
    }
    return txs;
  };
  pool.AddBatch(range(0, 2));
  pool.MarkCommitted(range(200'000, 200'064));
  for (uint32_t seq = 0; seq < 200'000; seq += 1000) {
    pool.MarkCommitted(range(seq, seq + 1000));
  }
  pool.AddBatch(range(200'010, 200'011));
  pool.AddBatch(range(199'990, 200'100));
  EXPECT_EQ(pool.pending(), 36u);  // Only 200064..200099 are new.
  const Mempool::Footprint fp = pool.footprint();
  EXPECT_EQ(fp.runs, 0u);
  EXPECT_EQ(fp.words, 2u);
}

TEST(MempoolTest, JunkIdsCostTwoRunKeysAndNoWindow) {
  // A Byzantine spammer's random ids never form a stream, so each costs at most the two
  // run keys that bound it, and opens no window; the honest client's window stays small.
  Mempool pool;
  Rng rng(99);
  std::vector<Transaction> junk;
  for (int i = 0; i < 10'000; ++i) {
    junk.push_back(Transaction{rng.NextU64(), 0, 8});
  }
  const std::vector<Transaction> honest = MakeTxs(5, 4000);
  pool.AddBatch(junk);
  pool.AddBatch(honest);
  pool.MarkCommitted(pool.TakeBatch(SIZE_MAX));
  const Mempool::Footprint fp = pool.footprint();
  EXPECT_EQ(fp.windows, 1u);
  EXPECT_EQ(fp.words, 0u);  // Every honest seq committed: the watermark passed them all.
  EXPECT_LE(fp.runs, 2 * junk.size());
  pool.AddBatch(junk);
  pool.AddBatch(honest);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(MempoolTest, SkippedSeqsCostTwoBitsEachAndNoRunKeys) {
  // A KV client's lease reads consume seqs that never reach any pool, so its window can
  // never trim past the first of them. Exact dedup has to remember every such hole: the
  // window keeps two bits a seq however long the stream runs, and spills no run keys.
  Mempool pool;
  Rng rng(5);
  constexpr uint32_t kSeqs = 400'000;
  std::vector<Transaction> holes;
  for (uint32_t from = 0; from < kSeqs; from += 1000) {
    std::vector<Transaction> ordered;
    for (uint32_t seq = from; seq < from + 1000; ++seq) {
      const Transaction tx{Transaction::MakeId(9, seq), 0, 8};
      (seq < 2 || rng.Chance(0.3) ? ordered : holes).push_back(tx);
    }
    pool.AddBatch(ordered);
    pool.MarkCommitted(pool.TakeBatch(SIZE_MAX));
  }
  const Mempool::Footprint fp = pool.footprint();
  EXPECT_EQ(fp.windows, 1u);
  EXPECT_EQ(fp.runs, 0u);
  EXPECT_EQ(fp.words, kSeqs / 32);
  // Every hole is still unknown: each enters the queue once, and no committed id does.
  pool.AddBatch(holes);
  pool.AddBatch(holes);
  EXPECT_EQ(pool.pending(), holes.size());
}

// --- Certificates ---

TEST(CertificatesTest, SignedCertDigestDomainSeparated) {
  const Hash256 h = Sha256Digest(AsBytes("x"));
  SignedCert cert;
  cert.hash = h;
  cert.view = 3;
  EXPECT_NE(cert.Digest("achilles/PROP"), cert.Digest("achilles/COMMIT"));
}

TEST(CertificatesTest, QuorumCertVerify) {
  CryptoSuite suite(SignatureScheme::kFastHmac, 5, 7);
  QuorumCert qc;
  qc.hash = Sha256Digest(AsBytes("block"));
  qc.view = 9;
  const Bytes digest = qc.Digest("proto/DECIDE");
  for (uint32_t i = 0; i < 3; ++i) {
    qc.sigs.push_back(suite.Sign(i, ByteView(digest.data(), digest.size())));
  }
  EXPECT_TRUE(qc.Verify(suite, "proto/DECIDE", 3));
  EXPECT_FALSE(qc.Verify(suite, "proto/DECIDE", 4));
  EXPECT_FALSE(qc.Verify(suite, "proto/OTHER", 3));  // Wrong domain.

  QuorumCert dup = qc;
  dup.sigs[2] = dup.sigs[0];
  EXPECT_FALSE(dup.Verify(suite, "proto/DECIDE", 3));  // Duplicate signer.
}

TEST(CertificatesTest, AccumulatorDigestBindsEverything) {
  AccumulatorCert a;
  a.hash = Sha256Digest(AsBytes("parent"));
  a.block_view = 4;
  a.current_view = 7;
  a.ids = {0, 1, 2};
  AccumulatorCert b = a;
  b.current_view = 8;  // Replay in a later view must change the digest.
  EXPECT_NE(a.Digest("achilles/ACC"), b.Digest("achilles/ACC"));
  AccumulatorCert c = a;
  c.ids = {0, 1, 3};
  EXPECT_NE(a.Digest("achilles/ACC"), c.Digest("achilles/ACC"));
}

// --- LatencyRecorder ---

TEST(MetricsTest, PercentilesAndMean) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) {
    rec.Record(Ms(i));
  }
  EXPECT_NEAR(rec.MeanMs(), 50.5, 0.01);
  EXPECT_NEAR(rec.PercentileMs(50), 50.5, 1.0);
  EXPECT_NEAR(rec.PercentileMs(99), 99.0, 1.1);
  EXPECT_DOUBLE_EQ(rec.MaxMs(), 100.0);
  EXPECT_EQ(rec.count(), 100u);
}

TEST(MetricsTest, EmptyRecorderIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.MeanMs(), 0.0);
  EXPECT_EQ(rec.PercentileMs(50), 0.0);
}

// --- CommitTracker ---

TEST(CommitTrackerTest, ThroughputAndCommitLatency) {
  CommitTracker tracker(3);
  tracker.StartMeasurement(0);
  auto b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 100), Ms(10));
  tracker.OnPropose(b1);
  tracker.OnCommit(0, b1, Ms(30));
  tracker.OnCommit(1, b1, Ms(31));  // Later commits of the same block don't re-count.
  tracker.EndMeasurement(Sec(1));
  EXPECT_DOUBLE_EQ(tracker.ThroughputTps(), 100.0);
  EXPECT_EQ(tracker.commit_latency().count(), 1u);
  EXPECT_NEAR(tracker.commit_latency().MeanMs(), 20.0, 0.01);
}

TEST(CommitTrackerTest, SafetyViolationDetected) {
  CommitTracker tracker(3);
  auto a = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  auto b = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  ASSERT_NE(a->hash, b->hash);
  tracker.OnCommit(0, a, Ms(1));
  EXPECT_FALSE(tracker.safety_violated());
  tracker.OnCommit(1, b, Ms(2));  // Same height, different hash.
  EXPECT_TRUE(tracker.safety_violated());
}

TEST(CommitTrackerTest, ByzantineCommitsIgnoredByAudit) {
  CommitTracker tracker(3);
  tracker.MarkByzantine(2);
  auto a = Block::Create(1, Block::Genesis(), MakeTxs(1, 1), 0);
  auto b = Block::Create(1, Block::Genesis(), MakeTxs(2, 1), 0);
  tracker.OnCommit(0, a, Ms(1));
  tracker.OnCommit(2, b, Ms(2));  // Byzantine replica "commits" a conflicting block.
  EXPECT_FALSE(tracker.safety_violated());
}

TEST(CommitTrackerTest, EndToEndLatencyFromClientConfirm) {
  CommitTracker tracker(3);
  tracker.StartMeasurement(0);
  auto b1 = Block::Create(1, Block::Genesis(), MakeTxs(1, 2, /*t=*/Ms(5)), Ms(10));
  tracker.OnPropose(b1);
  tracker.OnClientConfirm(b1, Ms(45));
  tracker.OnClientConfirm(b1, Ms(60));  // Second reply ignored.
  tracker.EndMeasurement(Sec(1));
  EXPECT_EQ(tracker.e2e_latency().count(), 2u);  // Two txs.
  EXPECT_NEAR(tracker.e2e_latency().MeanMs(), 40.0, 0.01);
}

TEST(CommitTrackerTest, HeightsTracked) {
  CommitTracker tracker(2);
  auto b1 = Block::Create(1, Block::Genesis(), {}, 0);
  auto b2 = Block::Create(2, b1, {}, 0);
  tracker.OnCommit(0, b1, Ms(1));
  tracker.OnCommit(0, b2, Ms(2));
  tracker.OnCommit(1, b1, Ms(3));
  EXPECT_EQ(tracker.committed_height(0), 2u);
  EXPECT_EQ(tracker.committed_height(1), 1u);
  EXPECT_EQ(tracker.max_committed_height(), 2u);
  EXPECT_EQ(tracker.committed_hash_at(2), b2->hash);
}

TEST(CommitTrackerTest, MeasurementWindowFiltersEarlyCommits) {
  CommitTracker tracker(1);
  auto warmup = Block::Create(1, Block::Genesis(), MakeTxs(1, 50), 0);
  tracker.OnPropose(warmup);
  tracker.OnCommit(0, warmup, Ms(1));  // Before the window starts.
  tracker.StartMeasurement(Ms(100));
  auto measured = Block::Create(2, warmup, MakeTxs(2, 70), Ms(150));
  tracker.OnPropose(measured);
  tracker.OnCommit(0, measured, Ms(160));
  tracker.EndMeasurement(Ms(1100));
  EXPECT_DOUBLE_EQ(tracker.ThroughputTps(), 70.0);
}

TEST(LeaderScheduleTest, RoundRobin) {
  EXPECT_EQ(LeaderOfView(0, 5), 0u);
  EXPECT_EQ(LeaderOfView(7, 5), 2u);
  EXPECT_EQ(LeaderOfView(10, 5), 0u);
}

}  // namespace
}  // namespace achilles
