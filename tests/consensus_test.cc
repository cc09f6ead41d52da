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
#include "src/consensus/messages.h"
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

TEST(BlockTest, WireSizeMemoFollowsTheTxsOfEachCopy) {
  std::vector<Transaction> txs = MakeTxs(1, 5);
  txs[2].payload_size = 1000;
  size_t body = 0;
  for (const Transaction& tx : txs) {
    body += 8 + tx.payload_size;
  }
  const BlockPtr block = Block::Create(1, Block::Genesis(), txs, 0);
  EXPECT_EQ(block->WireSize(), 112u + body);
  EXPECT_EQ(block->WireSize(), 112u + body);  // From the memo.

  // A copy of a block whose size is memoized, then mutated, reports its own txs' size.
  Block copied(*block);
  copied.txs.push_back(Transaction{Transaction::MakeId(1, 5), 0, 40});
  EXPECT_EQ(copied.WireSize(), 112u + body + 48u);
  Block assigned;
  EXPECT_EQ(assigned.WireSize(), 112u);  // Memoizes the empty block's size.
  assigned = *block;
  assigned.txs.pop_back();
  EXPECT_EQ(assigned.WireSize(), 112u + body - 264u);
  EXPECT_EQ(block->WireSize(), 112u + body);

  const Bytes record = EncodeBlockRecord(*block);
  const BlockPtr decoded = DecodeBlockRecord(ByteView(record.data(), record.size()));
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->WireSize(), block->WireSize());

  ClientSubmitMsg submit;
  submit.txs = txs;
  EXPECT_EQ(submit.WireSize(), 8u + body);
  EXPECT_EQ(submit.WireSize(), 8u + body);
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

// Checks the store against the blocks of `pool` expected present: membership, size and
// an ApproxBytes() recounted from scratch.
void ExpectStoreHolds(const BlockStore& store, const std::vector<BlockPtr>& pool,
                      const std::unordered_set<const Block*>& present) {
  uint64_t bytes = Block::Genesis()->WireSize();
  for (const BlockPtr& b : pool) {
    EXPECT_EQ(store.Has(b->hash), present.count(b.get()) > 0) << "height " << b->height;
    if (present.count(b.get()) > 0) {
      bytes += b->WireSize();
    }
  }
  EXPECT_TRUE(store.Has(Block::Genesis()->hash));
  EXPECT_EQ(store.size(), present.size() + 1);
  EXPECT_EQ(store.ApproxBytes(), bytes);
}

TEST(BlockStoreTest, PruneBelowDropsExactlyTheBlocksUnderTheEdge) {
  // Heights 1..12 with three-way forks at heights 3 and 7; fork siblings carry different
  // payloads, so their wire sizes differ.
  std::vector<BlockPtr> pool;
  BlockPtr parent = Block::Genesis();
  for (Height h = 1; h <= 12; ++h) {
    const uint32_t width = (h == 3 || h == 7) ? 3 : 1;
    for (uint32_t k = 0; k < width; ++k) {
      pool.push_back(
          Block::Create(h, parent, MakeTxs(static_cast<uint32_t>(h * 10 + k), k + 1), 0));
    }
    parent = pool.back();
  }
  BlockStore store;
  std::unordered_set<const Block*> present;
  auto add = [&](const BlockPtr& b) {
    store.Add(b);
    present.insert(b.get());
  };
  auto prune = [&](Height keep_from) {
    store.PruneBelow(keep_from);
    for (auto it = present.begin(); it != present.end();) {
      it = (*it)->height < keep_from ? present.erase(it) : std::next(it);
    }
    ExpectStoreHolds(store, pool, present);
  };
  // Out of height order, as sync backfill delivers them.
  for (size_t i = pool.size(); i-- > 0;) {
    add(pool[i]);
  }
  ExpectStoreHolds(store, pool, present);
  prune(0);
  prune(1);
  prune(4);  // Drops heights 1-3, all three height-3 siblings included.
  prune(4);  // Idempotent.
  add(pool[3]);  // Re-Add a pruned height-3 block: it is back, counted once.
  add(pool[3]);
  ExpectStoreHolds(store, pool, present);
  prune(8);
  add(pool[9]);  // A pruned height-7 sibling.
  ExpectStoreHolds(store, pool, present);
  prune(100);  // Everything but genesis.
  EXPECT_EQ(store.size(), 1u);

  // Random Add/PruneBelow interleavings against the same model.
  Rng rng(7);
  for (int op = 0; op < 2000; ++op) {
    if (rng.UniformU64(4) == 0) {
      prune(static_cast<Height>(rng.UniformU64(14)));
    } else {
      add(pool[rng.UniformU64(pool.size())]);
    }
  }
  ExpectStoreHolds(store, pool, present);
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

// Three pools in lockstep: one fed whole batches (the run path of AddBatch and
// MarkCommitted), one fed the same ops one id at a time, and the two-set reference.
// pending() and every TakeBatch must agree after every op, and the two pools must hold the
// same windows, words and run keys. The one-id pool adds through Add, so its adds go
// through Touch; its commits are MarkCommitted runs of one, each with its own Trim.
class LockstepPools {
 public:
  void Add(const std::vector<Transaction>& txs) {
    batched_.AddBatch(txs);
    for (const Transaction& tx : txs) {
      single_.Add(tx);
    }
    ref_.AddBatch(txs);
    CheckState();
  }

  void Commit(const std::vector<Transaction>& txs) {
    batched_.MarkCommitted(txs);
    for (const Transaction& tx : txs) {
      single_.MarkCommitted({tx});
    }
    ref_.MarkCommitted(txs);
    CheckState();
  }

  void Take(size_t max) {
    const std::vector<uint64_t> want = Ids(ref_.TakeBatch(max));
    ASSERT_EQ(Ids(batched_.TakeBatch(max)), want) << "op " << ops_;
    ASSERT_EQ(Ids(single_.TakeBatch(max)), want) << "op " << ops_;
    CheckState();
  }

 private:
  static std::vector<uint64_t> Ids(const std::vector<Transaction>& txs) {
    std::vector<uint64_t> ids;
    for (const Transaction& tx : txs) {
      ids.push_back(tx.id);
    }
    return ids;
  }

  void CheckState() {
    ASSERT_EQ(batched_.pending(), ref_.pending()) << "op " << ops_;
    ASSERT_EQ(single_.pending(), ref_.pending()) << "op " << ops_;
    // Same state, not only the same answers.
    const Mempool::Footprint a = batched_.footprint();
    const Mempool::Footprint b = single_.footprint();
    ASSERT_EQ(a.windows, b.windows) << "op " << ops_;
    ASSERT_EQ(a.words, b.words) << "op " << ops_;
    ASSERT_EQ(a.runs, b.runs) << "op " << ops_;
    ++ops_;
  }

  Mempool batched_;
  Mempool single_;
  ReferenceMempool ref_;
  size_t ops_ = 0;
};

std::vector<Transaction> Seqs(uint32_t client, uint64_t from, size_t count) {
  return FuzzIds(FuzzClient{client, 0}, from, count);
}

std::vector<Transaction> Concat(std::vector<Transaction> a, const std::vector<Transaction>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(MempoolTest, RunPathMatchesPerIdOpsAtEveryEdge) {
  LockstepPools p;
  // Client 1 streams from seq 0, so its window starts at 0 and word k holds 32k..32k+31.
  p.Add(Seqs(1, 0, 2));    // Per id: the second id opens the window.
  p.Add(Seqs(1, 2, 30));   // Fresh run ending on a word's last seq.
  p.Add(Seqs(1, 32, 33));  // From a word's first seq to the next word's first.
  p.Add(Seqs(1, 60, 40));  // Partly known: 60..64.
  p.Add(Concat(Seqs(1, 100, 20), Seqs(1, 110, 20)));  // Duplicates inside one batch.
  p.Commit(Seqs(1, 0, 31));   // One short of a word's last seq.
  p.Commit(Seqs(1, 31, 1));   // The word's last seq: the watermark rises to 32.
  p.Commit(Seqs(1, 40, 30));  // Ahead of the watermark, across a word boundary.
  p.Commit(Seqs(1, 20, 30));  // Partly below the watermark; fills 32..39: watermark 64.
  p.Add(Seqs(1, 60, 10));     // Starts below the watermark, all committed.
  p.Add(Seqs(1, 64, 70));     // Starts at the watermark: committed, known, then fresh.
  p.Commit(Seqs(1, 63, 3));   // Straddles the watermark.
  p.Take(50);
  p.Commit(Concat(Seqs(1, 90, 10), Seqs(1, 95, 40)));  // Duplicates inside one commit.
  // The highest seq so far is 134, so the window ends at 160, and 160 + kMaxAhead is the
  // first seq too far ahead to grow it.
  constexpr uint64_t kReach = 160 + 32768;
  p.Commit(Seqs(1, kReach, 5));      // Too far: the runs take it, id by id.
  p.Commit(Seqs(1, kReach - 1, 3));  // One inside: the window grows and takes over the runs.
  p.Add(Seqs(1, kReach - 40, 80));
  p.Take(100);

  // Client 2 is first heard mid-stream: its window starts at 992, the word of seq 1000.
  p.Add(Seqs(2, 1000, 10));  // Per id: the second id opens the window.
  p.Add(Seqs(2, 990, 10));   // Starts below the window's start: per id throughout.
  p.Add(Seqs(2, 992, 20));   // Starts at the window's start.
  p.Commit(Seqs(2, 985, 30));
  p.Commit(Seqs(2, 992, 40));
  p.Add(Seqs(2, 991, 50));

  // Consecutive ids across two clients: client 3's last seq, then client 4's seq 0.
  p.Add(Seqs(3, UINT32_MAX - 63, 32));  // Opens client 3's window near the top.
  const std::vector<Transaction> wrap = Concat(Seqs(3, UINT32_MAX - 40, 41), Seqs(4, 0, 40));
  ASSERT_EQ(wrap[41].id, wrap[40].id + 1);
  p.Add(wrap);
  p.Add(Seqs(4, 0, 60));
  p.Take(20);
  p.Commit(wrap);
  p.Add(wrap);
  p.Take(SIZE_MAX);
}

TEST(MempoolTest, RunPathMatchesPerIdOpsOnBatchShapedTraffic) {
  // Runs of up to 600 ids that start at the edges the run path cares about: word
  // boundaries, the in-order commit cursor (where the watermark sits), and the window's
  // reach, with overlapping runs in one batch and runs across the top of client 3.
  struct Stream {
    uint32_t client;
    uint64_t next;       // Next fresh seq.
    uint64_t committed;  // In-order commit cursor.
  };
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    LockstepPools p;
    Rng rng(seed);
    std::vector<Stream> streams = {
        {1, 0, 0}, {2, 5000 + rng.UniformU64(64), 0}, {3, UINT32_MAX - 3000, 0}};
    streams[1].committed = streams[1].next;
    streams[2].committed = streams[2].next;
    for (int op = 0; op < 2000 && !HasFatalFailure(); ++op) {
      Stream& s = streams[rng.UniformU64(streams.size())];
      const uint64_t anchors[] = {s.next, s.committed, s.committed & ~uint64_t{31},
                                  (s.next | 31) + 1, (s.next | 31) + 1 + 32768};
      const uint64_t anchor = anchors[rng.UniformU64(5)];
      const uint64_t from = anchor - std::min<uint64_t>(anchor, rng.UniformU64(4));
      const size_t count = 1 + rng.UniformU64(rng.Chance(0.5) ? 40 : 600);
      std::vector<Transaction> txs;
      const uint64_t roll = rng.UniformU64(100);
      if (roll < 35) {  // In-order submit.
        txs = Seqs(s.client, s.next, count);
        s.next += count;
      } else if (roll < 55) {
        txs = Seqs(s.client, from, count);
      } else if (roll < 75) {  // In-order commit, never far past submission.
        txs = Seqs(s.client, s.committed, std::min<uint64_t>(count, s.next + 64 - s.committed));
        s.committed += txs.size();
      } else if (roll < 85) {
        txs = Seqs(s.client, from, count);
      } else {
        p.Take(rng.UniformU64(500));
        continue;
      }
      if (txs.empty()) {
        continue;  // Past the top of client 3's seqs.
      }
      if (rng.Chance(0.1)) {  // An overlapping run in the same batch.
        const uint64_t seq = static_cast<uint32_t>(txs[rng.UniformU64(txs.size())].id);
        txs = Concat(txs, Seqs(s.client, seq, 1 + rng.UniformU64(64)));
      }
      if (s.client == 3 && static_cast<uint32_t>(txs.back().id) == UINT32_MAX) {
        txs = Concat(txs, Seqs(4, 0, rng.UniformU64(50)));  // Across to client 4.
      }
      if (roll < 55) {
        p.Add(txs);
      } else {
        p.Commit(txs);
      }
    }
    p.Take(SIZE_MAX);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
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
