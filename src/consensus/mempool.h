// Pending-transaction pool with duplicate suppression across submissions and commits.
//
// Every tx id is in one of three states: unknown, known (pending or taken), or committed.
// Ids are `(client << 32) | seq`, and a client's seqs arrive and commit roughly in order,
// so each client with a live stream gets a window: a committed watermark below which every
// seq is committed, then two bits per seq (known, committed) packed 32 seqs to a word.
// Leading words leave the window once all their seqs are committed. Ids outside every
// window (below where a window started, implausibly far above it, or junk from clients
// with no stream) keep their exact state in `runs_`, a piecewise-constant map over the id
// space. Every answer equals that of a pair of ever-growing id sets.
//
// Memory is O(clients + window spans + unresolved runs). A window spans from its client's
// oldest seq not committed here to its newest, so it follows the in-flight txs only while
// every seq eventually commits here. A seq that never does pins the window, which then
// grows by two bits per later seq of that client: a KV lease read consumes a seq that
// never enters any pool, and a replica that adopts a snapshot never commits the txs it
// skipped. Exact dedup has to remember such holes, as such a seq may still arrive; in a
// window they cost two bits a seq and no run key.
#ifndef SRC_CONSENSUS_MEMPOOL_H_
#define SRC_CONSENSUS_MEMPOOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/consensus/transaction.h"

namespace achilles {

class Mempool {
 public:
  // Adds a transaction; duplicates (by id) of pending or already-committed txs are dropped.
  void Add(const Transaction& tx);
  void AddBatch(const std::vector<Transaction>& txs);

  // Removes and returns up to `max` transactions, FIFO.
  std::vector<Transaction> TakeBatch(size_t max);

  // Marks transactions as committed so re-submissions / stale proposals don't re-enter.
  void MarkCommitted(const std::vector<Transaction>& txs);

  // Queued txs from the oldest one not yet committed onward.
  size_t pending() const { return queue_.size(); }

  // State held, for bounded-state checks.
  struct Footprint {
    size_t queued = 0;   // pending().
    size_t windows = 0;  // Clients with a window.
    size_t words = 0;    // Window words held.
    size_t runs = 0;     // Run boundaries held for ids outside every window.
  };
  Footprint footprint() const;

 private:
  // Id states; a bit pair in a window word, or a run's value.
  static constexpr uint8_t kUnknown = 0;
  static constexpr uint8_t kKnown = 1;
  static constexpr uint8_t kCommitted = 3;  // Committed ids are known too.

  struct Window {
    uint64_t start = 0;  // First seq this window answers for; lower seqs live in `runs_`.
    uint64_t base = 0;   // Watermark: seqs in [start, base) are all committed.
    std::deque<uint64_t> words;  // Seqs [base, end()), 32 per word, bit pair 2i = seq base+i.
    uint64_t end() const { return base + 32 * words.size(); }
  };

  // Returns `id`'s state, then ORs `add` into it. `add == kUnknown` is a pure lookup.
  uint8_t Touch(uint64_t id, uint8_t add);
  // Grows `w` to cover `seq`, pulling the new range's state out of `runs_`.
  void Extend(Window& w, uint32_t client, uint64_t seq);
  // Drops leading words whose seqs are all committed.
  static void Trim(Window& w);

  uint8_t RunState(uint64_t id) const;
  // Sets ids [lo, hi] (inclusive) to `state`.
  void AssignRuns(uint64_t lo, uint64_t hi, uint8_t state);

  std::deque<Transaction> queue_;
  std::unordered_map<uint32_t, Window> windows_;  // By client.
  // Key k holds the state of ids [k, next key); ids below the first key are unknown.
  // Adjacent runs never share a state, so a lone id costs two keys.
  std::map<uint64_t, uint8_t> runs_;
};

}  // namespace achilles

#endif  // SRC_CONSENSUS_MEMPOOL_H_
