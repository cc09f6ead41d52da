#include "src/consensus/mempool.h"

#include <algorithm>
#include <iterator>
#include <limits>

namespace achilles {
namespace {

// An id this far or farther above its client's window goes to the runs map instead of
// stretching the window over the gap, so one id grows a window by at most 8 KiB. Honest
// gaps are a client's in-flight txs, far below this.
constexpr uint64_t kMaxAhead = 32768;
// The committed bit of every seq in a word.
constexpr uint64_t kCommittedBits = 0xAAAAAAAAAAAAAAAAULL;

uint64_t IdOf(uint32_t client, uint64_t seq) {
  return Transaction::MakeId(client, static_cast<uint32_t>(seq));
}

}  // namespace

void Mempool::Add(const Transaction& tx) {
  if ((Touch(tx.id, kKnown) & kKnown) != 0) {
    return;
  }
  queue_.push_back(tx);
}

void Mempool::AddBatch(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    Add(tx);
  }
}

std::vector<Transaction> Mempool::TakeBatch(size_t max) {
  std::vector<Transaction> batch;
  batch.reserve(std::min(max, queue_.size()));
  while (batch.size() < max && !queue_.empty()) {
    Transaction tx = queue_.front();
    queue_.pop_front();
    if (Touch(tx.id, kUnknown) == kCommitted) {
      continue;  // Committed while queued.
    }
    batch.push_back(tx);
  }
  return batch;
}

void Mempool::MarkCommitted(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    Touch(tx.id, kCommitted);
  }
  // A replica that never leads never takes a batch, so drop committed txs off the front
  // here; TakeBatch would skip them anyway.
  while (!queue_.empty() && Touch(queue_.front().id, kUnknown) == kCommitted) {
    queue_.pop_front();
  }
}

Mempool::Footprint Mempool::footprint() const {
  Footprint fp;
  fp.queued = queue_.size();
  fp.windows = windows_.size();
  fp.runs = runs_.size();
  for (const auto& [client, w] : windows_) {
    fp.words += w.words.size();
  }
  return fp;
}

uint8_t Mempool::Touch(uint64_t id, uint8_t add) {
  const uint32_t client = static_cast<uint32_t>(id >> 32);
  const uint64_t seq = id & std::numeric_limits<uint32_t>::max();
  const auto found = windows_.find(client);
  Window* w = found == windows_.end() ? nullptr : &found->second;
  if (w == nullptr && add != kUnknown && seq > 0 && RunState(id - 1) != kUnknown) {
    // Two ids in a row make a stream (a lone junk id never does): open its window at the
    // earlier id's word. Extend() below pulls that id's state over from the runs.
    w = &windows_[client];
    w->start = w->base = (seq - 1) & ~uint64_t{31};
  }
  const bool in_window = w != nullptr && seq >= w->start &&
                         (seq < w->end() || (add != kUnknown && seq - w->end() < kMaxAhead));
  if (!in_window) {
    const uint8_t old = RunState(id);
    if ((old | add) != old) {
      AssignRuns(id, id, old | add);
    }
    return old;
  }
  if (seq >= w->end()) {
    Extend(*w, client, seq);  // May raise the watermark past `seq`.
  }
  if (seq < w->base) {
    return kCommitted;
  }
  uint64_t& word = w->words[(seq - w->base) / 32];
  const unsigned shift = 2 * (seq % 32);
  const uint8_t old = (word >> shift) & kCommitted;
  word |= uint64_t{add} << shift;
  if (add == kCommitted) {
    Trim(*w);
  }
  return old;
}

void Mempool::Extend(Window& w, uint32_t client, uint64_t seq) {
  const uint64_t lo = w.end();
  while (w.end() <= seq) {
    w.words.push_back(0);
  }
  // Ids in the new range may have gone to the runs while they were out of reach.
  const uint64_t first = IdOf(client, lo);
  const uint64_t last = IdOf(client, w.end() - 1);
  const auto next = runs_.upper_bound(last);
  const bool all_unknown = next == runs_.begin() || (std::prev(next)->first < first &&
                                                     std::prev(next)->second == kUnknown);
  if (!all_unknown) {
    auto it = runs_.upper_bound(first);
    uint8_t state = RunState(first);
    for (uint64_t id = first;;) {
      const uint64_t run_last = (it == runs_.end() || it->first > last) ? last : it->first - 1;
      for (uint64_t s = lo + (id - first); state != kUnknown && s <= lo + (run_last - first);
           ++s) {
        w.words[(s - w.base) / 32] |= uint64_t{state} << (2 * (s % 32));
      }
      if (run_last == last) {
        break;
      }
      id = it->first;
      state = it->second;
      ++it;
    }
    AssignRuns(first, last, kUnknown);
    Trim(w);
  }
}

void Mempool::Trim(Window& w) {
  while (!w.words.empty() && (w.words.front() & kCommittedBits) == kCommittedBits) {
    w.words.pop_front();
    w.base += 32;
  }
}

uint8_t Mempool::RunState(uint64_t id) const {
  const auto next = runs_.upper_bound(id);
  return next == runs_.begin() ? kUnknown : std::prev(next)->second;
}

void Mempool::AssignRuns(uint64_t lo, uint64_t hi, uint8_t state) {
  const bool to_top = hi == std::numeric_limits<uint64_t>::max();
  const uint8_t before = lo == 0 ? kUnknown : RunState(lo - 1);
  const uint8_t after = to_top ? kUnknown : RunState(hi + 1);
  runs_.erase(runs_.lower_bound(lo), to_top ? runs_.end() : runs_.upper_bound(hi + 1));
  if (state != before) {
    runs_.emplace(lo, state);
  }
  if (!to_top && after != state) {
    runs_.emplace(hi + 1, after);
  }
}

}  // namespace achilles
