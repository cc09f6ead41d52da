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
// The known and the committed bit of every seq in a word.
constexpr uint64_t kKnownBits = 0x5555555555555555ULL;
constexpr uint64_t kCommittedBits = 0xAAAAAAAAAAAAAAAAULL;

uint64_t IdOf(uint32_t client, uint64_t seq) {
  return Transaction::MakeId(client, static_cast<uint32_t>(seq));
}

uint32_t ClientOf(uint64_t id) { return static_cast<uint32_t>(id >> 32); }

uint64_t SeqOf(uint64_t id) { return id & std::numeric_limits<uint32_t>::max(); }

// Calls fn(first, last) for each maximal run [first, last) of `txs` whose ids count up by
// one within one client; the step from seq 2^32-1 to the next client's seq 0 ends a run.
template <class Fn>
void ForEachRun(const std::vector<Transaction>& txs, Fn fn) {
  const Transaction* const end = txs.data() + txs.size();
  for (const Transaction* first = txs.data(); first != end;) {
    const Transaction* last = first + 1;
    while (last != end && last->id == last[-1].id + 1 &&
           ClientOf(last->id) == ClientOf(first->id)) {
      ++last;
    }
    fn(first, last);
    first = last;
  }
}

// Both bits of every seq from offset `lo` to offset `hi` of one word (lo <= hi < 32).
uint64_t PairMask(uint64_t lo, uint64_t hi) {
  const uint64_t to_hi = hi == 31 ? ~uint64_t{0} : (uint64_t{1} << (2 * hi + 2)) - 1;
  return to_hi & ~((uint64_t{1} << (2 * lo)) - 1);
}

// Calls fn(word, mask) for each word of a window based at `base` that holds seqs of
// [lo, hi] (base <= lo <= hi < end), `mask` selecting those seqs' bits.
template <class Fn>
void ForEachWord(std::deque<uint64_t>& words, uint64_t base, uint64_t lo, uint64_t hi, Fn fn) {
  for (uint64_t seq = lo; seq <= hi;) {
    const uint64_t last = std::min(hi, seq | 31);
    fn(words[(seq - base) / 32], PairMask(seq % 32, last % 32));
    seq = last + 1;
  }
}

}  // namespace

void Mempool::Add(const Transaction& tx) {
  if ((Touch(tx.id, kKnown) & kKnown) != 0) {
    return;
  }
  queue_.push_back(tx);
}

void Mempool::AddBatch(const std::vector<Transaction>& txs) {
  ForEachRun(txs, [this](const Transaction* first, const Transaction* last) {
    const uint64_t lo = SeqOf(first->id);
    const uint64_t hi = SeqOf(last[-1].id);
    Window* w = WindowForRun(first->id, hi);
    // Seqs below the watermark are committed, so a fresh run starts at or above it; known
    // bits never trim the window, so `base` holds still through the run.
    uint64_t seen = 0;
    if (w != nullptr && lo >= w->base) {
      ForEachWord(w->words, w->base, lo, hi,
                  [&seen](uint64_t word, uint64_t mask) { seen |= word & mask; });
    }
    if (w == nullptr || lo < w->base || seen != 0) {
      for (const Transaction* tx = first; tx != last; ++tx) {
        Add(*tx);
      }
      return;
    }
    // The usual submit: every seq of the run is unknown.
    ForEachWord(w->words, w->base, lo, hi,
                [](uint64_t& word, uint64_t mask) { word |= mask & kKnownBits; });
    queue_.insert(queue_.end(), first, last);
  });
}

std::vector<Transaction> Mempool::TakeBatch(size_t max) {
  std::vector<Transaction> batch;
  batch.reserve(std::min(max, queue_.size()));
  WindowCache cache;
  auto taken = queue_.begin();
  for (; batch.size() < max && taken != queue_.end(); ++taken) {
    if (Peek(taken->id, cache) != kCommitted) {  // Else committed while queued.
      batch.push_back(*taken);
    }
  }
  queue_.erase(queue_.begin(), taken);
  return batch;
}

void Mempool::MarkCommitted(const std::vector<Transaction>& txs) {
  ForEachRun(txs, [this](const Transaction* first, const Transaction* last) {
    const uint64_t lo = SeqOf(first->id);
    const uint64_t hi = SeqOf(last[-1].id);
    Window* w = WindowForRun(first->id, hi);
    if (w == nullptr) {
      for (const Transaction* tx = first; tx != last; ++tx) {
        Touch(tx->id, kCommitted);
      }
      return;
    }
    if (hi >= w->base) {  // Seqs below the watermark are committed already.
      ForEachWord(w->words, w->base, std::max(lo, w->base), hi,
                  [](uint64_t& word, uint64_t mask) { word |= mask; });
      Trim(*w);  // Once per run: Trim never moves end(), so deferring it changes no answer.
    }
  });
  // A replica that never leads never takes a batch, so drop committed txs off the front
  // here; TakeBatch would skip them anyway.
  WindowCache cache;
  auto committed = queue_.begin();
  while (committed != queue_.end() && Peek(committed->id, cache) == kCommitted) {
    ++committed;
  }
  queue_.erase(queue_.begin(), committed);
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
  const uint32_t client = ClientOf(id);
  const uint64_t seq = SeqOf(id);
  if (seq > 0 && windows_.find(client) == windows_.end() && RunState(id - 1) != kUnknown) {
    // Two ids in a row make a stream (a lone junk id never does): open its window at the
    // earlier id's word. WindowForRun() below pulls that id's state over from the runs.
    Window& opened = windows_[client];
    opened.start = opened.base = (seq - 1) & ~uint64_t{31};
  }
  Window* w = WindowForRun(id, seq);  // May raise the watermark past `seq`.
  if (w == nullptr) {
    const uint8_t old = RunState(id);
    if ((old | add) != old) {
      AssignRuns(id, id, old | add);
    }
    return old;
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

Mempool::Window* Mempool::WindowForRun(uint64_t first_id, uint64_t last_seq) {
  const auto found = windows_.find(ClientOf(first_id));
  if (found == windows_.end()) {
    return nullptr;
  }
  Window& w = found->second;
  const uint64_t seq = SeqOf(first_id);
  if (seq < w.start || (seq >= w.end() && seq - w.end() >= kMaxAhead)) {
    return nullptr;
  }
  if (last_seq >= w.end()) {
    // One pass over the run's new range pulls the same state out of the runs as growing
    // the window id by id would.
    Extend(w, found->first, last_seq);
  }
  return &w;
}

uint8_t Mempool::Peek(uint64_t id, WindowCache& cache) const {
  if (ClientOf(id) != cache.client) {
    cache.client = ClientOf(id);
    const auto found = windows_.find(ClientOf(id));
    cache.w = found == windows_.end() ? nullptr : &found->second;
  }
  const Window* w = cache.w;
  const uint64_t seq = SeqOf(id);
  if (w != nullptr && seq >= w->start && seq < w->base) {
    return kCommitted;  // Below the watermark: no word to read.
  }
  if (w == nullptr || seq < w->start || seq >= w->end()) {
    return RunState(id);
  }
  return (w->words[(seq - w->base) / 32] >> (2 * (seq % 32))) & kCommitted;
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
