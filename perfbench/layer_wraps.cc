// Layer timers for the traced benchmark binary. Each PERFBENCH_WRAP line names one public
// entry point of a simulator module by its mangled symbol; CMakeLists.txt passes
// -Wl,--wrap=<symbol> for every such line, so calls from *other* object files reach
// <name>_wrap, which charges the call to its layer and forwards to the original
// (__real_<symbol>). Calls a module makes to itself inside one object file are not
// redirected; they are booked to whichever layer the enclosing call belongs to.
//
// The wrappers only read the host clock: virtual time, event order and every digest are
// the same as in the plain binary (run.py checks that the traced run's virtual-time metrics
// equal the plain run's).
#include <chrono>
#include <type_traits>
#include <vector>

#include "perfbench/ledger.h"
#include "src/consensus/mempool.h"
#include "src/crypto/hmac.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/obs/critpath.h"
#include "src/obs/journal.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace perfbench {
namespace {

LedgerTotals g_totals;
Layer g_current = kOther;
uint64_t g_mark = 0;  // Host ns at the last layer switch.

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Books the time since the last switch to the running layer and makes `next` current.
void SwitchTo(Layer next) {
  const uint64_t now = NowNs();
  if (g_mark != 0) {
    g_totals.ns[g_current] += now - g_mark;
  }
  g_mark = now;
  g_current = next;
}

class LayerScope {
 public:
  explicit LayerScope(Layer layer) : prev_(g_current) {
    if (layer != prev_) {
      ++g_totals.calls[layer];
      SwitchTo(layer);
    }
  }
  ~LayerScope() {
    if (g_current != prev_) {
      SwitchTo(prev_);
    }
  }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Layer prev_;
};

// Free-function type of an entry point: members take their object as the first argument,
// which is how the platform ABI passes `this`.
template <class F>
struct FreeSig;
template <class R, class... A>
struct FreeSig<R (*)(A...)> {
  using type = R(A...);
};
template <class R, class C, class... A>
struct FreeSig<R (C::*)(A...)> {
  using type = R(C*, A...);
};
template <class R, class C, class... A>
struct FreeSig<R (C::*)(A...) const> {
  using type = R(const C*, A...);
};
template <auto Entry>
using Sig = typename FreeSig<decltype(Entry)>::type;

}  // namespace

LedgerTotals ReadLedger() {
  SwitchTo(g_current);  // Book the running stretch so the totals are current.
  return g_totals;
}

}  // namespace perfbench

// The wrapper's parameter list is spelled out (it needs names); the static_assert ties it
// to the entry point's declared type so a header change cannot silently skew the ABI.
#define PERFBENCH_WRAP(symbol, layer, entry, name, Ret, params, args)             \
  perfbench::Sig<entry> name##_real __asm__("__real_" symbol);                    \
  Ret name##_wrap params __asm__("__wrap_" symbol);                               \
  static_assert(std::is_same_v<perfbench::Sig<entry>, decltype(name##_wrap)>);    \
  Ret name##_wrap params {                                                        \
    perfbench::LayerScope scope(perfbench::layer);                                \
    return name##_real args;                                                      \
  }

using namespace achilles;  // NOLINT: keeps the wrapper table readable.
using obs::CritPathCollector;
using obs::Journal;
using obs::SpanTracer;

// --- sim: event queue ---
PERFBENCH_WRAP("_ZN8achilles13CalendarQueue4PushEPNS_9EventNodeE", kQueue,
               &CalendarQueue::Push, QueuePush, void, (CalendarQueue * q, EventNode* n), (q, n))
PERFBENCH_WRAP("_ZN8achilles13CalendarQueue12PeekEarliestERNS_9EventPoolE", kQueue,
               &CalendarQueue::PeekEarliest, QueuePeek, EventNode*,
               (CalendarQueue * q, EventPool& pool), (q, pool))
PERFBENCH_WRAP("_ZN8achilles13CalendarQueue11PopEarliestERNS_9EventPoolE", kQueue,
               &CalendarQueue::PopEarliest, QueuePop, EventNode*,
               (CalendarQueue * q, EventPool& pool), (q, pool))
PERFBENCH_WRAP("_ZN8achilles13CalendarQueue6RemoveEPNS_9EventNodeERNS_9EventPoolE", kQueue,
               &CalendarQueue::Remove, QueueRemove, void,
               (CalendarQueue * q, EventNode* n, EventPool& pool), (q, n, pool))
PERFBENCH_WRAP("_ZN8achilles9EventPool5AllocEv", kQueue, &EventPool::Alloc, PoolAlloc,
               EventNode*, (EventPool * pool), (pool))
PERFBENCH_WRAP("_ZN8achilles9EventPool4FreeEPNS_9EventNodeE", kQueue, &EventPool::Free,
               PoolFree, void, (EventPool * pool, EventNode* n), (pool, n))

// --- sim/network ---
PERFBENCH_WRAP("_ZN8achilles7Network4SendEjjSt10shared_ptrIKNS_10SimMessageEE", kNet,
               &Network::Send, NetSend, SimTime,
               (Network * net, uint32_t from, uint32_t to, MessageRef msg),
               (net, from, to, std::move(msg)))
PERFBENCH_WRAP("_ZN8achilles7Network9MulticastEjRKSt6vectorIjSaIjEERKSt10shared_ptrIKNS_10SimMessageEE", kNet,
               &Network::Multicast, NetMulticast, void,
               (Network * net, uint32_t from, const std::vector<uint32_t>& to,
                const MessageRef& msg),
               (net, from, to, msg))

// --- consensus: mempool ---
PERFBENCH_WRAP("_ZN8achilles7Mempool3AddERKNS_11TransactionE", kMempool, &Mempool::Add,
               MempoolAdd, void, (Mempool * pool, const Transaction& tx), (pool, tx))
PERFBENCH_WRAP("_ZN8achilles7Mempool8AddBatchERKSt6vectorINS_11TransactionESaIS2_EE", kMempool,
               &Mempool::AddBatch, MempoolAddBatch, void,
               (Mempool * pool, const std::vector<Transaction>& txs), (pool, txs))
PERFBENCH_WRAP("_ZN8achilles7Mempool9TakeBatchEm", kMempool, &Mempool::TakeBatch,
               MempoolTakeBatch, std::vector<Transaction>, (Mempool * pool, size_t max),
               (pool, max))
PERFBENCH_WRAP("_ZN8achilles7Mempool13MarkCommittedERKSt6vectorINS_11TransactionESaIS2_EE", kMempool,
               &Mempool::MarkCommitted, MempoolMarkCommitted, void,
               (Mempool * pool, const std::vector<Transaction>& txs), (pool, txs))

// --- crypto ---
PERFBENCH_WRAP("_ZN8achilles10HmacSha256ESt4spanIKhLm18446744073709551615EES2_", kCrypto,
               &HmacSha256, Hmac, Hash256, (ByteView key, ByteView msg), (key, msg))
PERFBENCH_WRAP("_ZNK8achilles7HmacKey3MacESt4spanIKhLm18446744073709551615EE", kCrypto,
               &HmacKey::Mac, HmacMac, Hash256, (const HmacKey* key, ByteView msg),
               (key, msg))
PERFBENCH_WRAP("_ZN8achilles12Sha256DigestESt4spanIKhLm18446744073709551615EE", kCrypto,
               &Sha256Digest, Digest, Hash256, (ByteView data), (data))
PERFBENCH_WRAP("_ZN8achilles8HashPairERKSt5arrayIhLm32EES3_", kCrypto, &HashPair, Pair,
               Hash256, (const Hash256& a, const Hash256& b), (a, b))
PERFBENCH_WRAP("_ZN8achilles6Sha2566UpdateESt4spanIKhLm18446744073709551615EE", kCrypto,
               &Sha256::Update, ShaUpdate, void, (Sha256 * sha, ByteView data), (sha, data))
PERFBENCH_WRAP("_ZN8achilles6Sha2566FinishEv", kCrypto, &Sha256::Finish, ShaFinish, Hash256,
               (Sha256 * sha), (sha))
PERFBENCH_WRAP("_ZN8achilles11SchnorrSignERKNS_14SchnorrKeyPairESt4spanIKhLm18446744073709551615EE", kCrypto,
               &SchnorrSign, SchnorrSignW, Bytes, (const SchnorrKeyPair& key, ByteView msg),
               (key, msg))
PERFBENCH_WRAP("_ZN8achilles13SchnorrVerifyERKNS_11AffinePointESt4spanIKhLm18446744073709551615EES5_", kCrypto,
               &SchnorrVerify, SchnorrVerifyW, bool,
               (const AffinePoint& pub, ByteView msg, ByteView sig), (pub, msg, sig))
PERFBENCH_WRAP("_ZN8achilles18SchnorrBatchVerifyERKSt6vectorINS_17SchnorrBatchInputESaIS1_EE", kCrypto,
               &SchnorrBatchVerify, SchnorrBatchW, SchnorrBatchResult,
               (const std::vector<SchnorrBatchInput>& batch), (batch))
PERFBENCH_WRAP("_ZNK8achilles11CryptoSuite4SignEjSt4spanIKhLm18446744073709551615EE", kCrypto,
               &CryptoSuite::Sign, SuiteSign, Signature,
               (const CryptoSuite* suite, uint32_t signer, ByteView msg), (suite, signer, msg))
PERFBENCH_WRAP("_ZNK8achilles11CryptoSuite6VerifyERKNS_9SignatureESt4spanIKhLm18446744073709551615EE", kCrypto,
               &CryptoSuite::Verify, SuiteVerify, bool,
               (const CryptoSuite* suite, const Signature& sig, ByteView msg),
               (suite, sig, msg))
PERFBENCH_WRAP("_ZNK8achilles11CryptoSuite12VerifyQuorumERKSt6vectorINS_9SignatureESaIS2_EESt4spanIKhLm18446744073709551615EEm", kCrypto,
               &CryptoSuite::VerifyQuorum, SuiteVerifyQuorum, bool,
               (const CryptoSuite* suite, const std::vector<Signature>& sigs, ByteView msg,
                size_t quorum),
               (suite, sigs, msg, quorum))

// --- obs: the recorders the traced run turns on ---
PERFBENCH_WRAP("_ZN8achilles3obs10SpanTracer5BeginEPKcjlmm", kObs, &SpanTracer::Begin,
               TraceBegin, uint64_t,
               (SpanTracer * t, const char* name, uint32_t tid, SimTime now, uint64_t parent,
                uint64_t arg),
               (t, name, tid, now, parent, arg))
PERFBENCH_WRAP("_ZN8achilles3obs10SpanTracer3EndEmjl", kObs, &SpanTracer::End, TraceEnd, void,
               (SpanTracer * t, uint64_t id, uint32_t tid, SimTime now), (t, id, tid, now))
PERFBENCH_WRAP("_ZN8achilles3obs10SpanTracer7InstantEPKcjlmm", kObs, &SpanTracer::Instant,
               TraceInstant, void,
               (SpanTracer * t, const char* name, uint32_t tid, SimTime now, uint64_t parent,
                uint64_t arg),
               (t, name, tid, now, parent, arg))
PERFBENCH_WRAP("_ZN8achilles3obs7Journal6RecordEjNS0_11JournalKindElmmmNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE", kObs,
               &Journal::Record, JournalRecord, uint64_t,
               (Journal * j, uint32_t node, obs::JournalKind kind, SimTime ts, uint64_t parent,
                uint64_t a, uint64_t b, std::string detail),
               (j, node, kind, ts, parent, a, b, std::move(detail)))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector11BeginOriginEjll", kObs,
               &CritPathCollector::BeginOrigin, CritOrigin, uint32_t,
               (CritPathCollector * c, uint32_t node, SimTime origin, SimTime local_now),
               (c, node, origin, local_now))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector12BeginHandlerEjPKcjll", kObs,
               &CritPathCollector::BeginHandler, CritHandler, uint32_t,
               (CritPathCollector * c, uint32_t node, const char* name, uint32_t trigger,
                SimTime ready, SimTime start),
               (c, node, name, trigger, ready, start))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector12BeginTransitEjjPKcjlllljb", kObs,
               &CritPathCollector::BeginTransit, CritTransit, uint32_t,
               (CritPathCollector * c, uint32_t from, uint32_t to, const char* name,
                uint32_t trigger, SimTime dep, SimTime tx_start, SimTime tx_end,
                SimTime arrival, uint32_t nic, bool holds_nic),
               (c, from, to, name, trigger, dep, tx_start, tx_end, arrival, nic, holds_nic))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector10AddServiceEjNS0_9ComponentEl", kObs,
               &CritPathCollector::AddService, CritService, void,
               (CritPathCollector * c, uint32_t activity, obs::Component comp, SimDuration d),
               (c, activity, comp, d))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector9NoteInputEmjl", kObs,
               &CritPathCollector::NoteInput, CritNote, void,
               (CritPathCollector * c, uint64_t key, uint32_t activity, SimTime at),
               (c, key, activity, at))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector10JoinInputsEmjl", kObs,
               &CritPathCollector::JoinInputs, CritJoin, void,
               (CritPathCollector * c, uint64_t key, uint32_t joiner, SimTime at),
               (c, key, joiner, at))
PERFBENCH_WRAP("_ZN8achilles3obs17CritPathCollector9OnConfirmEjlmllm", kObs,
               &CritPathCollector::OnConfirm, CritConfirm, void,
               (CritPathCollector * c, uint32_t activity, SimTime origin, uint64_t height,
                SimTime confirm, int64_t submit_sum_ns, uint64_t tx_count),
               (c, activity, origin, height, confirm, submit_sum_ns, tx_count))
