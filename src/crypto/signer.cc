#include "src/crypto/signer.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/hmac.h"

namespace achilles {

namespace {
constexpr size_t kHmacTagSize = 32;
// The fast mode models a 64-byte ECDSA signature on the wire; the tag itself is 32 bytes, so
// it is padded with zeros to keep encoded size honest.
constexpr size_t kModeledSigSize = 64;
constexpr size_t kMemoIndexOffset = 8;
static_assert(kSchnorrSignatureSize <= UINT8_MAX && CryptoSuite::kMemoMaxMsg <= UINT8_MAX,
              "memo slot lengths are stored in one byte");

// Whether a (blob, message) pair fits a memo slot; other inputs are always recomputed.
bool Memoisable(const Bytes& blob, ByteView msg) {
  return blob.size() >= kMemoIndexOffset + sizeof(uint64_t) &&
         blob.size() <= kSchnorrSignatureSize && msg.size() <= CryptoSuite::kMemoMaxMsg;
}
}  // namespace

CryptoSuite::CryptoSuite(SignatureScheme scheme, uint32_t num_parties, uint64_t seed)
    : scheme_(scheme), num_parties_(num_parties) {
  Bytes seed_bytes(32, 0);
  for (int i = 0; i < 8; ++i) {
    seed_bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(seed >> (8 * i));
  }
  if (scheme_ == SignatureScheme::kSchnorr) {
    schnorr_keys_.reserve(num_parties_);
    for (uint32_t i = 0; i < num_parties_; ++i) {
      Bytes party_seed = seed_bytes;
      party_seed.push_back(static_cast<uint8_t>(i));
      party_seed.push_back(static_cast<uint8_t>(i >> 8));
      party_seed.push_back(static_cast<uint8_t>(i >> 16));
      party_seed.push_back(static_cast<uint8_t>(i >> 24));
      schnorr_keys_.push_back(
          SchnorrKeyFromSeed(ByteView(party_seed.data(), party_seed.size())));
    }
  } else {
    hmac_keys_.reserve(num_parties_);
    const Hash256 master =
        DeriveKey(ByteView(seed_bytes.data(), seed_bytes.size()), "suite-master", ByteView());
    for (uint32_t i = 0; i < num_parties_; ++i) {
      Bytes ctx(4);
      for (int b = 0; b < 4; ++b) {
        ctx[static_cast<size_t>(b)] = static_cast<uint8_t>(i >> (8 * b));
      }
      hmac_keys_.push_back(DeriveKey(ByteView(master.data(), master.size()), "party-key",
                                     ByteView(ctx.data(), ctx.size())));
      hmac_scheds_.emplace_back(ByteView(hmac_keys_.back().data(), kHmacTagSize));
    }
  }
}

Signature CryptoSuite::Sign(uint32_t signer, ByteView msg) const {
  ACHILLES_CHECK(signer < num_parties_);
  Signature sig;
  sig.signer = signer;
  if (scheme_ == SignatureScheme::kSchnorr) {
    sig.blob = SchnorrSign(schnorr_keys_[signer], msg);
  } else {
    const Hash256 tag = hmac_scheds_[signer].Mac(msg);
    sig.blob.assign(tag.begin(), tag.end());
    sig.blob.resize(kModeledSigSize, 0);  // Pad to the modeled ECDSA wire size.
  }
  return sig;
}

bool CryptoSuite::Verify(const Signature& sig, ByteView msg) const {
  if (MemoHit(sig, msg)) {
    return true;
  }
  if (!VerifyUncached(sig, msg)) {
    return false;
  }
  MemoStore(sig, msg);
  return true;
}

bool CryptoSuite::VerifyQuorum(const std::vector<Signature>& sigs, ByteView msg,
                               size_t quorum) const {
  if (sigs.size() < quorum) {
    return false;
  }
  std::vector<bool> seen(num_parties_, false);
  for (const Signature& sig : sigs) {
    if (sig.signer >= num_parties_ || seen[sig.signer]) {
      return false;
    }
    seen[sig.signer] = true;
  }
  if (scheme_ == SignatureScheme::kSchnorr && sigs.size() > 1) {
    // Quorum certificates are all-or-nothing: one batched check over the whole set
    // replaces per-signature verification (same accept/reject decision).
    std::vector<SchnorrBatchInput> batch;
    batch.reserve(sigs.size());
    for (const Signature& sig : sigs) {
      batch.push_back(SchnorrBatchInput{&schnorr_keys_[sig.signer].pub, msg,
                                        ByteView(sig.blob.data(), sig.blob.size())});
    }
    return SchnorrBatchVerify(batch).all_valid;
  }
  for (const Signature& sig : sigs) {
    if (!Verify(sig, msg)) {
      return false;
    }
  }
  return sigs.size() >= quorum;
}

size_t CryptoSuite::MemoSlotOf(const Bytes& blob) {
  ACHILLES_CHECK(blob.size() >= kMemoIndexOffset + sizeof(uint64_t));
  uint64_t bits;
  std::memcpy(&bits, blob.data() + kMemoIndexOffset, sizeof(bits));
  return static_cast<size_t>(bits % kMemoSlots);
}

bool CryptoSuite::VerifyUncached(const Signature& sig, ByteView msg) const {
  if (sig.signer >= num_parties_) {
    return false;
  }
  if (scheme_ == SignatureScheme::kSchnorr) {
    return SchnorrVerify(schnorr_keys_[sig.signer].pub, msg,
                         ByteView(sig.blob.data(), sig.blob.size()));
  }
  if (sig.blob.size() != kModeledSigSize ||
      !std::all_of(sig.blob.begin() + kHmacTagSize, sig.blob.end(),
                   [](uint8_t b) { return b == 0; })) {
    return false;
  }
  const Hash256 tag = hmac_scheds_[sig.signer].Mac(msg);
  return ConstantTimeEqual(ByteView(sig.blob.data(), kHmacTagSize),
                           ByteView(tag.data(), tag.size()));
}

bool CryptoSuite::MemoHit(const Signature& sig, ByteView msg) const {
  if (memo_.empty() || !Memoisable(sig.blob, msg)) {
    return false;
  }
  const MemoSlot& slot = memo_[MemoSlotOf(sig.blob)];
  return slot.blob_len == sig.blob.size() && slot.signer == sig.signer &&
         slot.msg_len == msg.size() &&
         std::equal(sig.blob.begin(), sig.blob.end(), slot.blob.begin()) &&
         std::equal(msg.begin(), msg.end(), slot.msg.begin());
}

void CryptoSuite::MemoStore(const Signature& sig, ByteView msg) const {
  if (!Memoisable(sig.blob, msg)) {
    return;
  }
  if (memo_.empty()) {
    memo_.resize(kMemoSlots);
  }
  MemoSlot& slot = memo_[MemoSlotOf(sig.blob)];
  slot.signer = sig.signer;
  slot.blob_len = static_cast<uint8_t>(sig.blob.size());
  slot.msg_len = static_cast<uint8_t>(msg.size());
  std::copy(sig.blob.begin(), sig.blob.end(), slot.blob.begin());
  std::copy(msg.begin(), msg.end(), slot.msg.begin());
}

const AffinePoint& CryptoSuite::PublicKey(uint32_t party) const {
  ACHILLES_CHECK(scheme_ == SignatureScheme::kSchnorr && party < num_parties_);
  return schnorr_keys_[party].pub;
}

}  // namespace achilles
