// Signing suite shared by a cluster. Two interchangeable backends:
//  - kSchnorr:  the real secp256k1 Schnorr implementation (slow, used in crypto tests and the
//               calibration bench);
//  - kFastHmac: HMAC-SHA-256 tags under per-party keys held by the suite. Inside the closed
//               simulation this models an unforgeable signature (no simulated party can forge
//               without the suite), while keeping large runs fast. Wire size is modeled as an
//               ECDSA signature (64 B): the 32-byte tag followed by 32 zero bytes, and
//               `Verify` rejects any other padding, so each (signer, message) has exactly one
//               valid blob.
// Either way the *cost* of signing/verifying charged to simulated CPUs comes from the
// CostModel, not from host wall-clock, so the backend choice never changes measured results.
//
// Verified-signature memo. The simulator hands every replica the same message object, so
// one certificate is checked by all n replicas of a cluster. `Verify` keeps a fixed table
// of kMemoSlots slots, each holding the last (signer, blob, message) triple that verified
// true and whose blob folds to that slot; `VerifyQuorum` reaches it through `Verify`, except
// on the Schnorr batch path, which always recomputes. A check whose triple is
// byte-identical to its slot's answers true without recomputing; any other check computes
// as before and, only when the answer is true, overwrites the slot. Verification is a pure
// function of (keys, signer, message, blob) and the keys never change after construction,
// so every answer is the one a fresh suite would give. Negative answers are never stored,
// messages over kMemoMaxMsg bytes are not memoised, and the table is allocated on the first
// true answer and never grows. The memo is per instance and unsynchronised: a suite must be
// used from one thread at a time, as every Cluster already is.
#ifndef SRC_CRYPTO_SIGNER_H_
#define SRC_CRYPTO_SIGNER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/crypto/hmac.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace achilles {

enum class SignatureScheme {
  kSchnorr,
  kFastHmac,
};

struct Signature {
  uint32_t signer = 0;
  Bytes blob;

  // Bytes this signature occupies on the wire (id + blob).
  size_t WireSize() const { return 4 + blob.size(); }
  bool empty() const { return blob.empty(); }
};

class CryptoSuite {
 public:
  static constexpr size_t kMemoSlots = 1024;
  static constexpr size_t kMemoMaxMsg = 128;

  CryptoSuite(SignatureScheme scheme, uint32_t num_parties, uint64_t seed);

  SignatureScheme scheme() const { return scheme_; }
  uint32_t num_parties() const { return num_parties_; }

  Signature Sign(uint32_t signer, ByteView msg) const;
  bool Verify(const Signature& sig, ByteView msg) const;

  // Verifies a quorum of signatures over the same message: all valid, all signers distinct,
  // and at least `quorum` of them.
  bool VerifyQuorum(const std::vector<Signature>& sigs, ByteView msg, size_t quorum) const;

  const AffinePoint& PublicKey(uint32_t party) const;

 private:
  friend struct CryptoSuiteTestPeer;  // Reads the memo layout in tests.

  struct MemoSlot {
    uint32_t signer = 0;
    uint8_t blob_len = 0;  // 0 marks an empty slot.
    uint8_t msg_len = 0;
    std::array<uint8_t, kSchnorrSignatureSize> blob{};
    std::array<uint8_t, kMemoMaxMsg> msg{};
  };

  // Memo slot a blob folds to: blob bytes [8, 16), which are uniform under both schemes
  // (HMAC tag bytes; the x-coordinate of Schnorr's nonce point). Requires 16+ bytes.
  static size_t MemoSlotOf(const Bytes& blob);
  bool VerifyUncached(const Signature& sig, ByteView msg) const;
  bool MemoHit(const Signature& sig, ByteView msg) const;
  void MemoStore(const Signature& sig, ByteView msg) const;

  SignatureScheme scheme_;
  uint32_t num_parties_;
  std::vector<SchnorrKeyPair> schnorr_keys_;  // kSchnorr only.
  std::vector<Hash256> hmac_keys_;            // kFastHmac only.
  std::vector<HmacKey> hmac_scheds_;          // kFastHmac only: precomputed key schedules.
  mutable std::vector<MemoSlot> memo_;        // kMemoSlots entries once allocated.
};

}  // namespace achilles

#endif  // SRC_CRYPTO_SIGNER_H_
