#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/crypto/hmac.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/secp256k1.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signer.h"
#include "src/crypto/uint256.h"

namespace achilles {
namespace {

// --- SHA-256 known-answer tests (FIPS 180-4 / NIST vectors) ---

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashToHex(Sha256Digest(ByteView())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashToHex(Sha256Digest(AsBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashToHex(Sha256Digest(
                AsBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(AsBytes(chunk));
  }
  EXPECT_EQ(HashToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(3);
  Bytes data;
  rng.Fill(data, 300);
  Sha256 h;
  h.Update(ByteView(data.data(), 100));
  h.Update(ByteView(data.data() + 100, 1));
  h.Update(ByteView(data.data() + 101, 199));
  EXPECT_EQ(h.Finish(), Sha256Digest(ByteView(data.data(), data.size())));
}

TEST(Sha256Test, ReusableAfterFinish) {
  Sha256 h;
  h.Update(AsBytes("abc"));
  const Hash256 first = h.Finish();
  h.Update(AsBytes("abc"));
  EXPECT_EQ(h.Finish(), first);
}

// --- HMAC-SHA-256 (RFC 4231) ---

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Hash256 tag = HmacSha256(ByteView(key.data(), key.size()), AsBytes("Hi There"));
  EXPECT_EQ(HashToHex(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Hash256 tag =
      HmacSha256(AsBytes("Jefe"), AsBytes("what do ya want for nothing?"));
  EXPECT_EQ(HashToHex(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3LongKeyHashing) {
  // Key longer than the block size must be hashed first (case 6 of RFC 4231).
  const Bytes key(131, 0xaa);
  const Hash256 tag = HmacSha256(ByteView(key.data(), key.size()),
                                 AsBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(HashToHex(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DeriveKeyDomainSeparation) {
  const Hash256 a = DeriveKey(AsBytes("seed"), "label-a", ByteView());
  const Hash256 b = DeriveKey(AsBytes("seed"), "label-b", ByteView());
  EXPECT_NE(a, b);
}

// --- UInt256 ---

TEST(UInt256Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    UInt256 v;
    for (auto& limb : v.limbs) {
      limb = rng.NextU64();
    }
    const Bytes be = v.ToBytesBE();
    EXPECT_EQ(UInt256::FromBytesBE(ByteView(be.data(), be.size())), v);
  }
}

TEST(UInt256Test, HexRoundTrip) {
  const UInt256 v = UInt256::FromHexStr("00000000000000000000000000000000000000000000000000000000deadbeef");
  EXPECT_EQ(v.limbs[0], 0xdeadbeefULL);
  EXPECT_EQ(v.ToHexStr(),
            "00000000000000000000000000000000000000000000000000000000deadbeef");
}

TEST(UInt256Test, AddSubInverse) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    UInt256 a, b;
    for (auto& limb : a.limbs) {
      limb = rng.NextU64();
    }
    for (auto& limb : b.limbs) {
      limb = rng.NextU64();
    }
    UInt256 sum, back;
    const uint64_t carry = AddWithCarry(a, b, sum);
    const uint64_t borrow = SubWithBorrow(sum, b, back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);  // Wrap on add implies wrap on sub.
  }
}

TEST(UInt256Test, CmpOrdering) {
  const UInt256 one = UInt256::FromU64(1);
  const UInt256 two = UInt256::FromU64(2);
  UInt256 big;
  big.limbs[3] = 1;
  EXPECT_EQ(Cmp(one, two), -1);
  EXPECT_EQ(Cmp(two, one), 1);
  EXPECT_EQ(Cmp(one, one), 0);
  EXPECT_EQ(Cmp(big, two), 1);
}

TEST(UInt256Test, MulModSmallValues) {
  const UInt256 m = UInt256::FromU64(1000000007ULL);
  const UInt256 a = UInt256::FromU64(123456789ULL);
  const UInt256 b = UInt256::FromU64(987654321ULL);
  // 123456789 * 987654321 mod 1000000007 = 259106859963578712 mod 1e9+7.
  const uint64_t expected =
      static_cast<uint64_t>((static_cast<unsigned __int128>(123456789ULL) * 987654321ULL) %
                            1000000007ULL);
  EXPECT_EQ(MulMod(a, b, m).limbs[0], expected);
}

TEST(UInt256Test, Mod512MatchesModularIdentity) {
  // (a * m + r) mod m == r for r < m.
  Rng rng(9);
  const UInt256 m = Secp256k1N();
  for (int i = 0; i < 20; ++i) {
    UInt256 r = UInt256::FromU64(rng.NextU64());
    const UInt256 a = UInt256::FromU64(rng.NextU64() % 1000);
    UInt512 prod = Mul256(a, m);
    // prod += r.
    unsigned __int128 carry = 0;
    for (int limb = 0; limb < 4; ++limb) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(prod[static_cast<size_t>(limb)]) + r.limbs[static_cast<size_t>(limb)] + carry;
      prod[static_cast<size_t>(limb)] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    for (int limb = 4; limb < 8 && carry; ++limb) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(prod[static_cast<size_t>(limb)]) + carry;
      prod[static_cast<size_t>(limb)] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    EXPECT_EQ(Mod512(prod, m), r);
  }
}

TEST(UInt256Test, BitLength) {
  EXPECT_EQ(UInt256{}.BitLength(), 0);
  EXPECT_EQ(UInt256::FromU64(1).BitLength(), 1);
  EXPECT_EQ(UInt256::FromU64(0x80).BitLength(), 8);
  UInt256 top;
  top.limbs[3] = 0x8000000000000000ULL;
  EXPECT_EQ(top.BitLength(), 256);
}

// --- secp256k1 ---

TEST(Secp256k1Test, GeneratorOnCurve) { EXPECT_TRUE(IsOnCurve(Secp256k1G())); }

TEST(Secp256k1Test, KnownDoubleG) {
  const AffinePoint two_g = ScalarMul(UInt256::FromU64(2), Secp256k1G());
  EXPECT_EQ(two_g.x.ToHexStr(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_TRUE(IsOnCurve(two_g));
}

TEST(Secp256k1Test, DoubleMatchesAdd) {
  const JacobianPoint g = JacobianPoint::FromAffine(Secp256k1G());
  const AffinePoint doubled = ToAffine(PointDouble(g));
  const AffinePoint added = ToAffine(PointAdd(g, g));
  EXPECT_EQ(doubled, added);
}

TEST(Secp256k1Test, OrderTimesGIsInfinity) {
  EXPECT_TRUE(ScalarMul(Secp256k1N(), Secp256k1G()).infinity);
}

TEST(Secp256k1Test, OrderMinusOneIsNegation) {
  UInt256 n_minus_1;
  SubWithBorrow(Secp256k1N(), UInt256::FromU64(1), n_minus_1);
  const AffinePoint p = ScalarMul(n_minus_1, Secp256k1G());
  EXPECT_EQ(p.x, Secp256k1G().x);
  EXPECT_EQ(p.y, FieldNeg(Secp256k1G().y));
}

TEST(Secp256k1Test, ScalarMulDistributive) {
  Rng rng(21);
  for (int i = 0; i < 4; ++i) {
    const UInt256 a = UInt256::FromU64(rng.NextU64());
    const UInt256 b = UInt256::FromU64(rng.NextU64());
    const UInt256 sum = AddMod(a, b, Secp256k1N());
    const AffinePoint lhs = ScalarMulBase(sum);
    const JacobianPoint rhs_j =
        PointAddMixed(JacobianPoint::FromAffine(ScalarMulBase(a)), ScalarMulBase(b));
    EXPECT_EQ(lhs, ToAffine(rhs_j));
  }
}

TEST(Secp256k1Test, FieldInverse) {
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    UInt256 a = UInt256::FromU64(rng.NextU64() | 1);
    a.limbs[2] = rng.NextU64();
    const UInt256 inv = FieldInv(a);
    EXPECT_EQ(FieldMul(a, inv), UInt256::FromU64(1));
  }
}

TEST(Secp256k1Test, PointEncodeDecodeRoundTrip) {
  const AffinePoint p = ScalarMulBase(UInt256::FromU64(777));
  const Bytes enc = EncodePoint(p);
  AffinePoint out;
  ASSERT_TRUE(DecodePoint(ByteView(enc.data(), enc.size()), out));
  EXPECT_EQ(out, p);
}

TEST(Secp256k1Test, DecodeRejectsOffCurve) {
  Bytes enc(64, 0);
  enc[0] = 1;  // x=2^248-ish, y=0: not on curve.
  AffinePoint out;
  EXPECT_FALSE(DecodePoint(ByteView(enc.data(), enc.size()), out));
}

TEST(Secp256k1Test, InfinityEncoding) {
  AffinePoint inf;
  const Bytes enc = EncodePoint(inf);
  AffinePoint out;
  ASSERT_TRUE(DecodePoint(ByteView(enc.data(), enc.size()), out));
  EXPECT_TRUE(out.infinity);
}

// --- Schnorr ---

TEST(SchnorrTest, SignVerifyRoundTrip) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0001"));
  const Bytes sig = SchnorrSign(key, AsBytes("the quick brown fox"));
  EXPECT_TRUE(SchnorrVerify(key.pub, AsBytes("the quick brown fox"),
                            ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsWrongMessage) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0002"));
  const Bytes sig = SchnorrSign(key, AsBytes("message A"));
  EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("message B"), ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsWrongKey) {
  const SchnorrKeyPair key1 = SchnorrKeyFromSeed(AsBytes("seed-material-0003"));
  const SchnorrKeyPair key2 = SchnorrKeyFromSeed(AsBytes("seed-material-0004"));
  const Bytes sig = SchnorrSign(key1, AsBytes("msg"));
  EXPECT_FALSE(SchnorrVerify(key2.pub, AsBytes("msg"), ByteView(sig.data(), sig.size())));
}

TEST(SchnorrTest, RejectsTamperedSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0005"));
  Bytes sig = SchnorrSign(key, AsBytes("msg"));
  for (size_t pos : {0u, 63u, 64u, 95u}) {
    Bytes bad = sig;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("msg"), ByteView(bad.data(), bad.size())))
        << "tampered byte " << pos;
  }
}

TEST(SchnorrTest, RejectsTruncatedSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0006"));
  const Bytes sig = SchnorrSign(key, AsBytes("msg"));
  EXPECT_FALSE(SchnorrVerify(key.pub, AsBytes("msg"), ByteView(sig.data(), sig.size() - 1)));
}

TEST(SchnorrTest, DeterministicSignature) {
  const SchnorrKeyPair key = SchnorrKeyFromSeed(AsBytes("seed-material-0007"));
  EXPECT_EQ(SchnorrSign(key, AsBytes("m")), SchnorrSign(key, AsBytes("m")));
}

// --- CryptoSuite ---

class CryptoSuiteTest : public ::testing::TestWithParam<SignatureScheme> {};

TEST_P(CryptoSuiteTest, SignVerify) {
  CryptoSuite suite(GetParam(), 5, 1234);
  for (uint32_t i = 0; i < 5; ++i) {
    const Signature sig = suite.Sign(i, AsBytes("payload"));
    EXPECT_EQ(sig.signer, i);
    EXPECT_TRUE(suite.Verify(sig, AsBytes("payload")));
    EXPECT_FALSE(suite.Verify(sig, AsBytes("other")));
  }
}

TEST_P(CryptoSuiteTest, RejectsForgedSignerId) {
  CryptoSuite suite(GetParam(), 5, 1234);
  Signature sig = suite.Sign(0, AsBytes("payload"));
  sig.signer = 1;  // Claim a different identity with node 0's blob.
  EXPECT_FALSE(suite.Verify(sig, AsBytes("payload")));
}

TEST_P(CryptoSuiteTest, RejectsOutOfRangeSigner) {
  CryptoSuite suite(GetParam(), 3, 1);
  Signature sig = suite.Sign(0, AsBytes("x"));
  sig.signer = 99;
  EXPECT_FALSE(suite.Verify(sig, AsBytes("x")));
}

TEST_P(CryptoSuiteTest, QuorumVerification) {
  CryptoSuite suite(GetParam(), 5, 77);
  std::vector<Signature> sigs;
  for (uint32_t i = 0; i < 3; ++i) {
    sigs.push_back(suite.Sign(i, AsBytes("q")));
  }
  EXPECT_TRUE(suite.VerifyQuorum(sigs, AsBytes("q"), 3));
  EXPECT_FALSE(suite.VerifyQuorum(sigs, AsBytes("q"), 4));  // Too few.

  std::vector<Signature> dup = sigs;
  dup[2] = dup[0];  // Duplicate signer must not count twice.
  EXPECT_FALSE(suite.VerifyQuorum(dup, AsBytes("q"), 3));
}

TEST_P(CryptoSuiteTest, SignatureWireSizeIsStable) {
  CryptoSuite suite(GetParam(), 2, 5);
  const Signature a = suite.Sign(0, AsBytes("a"));
  const Signature b = suite.Sign(1, AsBytes("some longer message body"));
  EXPECT_EQ(a.WireSize(), b.WireSize());
}

TEST_P(CryptoSuiteTest, RejectsTamperedPadding) {
  // Every byte past the first 32 is either fast-mode padding (which must be zero) or part of
  // a Schnorr signature: flipping any of them yields a blob that must not verify, before and
  // after the untouched blob has been memoised.
  CryptoSuite suite(GetParam(), 3, 9);
  const Signature sig = suite.Sign(1, AsBytes("padded"));
  for (bool memoised : {false, true}) {
    for (size_t i = 32; i < sig.blob.size(); ++i) {
      Signature bad = sig;
      bad.blob[i] ^= 0x01;
      EXPECT_FALSE(suite.Verify(bad, AsBytes("padded"))) << "byte " << i;
    }
    EXPECT_TRUE(suite.Verify(sig, AsBytes("padded"))) << memoised;
  }
}

// --- CryptoSuite verified-signature memo ---

}  // namespace

// Reads the memo's private layout; the public API stays Sign/Verify/VerifyQuorum.
struct CryptoSuiteTestPeer {
  static size_t MemoSlotOf(const Bytes& blob) { return CryptoSuite::MemoSlotOf(blob); }
  // Host bytes the memo holds: 0 until the first true answer, then fixed.
  static size_t MemoBytes(const CryptoSuite& suite) {
    return suite.memo_.capacity() * sizeof(CryptoSuite::MemoSlot);
  }
};

namespace {

using Peer = CryptoSuiteTestPeer;

Bytes MemoMsg(uint64_t i, size_t len = 40) {
  Bytes m(len, 0);
  for (size_t b = 0; b < len; ++b) {
    m[b] = static_cast<uint8_t>((i >> (8 * (b % 8))) + b);
  }
  return m;
}

ByteView View(const Bytes& b) { return ByteView(b.data(), b.size()); }

TEST_P(CryptoSuiteTest, MemoHitNeedsSameSignerBlobAndMessage) {
  CryptoSuite suite(GetParam(), 4, 21);
  const CryptoSuite fresh(GetParam(), 4, 21);
  const Bytes msg = MemoMsg(1);
  const Bytes other = MemoMsg(2);
  const Signature sig = suite.Sign(2, View(msg));
  ASSERT_TRUE(suite.Verify(sig, View(msg)));
  ASSERT_TRUE(suite.Verify(sig, View(msg)));  // Hit.

  Signature wrong_signer = sig;
  wrong_signer.signer = 3;
  Signature wrong_blob = sig;
  wrong_blob.blob[0] ^= 0x80;
  for (const auto& [s, m] : {std::pair{wrong_signer, msg}, std::pair{wrong_blob, msg},
                             std::pair{sig, other}}) {
    EXPECT_FALSE(suite.Verify(s, View(m)));
    EXPECT_EQ(suite.Verify(s, View(m)), fresh.Verify(s, View(m)));
  }
  // A second valid signature of the same message by another signer is its own entry.
  const Signature peer = suite.Sign(0, View(msg));
  EXPECT_TRUE(suite.Verify(peer, View(msg)));
  EXPECT_TRUE(suite.Verify(sig, View(msg)));
}

TEST_P(CryptoSuiteTest, ForgedBlobInValidSlotIsRejected) {
  CryptoSuite suite(GetParam(), 3, 5);
  const Bytes msg = MemoMsg(7);
  const Signature sig = suite.Sign(1, View(msg));
  ASSERT_TRUE(suite.Verify(sig, View(msg)));
  // Bytes outside the slot-index window leave the slot unchanged: the forgery lands on the
  // memoised valid triple and must still be rejected.
  for (size_t i : {size_t{0}, size_t{7}, size_t{16}, size_t{31}, sig.blob.size() - 1}) {
    Signature forged = sig;
    forged.blob[i] ^= 0x04;
    ASSERT_EQ(Peer::MemoSlotOf(forged.blob), Peer::MemoSlotOf(sig.blob));
    EXPECT_FALSE(suite.Verify(forged, View(msg))) << "byte " << i;
  }
  Signature longer = sig;  // Same prefix, one extra byte.
  longer.blob.push_back(0);
  EXPECT_FALSE(suite.Verify(longer, View(msg)));
  EXPECT_TRUE(suite.Verify(sig, View(msg)));
}

TEST_P(CryptoSuiteTest, SlotCollisionEvictionOnlyCostsARecompute) {
  CryptoSuite suite(GetParam(), 2, 33);
  // Sign distinct messages until two signatures share a slot (birthday bound: ~40 tries).
  std::vector<std::pair<Signature, Bytes>> seen(CryptoSuite::kMemoSlots);
  std::vector<bool> used(CryptoSuite::kMemoSlots, false);
  std::pair<Signature, Bytes> a;
  std::pair<Signature, Bytes> b;
  for (uint64_t i = 0;; ++i) {
    ASSERT_LT(i, 2000u);
    Bytes msg = MemoMsg(i);
    Signature sig = suite.Sign(static_cast<uint32_t>(i % 2), View(msg));
    const size_t slot = Peer::MemoSlotOf(sig.blob);
    if (used[slot]) {
      a = seen[slot];
      b = {std::move(sig), std::move(msg)};
      break;
    }
    used[slot] = true;
    seen[slot] = {std::move(sig), std::move(msg)};
  }
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(suite.Verify(a.first, View(a.second)));
    EXPECT_TRUE(suite.Verify(b.first, View(b.second)));  // Evicts a.
    EXPECT_FALSE(suite.Verify(a.first, View(b.second)));
    EXPECT_FALSE(suite.Verify(b.first, View(a.second)));
  }
}

TEST_P(CryptoSuiteTest, MemoFootprintIsFixed) {
  const bool schnorr = GetParam() == SignatureScheme::kSchnorr;
  CryptoSuite suite(GetParam(), 4, 44);
  const Signature sig = suite.Sign(0, AsBytes("m"));
  EXPECT_EQ(Peer::MemoBytes(suite), 0u);  // Nothing allocated before a true answer.
  EXPECT_FALSE(suite.Verify(sig, AsBytes("x")));
  Signature bad0 = sig;
  bad0.blob[0] ^= 0x01;
  Signature bad1 = sig;
  bad1.signer = 1;
  EXPECT_FALSE(suite.VerifyQuorum({bad0, bad1}, AsBytes("m"), 2));
  EXPECT_EQ(Peer::MemoBytes(suite), 0u);
  // Messages over the cap always recompute and are never stored.
  const Bytes long_msg = MemoMsg(3, CryptoSuite::kMemoMaxMsg + 1);
  const Signature long_sig = suite.Sign(1, View(long_msg));
  EXPECT_TRUE(suite.Verify(long_sig, View(long_msg)));
  EXPECT_TRUE(suite.Verify(long_sig, View(long_msg)));
  EXPECT_EQ(Peer::MemoBytes(suite), 0u);

  EXPECT_TRUE(suite.Verify(sig, AsBytes("m")));
  const size_t footprint = Peer::MemoBytes(suite);
  EXPECT_GT(footprint, 0u);
  EXPECT_LE(footprint, 256u * 1024);
  const uint64_t distinct = schnorr ? 300 : 100000;
  for (uint64_t i = 0; i < distinct; ++i) {
    const Bytes msg = MemoMsg(i);
    ASSERT_TRUE(suite.Verify(suite.Sign(static_cast<uint32_t>(i % 4), View(msg)), View(msg)));
  }
  EXPECT_EQ(Peer::MemoBytes(suite), footprint);
  EXPECT_TRUE(suite.Verify(sig, AsBytes("m")));
}

// Random Verify / VerifyQuorum traffic over valid, replayed and tampered inputs, each
// answer checked against a freshly constructed suite of the same (scheme, n, seed): a fresh
// suite has an empty memo, so it answers as if no memo existed. Signing is deterministic and
// the message pool is small, so (signer, message) pairs recur and later checks hit the memo.
TEST_P(CryptoSuiteTest, MemoDifferentialFuzzAgainstFreshSuite) {
  const bool schnorr = GetParam() == SignatureScheme::kSchnorr;
  const uint64_t seeds = schnorr ? 2 : 20;
  const int ops = schnorr ? 150 : 5000;
  constexpr uint32_t kParties = 5;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    CryptoSuite suite(GetParam(), kParties, seed);
    std::vector<Bytes> msgs;
    for (size_t i = 0; i < 6; ++i) {
      Bytes m;
      rng.Fill(m, 24 + 16 * (i / 2));  // Pairs of equal length.
      msgs.push_back(std::move(m));
    }
    Bytes over_cap;  // Never memoised.
    rng.Fill(over_cap, CryptoSuite::kMemoMaxMsg + 1);
    msgs.push_back(std::move(over_cap));
    auto pick_msg = [&] { return static_cast<size_t>(rng.UniformU64(msgs.size())); };
    auto pick_signer = [&] { return static_cast<uint32_t>(rng.UniformU64(kParties)); };
    auto flip = [&](Signature& sig, size_t lo, size_t hi) {
      sig.blob[lo + rng.UniformU64(hi - lo)] ^= static_cast<uint8_t>(1u << rng.UniformU64(8));
    };

    for (int op = 0; op < ops; ++op) {
      const CryptoSuite fresh(GetParam(), kParties, seed);
      const size_t m = pick_msg();
      const uint32_t signer = pick_signer();
      Signature sig = suite.Sign(signer, View(msgs[m]));
      size_t verify_msg = m;
      const uint64_t kind = rng.UniformU64(9);
      if (kind == 8) {
        // Quorum over msgs[m] from a random set of signers, possibly broken.
        std::vector<Signature> sigs;
        for (uint32_t p = 0; p < kParties; ++p) {
          if (rng.Chance(0.7)) {
            sigs.push_back(suite.Sign(p, View(msgs[m])));
          }
        }
        if (!sigs.empty()) {
          const size_t j = rng.UniformU64(sigs.size());
          switch (rng.UniformU64(5)) {
            case 0:  // Duplicated signer.
              sigs.push_back(sigs[j]);
              break;
            case 1:  // One tampered blob.
              flip(sigs[j], 0, sigs[j].blob.size());
              break;
            case 2:  // One signature over another message.
              sigs[j] = suite.Sign(sigs[j].signer, View(msgs[(m + 1) % msgs.size()]));
              break;
            default:  // Valid.
              break;
          }
        }
        const size_t quorum = rng.UniformU64(kParties + 2);
        ASSERT_EQ(suite.VerifyQuorum(sigs, View(msgs[m]), quorum),
                  fresh.VerifyQuorum(sigs, View(msgs[m]), quorum))
            << "seed " << seed << " op " << op << " quorum";
        continue;
      }
      switch (kind) {
        case 2:  // Cross-signer: another party claims the blob.
          sig.signer = (signer + 1 + static_cast<uint32_t>(rng.UniformU64(kParties - 1))) %
                       kParties;
          break;
        case 3:  // Message swap.
          verify_msg = (m + 1 + rng.UniformU64(msgs.size() - 1)) % msgs.size();
          break;
        case 4:  // Padding (fast mode) / second half of the blob.
          flip(sig, 32, sig.blob.size());
          break;
        case 5:  // Tag / first 32 bytes.
          flip(sig, 0, 32);
          break;
        case 6:  // Truncated or extended blob.
          if (rng.Chance(0.5)) {
            sig.blob.resize(rng.UniformU64(sig.blob.size()));
          } else {
            sig.blob.push_back(0);
          }
          break;
        case 7:  // Out-of-range signer.
          sig.signer = kParties + static_cast<uint32_t>(rng.UniformU64(3));
          break;
        default:  // Valid, and replayed once the pair recurs.
          break;
      }
      ASSERT_EQ(suite.Verify(sig, View(msgs[verify_msg])),
                fresh.Verify(sig, View(msgs[verify_msg])))
          << "seed " << seed << " op " << op << " kind " << kind;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CryptoSuiteTest,
                         ::testing::Values(SignatureScheme::kSchnorr,
                                           SignatureScheme::kFastHmac));

// --- Hardware SHA-256 vs portable differential ---

TEST(Sha256HardwareTest, HardwareMatchesPortableOnRandomInputs) {
  // When the CPU has SHA-NI the default path uses it; the portable compressor is always
  // available. Both must agree byte-for-byte on every length (empty, sub-block, block
  // boundary, multi-block, and ragged tails).
  Rng rng(0xd1f);
  for (size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u, 10000u}) {
    Bytes data(len);
    for (uint8_t& byte : data) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    const ByteView view(data.data(), data.size());
    EXPECT_EQ(HashToHex(Sha256Digest(view)), HashToHex(Sha256DigestPortable(view)))
        << "len " << len << " hw=" << Sha256UsesHardware();
  }
}

TEST(Sha256HardwareTest, IncrementalChunkingAgreesAcrossImplementations) {
  Rng rng(0xfeed);
  Bytes data(3000);
  for (uint8_t& byte : data) {
    byte = static_cast<uint8_t>(rng.UniformU64(256));
  }
  Sha256 fast;
  Sha256 slow;
  slow.ForcePortable();
  size_t off = 0;
  while (off < data.size()) {  // Ragged chunk sizes stress the buffered-tail logic.
    const size_t chunk = std::min<size_t>(1 + rng.UniformU64(200), data.size() - off);
    fast.Update(ByteView(data.data() + off, chunk));
    slow.Update(ByteView(data.data() + off, chunk));
    off += chunk;
  }
  EXPECT_EQ(HashToHex(fast.Finish()), HashToHex(slow.Finish()));
}

// --- HMAC key-schedule caching ---

TEST(HmacTest, HmacKeyMatchesOneShotHmac) {
  const Bytes key = {0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b, 0x0b};
  const HmacKey sched(ByteView(key.data(), key.size()));
  for (const char* msg : {"", "Hi There", "a longer message spanning more than one block "
                              "of the underlying compression function, padded out"}) {
    EXPECT_EQ(HashToHex(sched.Mac(AsBytes(msg))),
              HashToHex(HmacSha256(ByteView(key.data(), key.size()), AsBytes(msg))));
  }
}

TEST(HmacTest, HmacKeyReusableAcrossMessages) {
  const HmacKey sched(AsBytes("shared-session-key"));
  const Hash256 first = sched.Mac(AsBytes("message 1"));
  (void)sched.Mac(AsBytes("message 2"));  // Interleaved use must not corrupt the schedule.
  EXPECT_EQ(HashToHex(first), HashToHex(sched.Mac(AsBytes("message 1"))));
}

// --- Multi-scalar multiplication (Pippenger) ---

TEST(Secp256k1Test, MultiScalarMulMatchesNaiveSum) {
  Rng rng(99);
  std::vector<UInt256> scalars;
  std::vector<AffinePoint> points;
  JacobianPoint naive = JacobianPoint::Infinity();
  for (int i = 0; i < 8; ++i) {
    uint8_t seed[32] = {};
    for (auto& byte : seed) {
      byte = static_cast<uint8_t>(rng.UniformU64(256));
    }
    const SchnorrKeyPair key = SchnorrKeyFromSeed(ByteView(seed, sizeof(seed)));
    UInt256 k = UInt256::FromU64(rng.UniformU64(UINT64_MAX));
    scalars.push_back(k);
    points.push_back(key.pub);
    naive = PointAddMixed(naive, ScalarMul(k, key.pub));
  }
  const AffinePoint expect = ToAffine(naive);
  const AffinePoint got = ToAffine(MultiScalarMul(scalars, points));
  EXPECT_TRUE(expect == got);
}

TEST(Secp256k1Test, MultiScalarMulHandlesZeroScalarsAndInfinity) {
  std::vector<UInt256> scalars = {UInt256::FromU64(0), UInt256::FromU64(5)};
  std::vector<AffinePoint> points = {Secp256k1G(), AffinePoint{}};
  const AffinePoint got = ToAffine(MultiScalarMul(scalars, points));
  EXPECT_TRUE(got.infinity);  // 0*G + 5*infinity = infinity.
}

// --- Schnorr batch verification ---

std::vector<SchnorrKeyPair> BatchKeys(size_t count) {
  std::vector<SchnorrKeyPair> keys;
  for (size_t i = 0; i < count; ++i) {
    const std::string seed = "batch-seed-" + std::to_string(i);
    keys.push_back(SchnorrKeyFromSeed(AsBytes(seed)));
  }
  return keys;
}

TEST(SchnorrBatchTest, AllValidBatchAccepts) {
  const auto keys = BatchKeys(7);
  std::vector<Bytes> sigs;
  std::vector<std::string> msgs;
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    msgs.push_back("batch message " + std::to_string(i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
    batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_TRUE(result.all_valid);
  EXPECT_EQ(result.first_bad, -1);
}

TEST(SchnorrBatchTest, EmptyAndSingletonBatches) {
  EXPECT_TRUE(SchnorrBatchVerify({}).all_valid);

  const auto keys = BatchKeys(1);
  const Bytes sig = SchnorrSign(keys[0], AsBytes("solo"));
  std::vector<SchnorrBatchInput> batch = {
      {&keys[0].pub, AsBytes("solo"), ByteView(sig.data(), sig.size())}};
  EXPECT_TRUE(SchnorrBatchVerify(batch).all_valid);
}

TEST(SchnorrBatchTest, OneBadSignatureIsRejectedAndIdentified) {
  const auto keys = BatchKeys(6);
  std::vector<Bytes> sigs;
  std::vector<std::string> msgs;
  for (size_t i = 0; i < keys.size(); ++i) {
    msgs.push_back("victim message " + std::to_string(i));
    sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
  }
  sigs[3][95] ^= 0x01;  // Corrupt one byte of s in the fourth signature.
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 3);  // The scalar fallback pinpoints the culprit.
}

TEST(SchnorrBatchTest, WrongMessageInBatchRejects) {
  const auto keys = BatchKeys(4);
  std::vector<Bytes> sigs;
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes("honest message")));
  }
  std::vector<SchnorrBatchInput> batch;
  const std::string forged = "forged message";
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, i == 1 ? AsBytes(forged) : AsBytes("honest message"),
                     ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 1);
}

TEST(SchnorrBatchTest, SwappedSignaturesDoNotCancel) {
  // Two individually valid signatures attached to each other's slots: the deterministic
  // per-item weights make the linear combination reject the swap.
  const auto keys = BatchKeys(2);
  const Bytes sig_a = SchnorrSign(keys[0], AsBytes("message A"));
  const Bytes sig_b = SchnorrSign(keys[1], AsBytes("message B"));
  std::vector<SchnorrBatchInput> batch = {
      {&keys[0].pub, AsBytes("message A"), ByteView(sig_b.data(), sig_b.size())},
      {&keys[1].pub, AsBytes("message B"), ByteView(sig_a.data(), sig_a.size())},
  };
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 0);
}

TEST(SchnorrBatchTest, StructurallyInvalidSignatureFallsBack) {
  const auto keys = BatchKeys(3);
  std::vector<Bytes> sigs;
  for (size_t i = 0; i < keys.size(); ++i) {
    sigs.push_back(SchnorrSign(keys[i], AsBytes("m")));
  }
  sigs[2].resize(10);  // Truncated blob cannot even parse.
  std::vector<SchnorrBatchInput> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.push_back({&keys[i].pub, AsBytes("m"), ByteView(sigs[i].data(), sigs[i].size())});
  }
  const SchnorrBatchResult result = SchnorrBatchVerify(batch);
  EXPECT_FALSE(result.all_valid);
  EXPECT_EQ(result.first_bad, 2);
}

TEST(SchnorrBatchTest, BatchAgreesWithScalarVerifyOnRandomBatches) {
  Rng rng(0xbadc0de);
  for (int round = 0; round < 10; ++round) {
    const size_t m = 2 + rng.UniformU64(6);
    const auto keys = BatchKeys(m);
    std::vector<Bytes> sigs;
    std::vector<std::string> msgs;
    bool expect_valid = true;
    for (size_t i = 0; i < m; ++i) {
      msgs.push_back("round " + std::to_string(round) + " msg " + std::to_string(i));
      sigs.push_back(SchnorrSign(keys[i], AsBytes(msgs[i])));
    }
    if (rng.UniformU64(2) == 0) {  // Half the rounds corrupt one random signature.
      sigs[rng.UniformU64(m)][32 + rng.UniformU64(64)] ^= 0x80;
      expect_valid = false;
    }
    std::vector<SchnorrBatchInput> batch;
    for (size_t i = 0; i < m; ++i) {
      batch.push_back({&keys[i].pub, AsBytes(msgs[i]), ByteView(sigs[i].data(), sigs[i].size())});
    }
    bool scalar_valid = true;
    for (size_t i = 0; i < m; ++i) {
      scalar_valid = scalar_valid &&
                     SchnorrVerify(keys[i].pub, AsBytes(msgs[i]),
                                   ByteView(sigs[i].data(), sigs[i].size()));
    }
    EXPECT_EQ(scalar_valid, expect_valid) << "round " << round;
    EXPECT_EQ(SchnorrBatchVerify(batch).all_valid, scalar_valid) << "round " << round;
  }
}

}  // namespace
}  // namespace achilles
