#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "common/thread_pool.h"
#include "crypto/benaloh.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

PaillierKeyPair MakeKeys(size_t bits = 256, uint64_t seed = 1) {
  Rng rng(seed);
  auto kp = PaillierKeyPair::Generate(bits, &rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  return std::move(kp).value();
}

TEST(PaillierTest, RejectsBadKeyBits) {
  Rng rng(1);
  EXPECT_FALSE(PaillierKeyPair::Generate(64, &rng).ok());
  EXPECT_FALSE(PaillierKeyPair::Generate(8192, &rng).ok());
}

TEST(PaillierTest, RoundTripSmallMessages) {
  auto kp = MakeKeys();
  Rng rng(2);
  for (uint64_t m : {0ULL, 1ULL, 2ULL, 255ULL, 59049ULL, 1000000ULL}) {
    auto c = kp.public_key().Encrypt(BigInt(m), &rng);
    ASSERT_TRUE(c.ok());
    auto d = kp.private_key().Decrypt(*c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, BigInt(m));
  }
}

TEST(PaillierTest, RoundTripLargeMessages) {
  auto kp = MakeKeys();
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    BigInt m = bignum::RandomBelow(kp.public_key().n(), &rng);
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*kp.private_key().Decrypt(*c), m);
  }
}

TEST(PaillierTest, RejectsMessageGeqN) {
  auto kp = MakeKeys();
  Rng rng(4);
  EXPECT_FALSE(kp.public_key().Encrypt(kp.public_key().n(), &rng).ok());
}

TEST(PaillierTest, AdditiveHomomorphism) {
  auto kp = MakeKeys();
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    BigInt a = bignum::RandomBits(100, &rng);
    BigInt b = bignum::RandomBits(100, &rng);
    auto ca = kp.public_key().Encrypt(a, &rng);
    auto cb = kp.public_key().Encrypt(b, &rng);
    auto sum = kp.public_key().Add(*ca, *cb);
    EXPECT_EQ(*kp.private_key().Decrypt(sum), a + b);
  }
}

TEST(PaillierTest, ScalarMultiplication) {
  auto kp = MakeKeys();
  Rng rng(6);
  auto c = kp.public_key().Encrypt(BigInt(1234), &rng);
  auto scaled = kp.public_key().ScalarMul(*c, 1000);
  EXPECT_EQ(*kp.private_key().Decrypt(scaled), BigInt(1234000));
  auto zeroed = kp.public_key().ScalarMul(*c, 0);
  EXPECT_EQ(*kp.private_key().Decrypt(zeroed), BigInt(0));
}

TEST(PaillierTest, ProbabilisticCiphertexts) {
  auto kp = MakeKeys();
  Rng rng(7);
  auto c1 = kp.public_key().Encrypt(BigInt(9), &rng);
  auto c2 = kp.public_key().Encrypt(BigInt(9), &rng);
  EXPECT_NE(c1->value, c2->value);
}

TEST(PaillierTest, EncryptBatchMatchesEncryptLoop) {
  // Nonces are drawn serially in message order, so a batch yields exactly
  // the ciphertexts of Encrypt called in a loop on an identically seeded
  // rng, serial or fanned out over a pool.
  auto kp = MakeKeys();
  std::vector<BigInt> ms;
  for (uint64_t i = 0; i < 11; ++i) ms.push_back(BigInt(i * 1000003));
  Rng loop_rng(9);
  std::vector<PaillierCiphertext> expected;
  for (const BigInt& m : ms) {
    auto c = kp.public_key().Encrypt(m, &loop_rng);
    ASSERT_TRUE(c.ok());
    expected.push_back(*c);
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Rng batch_rng(9);
    auto batch = kp.public_key().EncryptBatch(ms, &batch_rng, p);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, expected) << (p == nullptr ? "serial" : "pooled");
  }
}

TEST(PaillierTest, CiphertextTwiceModulusWidth) {
  auto kp = MakeKeys(256);
  // n^2 is ~512 bits -> 64 bytes.
  EXPECT_GE(kp.public_key().CiphertextBytes(), 63u);
  EXPECT_LE(kp.public_key().CiphertextBytes(), 64u);
}

TEST(PaillierTest, BenalohCiphertextsAreSmaller) {
  // Appendix A.2's stated reason for choosing Benaloh: for the same modulus
  // width, Paillier ciphertexts are twice as large.
  Rng rng(8);
  auto paillier = MakeKeys(256, 9);
  BenalohKeyOptions bo;
  bo.key_bits = 256;
  bo.r = 729;
  auto benaloh = BenalohKeyPair::Generate(bo, &rng);
  ASSERT_TRUE(benaloh.ok());
  EXPECT_GT(paillier.public_key().CiphertextBytes(),
            benaloh->public_key().CiphertextBytes());
}

TEST(PaillierTest, DecryptRejectsNonUnit) {
  auto kp = MakeKeys();
  PaillierCiphertext bad{kp.public_key().n()};  // shares factor n with n^2
  EXPECT_FALSE(kp.private_key().Decrypt(bad).ok());
  PaillierCiphertext zero{BigInt(0)};
  EXPECT_FALSE(kp.private_key().Decrypt(zero).ok());
}

}  // namespace
}  // namespace embellish::crypto
