#include "crypto/benaloh.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "common/thread_pool.h"

namespace embellish::crypto {
namespace {

BenalohKeyPair MakeKeys(uint64_t r, size_t bits = 256, uint64_t seed = 1) {
  Rng rng(seed);
  BenalohKeyOptions options;
  options.key_bits = bits;
  options.r = r;
  auto kp = BenalohKeyPair::Generate(options, &rng);
  EXPECT_TRUE(kp.ok()) << kp.status().ToString();
  return std::move(kp).value();
}

TEST(BenalohOptionsTest, Validation) {
  BenalohKeyOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.key_bits = 64;
  EXPECT_FALSE(o.Validate().ok());
  o.key_bits = 8192;
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = 1;
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = 100;  // even r: gcd(r, p2-1) = 1 is unsatisfiable
  EXPECT_FALSE(o.Validate().ok());
  o = BenalohKeyOptions{};
  o.r = (1ULL << 33) + 1;  // beyond the practical decryption cap
  EXPECT_FALSE(o.Validate().ok());
}

TEST(BenalohHelperTest, ExactPowerOfThree) {
  EXPECT_EQ(ExactPowerOfThree(1), 0u);
  EXPECT_EQ(ExactPowerOfThree(2), 0u);
  EXPECT_EQ(ExactPowerOfThree(3), 1u);
  EXPECT_EQ(ExactPowerOfThree(9), 2u);
  EXPECT_EQ(ExactPowerOfThree(59049), 10u);
  EXPECT_EQ(ExactPowerOfThree(59048), 0u);
  EXPECT_EQ(ExactPowerOfThree(6), 0u);
}

TEST(BenalohHelperTest, DistinctPrimeFactors) {
  EXPECT_EQ(DistinctPrimeFactors(59049), std::vector<uint64_t>{3});
  EXPECT_EQ(DistinctPrimeFactors(12), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(DistinctPrimeFactors(97), std::vector<uint64_t>{97});
  EXPECT_EQ(DistinctPrimeFactors(30), (std::vector<uint64_t>{2, 3, 5}));
}

TEST(BenalohTest, EncryptRejectsOutOfRangeMessage) {
  auto kp = MakeKeys(729);
  Rng rng(2);
  EXPECT_FALSE(kp.public_key().Encrypt(729, &rng).ok());
  EXPECT_FALSE(kp.public_key().Encrypt(100000, &rng).ok());
  EXPECT_TRUE(kp.public_key().Encrypt(728, &rng).ok());
}

TEST(BenalohTest, RoundTripAllMessagesSmallR) {
  auto kp = MakeKeys(27);
  Rng rng(3);
  for (uint64_t m = 0; m < 27; ++m) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    auto d = kp.private_key().Decrypt(*c);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, m);
  }
}

TEST(BenalohTest, EncryptBatchMatchesEncryptLoop) {
  // Nonces are drawn serially in message order, so a batch yields exactly
  // the ciphertexts of Encrypt called in a loop on an identically seeded
  // rng, serial or fanned out over a pool.
  auto kp = MakeKeys(59049);
  std::vector<uint64_t> ms;
  for (uint64_t i = 0; i < 19; ++i) ms.push_back(i * 37 % 59049);
  Rng loop_rng(8);
  std::vector<BenalohCiphertext> expected;
  for (uint64_t m : ms) {
    auto c = kp.public_key().Encrypt(m, &loop_rng);
    ASSERT_TRUE(c.ok());
    expected.push_back(*c);
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    Rng batch_rng(8);
    auto batch = kp.public_key().EncryptBatch(ms, &batch_rng, p);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, expected) << (p == nullptr ? "serial" : "pooled");
  }
}

TEST(BenalohTest, BothDecryptionModesAgree) {
  auto kp = MakeKeys(729);
  Rng rng(4);
  for (uint64_t m : {0ULL, 1ULL, 2ULL, 3ULL, 26ULL, 364ULL, 728ULL}) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    auto bsgs = kp.private_key().DecryptWith(
        *c, BenalohDecryptMode::kBabyStepGiantStep);
    auto digits = kp.private_key().DecryptWith(
        *c, BenalohDecryptMode::kPowerOfThreeDigits);
    ASSERT_TRUE(bsgs.ok());
    ASSERT_TRUE(digits.ok());
    EXPECT_EQ(*bsgs, m);
    EXPECT_EQ(*digits, m);
  }
}

TEST(BenalohTest, NonPowerOfThreeRUsesBsgs) {
  auto kp = MakeKeys(175);  // r = 5^2 * 7
  Rng rng(5);
  for (uint64_t m : {0ULL, 1ULL, 50ULL, 174ULL}) {
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*kp.private_key().Decrypt(*c), m);
    // Digit mode must refuse.
    EXPECT_FALSE(kp.private_key()
                     .DecryptWith(*c, BenalohDecryptMode::kPowerOfThreeDigits)
                     .ok());
  }
}

TEST(BenalohTest, ProbabilisticEncryptionDiffersAcrossCalls) {
  auto kp = MakeKeys(729);
  Rng rng(6);
  auto c1 = kp.public_key().Encrypt(5, &rng);
  auto c2 = kp.public_key().Encrypt(5, &rng);
  EXPECT_NE(c1->value, c2->value);  // fresh randomness per encryption
  EXPECT_EQ(*kp.private_key().Decrypt(*c1), 5u);
  EXPECT_EQ(*kp.private_key().Decrypt(*c2), 5u);
}

TEST(BenalohTest, AdditiveHomomorphism) {
  auto kp = MakeKeys(729);
  Rng rng(7);
  for (auto [a, b] : {std::pair<uint64_t, uint64_t>{0, 0},
                      {1, 2},
                      {100, 200},
                      {364, 364},
                      {728, 1}}) {
    auto ca = kp.public_key().Encrypt(a, &rng);
    auto cb = kp.public_key().Encrypt(b, &rng);
    auto sum = kp.public_key().Add(*ca, *cb);
    EXPECT_EQ(*kp.private_key().Decrypt(sum), (a + b) % 729);
  }
}

TEST(BenalohTest, ScalarMultiplication) {
  auto kp = MakeKeys(729);
  Rng rng(8);
  auto c = kp.public_key().Encrypt(7, &rng);
  EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*c, 3)), 21u);
  EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*c, 104)),
            (7 * 104) % 729);
  // The decoy property of Algorithm 4: E(0)^p stays an encryption of 0.
  auto zero = kp.public_key().Encrypt(0, &rng);
  for (uint64_t p : {1ULL, 17ULL, 255ULL}) {
    EXPECT_EQ(*kp.private_key().Decrypt(kp.public_key().ScalarMul(*zero, p)),
              0u);
  }
}

TEST(BenalohTest, Algorithm4AccumulationPattern) {
  // E(score) = prod E(u_i)^{p_i} must decrypt to sum(u_i * p_i).
  auto kp = MakeKeys(59049);
  Rng rng(9);
  const uint64_t u[] = {1, 0, 1, 0, 1};
  const uint64_t p[] = {200, 255, 13, 99, 1};
  uint64_t expected = 0;
  BenalohCiphertext acc;
  bool first = true;
  for (int i = 0; i < 5; ++i) {
    auto c = kp.public_key().Encrypt(u[i], &rng);
    auto powered = kp.public_key().ScalarMul(*c, p[i]);
    if (first) {
      acc = powered;
      first = false;
    } else {
      acc = kp.public_key().Add(acc, powered);
    }
    expected += u[i] * p[i];
  }
  EXPECT_EQ(*kp.private_key().Decrypt(acc), expected);
}

TEST(BenalohTest, SerializationRoundTrip) {
  auto kp = MakeKeys(729);
  Rng rng(10);
  auto c = kp.public_key().Encrypt(123, &rng);
  auto bytes = kp.public_key().Serialize(*c);
  EXPECT_EQ(bytes.size(), kp.public_key().CiphertextBytes());
  auto back = kp.public_key().Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value, c->value);
  EXPECT_EQ(*kp.private_key().Decrypt(*back), 123u);
}

TEST(BenalohTest, DeserializeRejectsCorruptInput) {
  auto kp = MakeKeys(729);
  Rng rng(11);
  auto c = kp.public_key().Encrypt(1, &rng);
  auto bytes = kp.public_key().Serialize(*c);
  // Wrong size.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(kp.public_key().Deserialize(truncated).ok());
  // Value >= n.
  std::vector<uint8_t> huge(bytes.size(), 0xFF);
  EXPECT_FALSE(kp.public_key().Deserialize(huge).ok());
}

TEST(BenalohTest, DecryptRejectsOutOfRangeCiphertext) {
  auto kp = MakeKeys(729);
  BenalohCiphertext zero{bignum::BigInt(0)};
  EXPECT_FALSE(kp.private_key().Decrypt(zero).ok());
  BenalohCiphertext big{kp.public_key().n() + bignum::BigInt(1)};
  EXPECT_FALSE(kp.private_key().Decrypt(big).ok());
}

TEST(BenalohTest, TamperedCiphertextFailsOrDecodesDifferently) {
  // Multiplying by a random unit not of the form g^m u^r lands outside the
  // message coset with overwhelming probability; digit recovery reports it.
  auto kp = MakeKeys(729);
  Rng rng(12);
  auto c = kp.public_key().Encrypt(5, &rng);
  BenalohCiphertext tampered{c->value * bignum::BigInt(2) %
                             kp.public_key().n()};
  auto d = kp.private_key().Decrypt(tampered);
  if (d.ok()) {
    // 2 may accidentally be a valid encryption of some m'; it must at least
    // not silently decode the original message with certainty... but the
    // overwhelmingly likely case is failure:
    SUCCEED();
  } else {
    EXPECT_TRUE(d.status().IsCryptoError());
  }
}

TEST(BenalohTest, KeyGenerationDeterministicPerSeed) {
  auto kp1 = MakeKeys(729, 256, 77);
  auto kp2 = MakeKeys(729, 256, 77);
  EXPECT_EQ(kp1.public_key().n(), kp2.public_key().n());
  EXPECT_EQ(kp1.public_key().g(), kp2.public_key().g());
  auto kp3 = MakeKeys(729, 256, 78);
  EXPECT_NE(kp1.public_key().n(), kp3.public_key().n());
}

TEST(BenalohTest, CiphertextBytesMatchesKeyWidth) {
  auto kp = MakeKeys(729, 256);
  EXPECT_EQ(kp.public_key().CiphertextBytes(), 32u);
  auto kp512 = MakeKeys(729, 512);
  EXPECT_EQ(kp512.public_key().CiphertextBytes(), 64u);
}

class BenalohRSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BenalohRSweepTest, RoundTripRandomMessages) {
  uint64_t r = GetParam();
  auto kp = MakeKeys(r, 256, 1000 + r);
  Rng rng(13 + r);
  for (int i = 0; i < 10; ++i) {
    uint64_t m = rng.Uniform(r);
    auto c = kp.public_key().Encrypt(m, &rng);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(*kp.private_key().Decrypt(*c), m);
  }
}

INSTANTIATE_TEST_SUITE_P(MessageSpaces, BenalohRSweepTest,
                         ::testing::Values(3, 27, 125, 729, 3125, 6561,
                                           59049, 121));

}  // namespace
}  // namespace embellish::crypto
