#include "crypto/pir.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bignum/modmath.h"
#include "common/cpuinfo.h"
#include "common/thread_pool.h"

namespace embellish::crypto {
namespace {

using bignum::BigInt;

std::shared_ptr<PirDatabase> RandomDatabase(size_t rows, size_t cols,
                                            uint64_t seed) {
  auto db = std::make_shared<PirDatabase>(rows, cols);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      db->SetBit(i, j, rng.Bernoulli(0.5));
    }
  }
  return db;
}

// The seed implementation of Answer, kept as the reference: one GetBit and
// one allocating MontMul per (row, column), one BigInt per row. Independent
// of the table path and of the flat answer layout.
std::vector<BigInt> AnswerSerialReference(const PirDatabase& db,
                                          const PirQuery& query) {
  auto mont_res = bignum::MontgomeryContext::Create(query.n);
  EXPECT_TRUE(mont_res.ok());
  const bignum::MontgomeryContext& mont = mont_res.value();
  const size_t cols = db.cols();
  std::vector<std::vector<uint64_t>> q_mont(cols);
  std::vector<std::vector<uint64_t>> q2_mont(cols);
  for (size_t j = 0; j < cols; ++j) {
    q_mont[j] = mont.ToMontgomery(query.q[j]);
    q2_mont[j] = mont.MontMul(q_mont[j], q_mont[j]);
  }
  std::vector<BigInt> gammas;
  for (size_t i = 0; i < db.rows(); ++i) {
    std::vector<uint64_t> acc = mont.One();
    for (size_t j = 0; j < cols; ++j) {
      acc = mont.MontMul(acc, db.GetBit(i, j) ? q_mont[j] : q2_mont[j]);
    }
    gammas.push_back(mont.FromMontgomery(acc));
  }
  return gammas;
}

// Fails unless `response` holds exactly the reference residues, row by row,
// at the modulus's byte width.
void ExpectMatchesReference(const PirDatabase& db, const PirQuery& query,
                            const PirResponse& response) {
  const std::vector<BigInt> reference = AnswerSerialReference(db, query);
  ASSERT_EQ(response.value_size, (query.n.BitLength() + 7) / 8);
  ASSERT_EQ(response.rows(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(response.Value(i), reference[i]) << "diverged at row " << i;
  }
}

TEST(PirDatabaseTest, BitAccessors) {
  PirDatabase db(10, 3);
  EXPECT_FALSE(db.GetBit(4, 1));
  db.SetBit(4, 1, true);
  EXPECT_TRUE(db.GetBit(4, 1));
  db.SetBit(4, 1, false);
  EXPECT_FALSE(db.GetBit(4, 1));
  EXPECT_EQ(db.rows(), 10u);
  EXPECT_EQ(db.cols(), 3u);
}

TEST(PirDatabaseTest, ColumnFromBytesIsMsbFirst) {
  PirDatabase db(16, 2);
  db.SetColumnFromBytes(1, {0x80, 0x01});
  EXPECT_TRUE(db.GetBit(0, 1));    // MSB of byte 0
  EXPECT_FALSE(db.GetBit(1, 1));
  EXPECT_TRUE(db.GetBit(15, 1));   // LSB of byte 1
  EXPECT_FALSE(db.GetBit(0, 0));   // other column untouched
}

TEST(PirClientTest, CreateRejectsBadKeyBits) {
  Rng rng(1);
  EXPECT_FALSE(PirClient::Create(64, &rng).ok());
  EXPECT_FALSE(PirClient::Create(kMaxPirModulusBits + 1, &rng).ok());
  EXPECT_FALSE(PirClient::Create(8192, &rng).ok());
}

TEST(PirClientTest, QueryValidation) {
  Rng rng(2);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(client->BuildQuery(3, 3, &rng).ok());  // col out of range
  EXPECT_FALSE(client->BuildQuery(0, 0, &rng).ok());  // empty database
  EXPECT_TRUE(client->BuildQuery(2, 3, &rng).ok());
}

TEST(PirClientTest, QueryValuesHaveJacobiOne) {
  // Security property: every q_j (QR or QNR) has Jacobi symbol +1, so the
  // server cannot spot the target column via the Jacobi symbol.
  Rng rng(3);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(2, 6, &rng);
  ASSERT_TRUE(query.ok());
  for (const BigInt& q : query->q) {
    EXPECT_EQ(bignum::Jacobi(q, query->n), 1);
  }
}

TEST(PirClientTest, ExactlyTargetColumnIsQnr) {
  Rng rng(4);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(2, 5, &rng);
  ASSERT_TRUE(query.ok());
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(client->IsQuadraticResidue(query->q[j]), j != 2) << j;
  }
}

TEST(PirEndToEndTest, RetrievesEveryColumnCorrectly) {
  auto db = RandomDatabase(96, 6, 55);
  Rng rng(5);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  PirServer server(db);
  for (size_t col = 0; col < 6; ++col) {
    auto query = client->BuildQuery(col, 6, &rng);
    ASSERT_TRUE(query.ok());
    auto response = server.Answer(*query);
    ASSERT_TRUE(response.ok());
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    ASSERT_EQ(bits->size(), 96u);
    for (size_t row = 0; row < 96; ++row) {
      EXPECT_EQ((*bits)[row], db->GetBit(row, col))
          << "col " << col << " row " << row;
    }
  }
}

TEST(PirEndToEndTest, AllZeroAndAllOneColumns) {
  auto db = std::make_shared<PirDatabase>(32, 2);
  for (size_t i = 0; i < 32; ++i) db->SetBit(i, 1, true);
  Rng rng(6);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  for (size_t col = 0; col < 2; ++col) {
    auto query = client->BuildQuery(col, 2, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < 32; ++row) {
      EXPECT_EQ((*bits)[row], col == 1);
    }
  }
}

TEST(PirServerTest, RejectsWidthMismatch) {
  auto db = RandomDatabase(8, 4, 7);
  Rng rng(7);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(1, 3, &rng);  // 3 != 4 columns
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(server.Answer(*query).ok());
}

TEST(PirServerTest, ReportsMultiplicationCount) {
  auto db = RandomDatabase(16, 3, 8);
  Rng rng(8);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(0, 3, &rng);
  uint64_t ops = 0;
  auto response = server.Answer(*query, &ops);
  ASSERT_TRUE(response.ok());
  // cols < 4 stays on the naive chain: rows x cols products.
  EXPECT_EQ(ops, 16u * 3u);
}

TEST(PirServerTest, ReportsTablePathCountWhenTablesPay) {
  // 16 x 4: one width-4 group costs 2*(16-4-1)=22 build muls plus one mul
  // per row = 38 < the naive 64, so the cost-model gate takes the tables
  // even though rows < 128 (the old cliff kept small matrices naive).
  auto db = RandomDatabase(16, 4, 8);
  Rng rng(8);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(0, 4, &rng);
  uint64_t ops = 0;
  auto response = server.Answer(*query, &ops);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ops, 22u + 16u);
}

TEST(PirServerTest, AnswerMatchesReferenceAtEveryModulusWidth) {
  // A 200-bit modulus stores 25-byte residues, one byte of its top limb
  // ahead of three whole limbs. Serial and pooled answers alike.
  ThreadPool pool(4);
  Rng rng(11);
  const size_t rows = 96, cols = 8;
  auto db = RandomDatabase(rows, cols, 13);
  for (size_t key_bits : {128u, 200u, 256u, 384u}) {
    SCOPED_TRACE("key_bits " + std::to_string(key_bits));
    auto client = PirClient::Create(key_bits, &rng);
    ASSERT_TRUE(client.ok());
    auto query = client->BuildQuery(key_bits % cols, cols, &rng);
    ASSERT_TRUE(query.ok());
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto response = PirServer(db, p).Answer(*query);
      ASSERT_TRUE(response.ok());
      ExpectMatchesReference(*db, *query, *response);
    }
  }
}

TEST(PirServerTest, TablePathKeepsThePinnedFormulaAtEightColumns) {
  // At 8 columns (one width-8 group) the table build costs 2*(256-8-1) =
  // 494 MontMuls and each row one more. The old gate (rows >= 128) dropped
  // 127-row matrices to the naive chain although the tables pay there too
  // (494 + 127 = 621 against the naive 127 * 8 = 1016); the cost-model gate
  // keeps the table path on both sides of that former cliff.
  Rng rng(17);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  const size_t cols = 8;
  for (size_t rows : {127u, 128u, 256u}) {
    auto db = RandomDatabase(rows, cols, 1000 + rows);
    auto query = client->BuildQuery(rows % cols, cols, &rng);
    ASSERT_TRUE(query.ok());
    uint64_t ops = 0;
    double cpu_ms = -1.0;
    auto response = PirServer(db).Answer(*query, &ops, &cpu_ms);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(ops, 494u + rows) << "rows=" << rows;
    EXPECT_GE(cpu_ms, 0.0);
    ExpectMatchesReference(*db, *query, *response);
  }
}

TEST(PirServerTest, EveryKernelTierMatchesReferenceAndKeepsTheMulFormula) {
  // The kernel tier must change nothing observable except speed: at every
  // tier the CPU supports, the answer matches the seed reference bit for bit
  // and the multiplication count follows the same pinned formula.
  Rng rng(59);
  const size_t rows = 128, cols = 8;
  auto db = RandomDatabase(rows, cols, 61);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  std::vector<PirQuery> queries;
  for (size_t target : {0u, 5u}) {
    auto query = client->BuildQuery(target, cols, &rng);
    ASSERT_TRUE(query.ok());
    queries.push_back(std::move(query).value());
  }

  const MontKernel restore = SelectedKernel();
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx}) {
    if (ClampToCpu(kernel) != kernel) continue;  // CPU can't run this tier
    SetKernelOverride(kernel);
    SCOPED_TRACE(KernelName(kernel));
    PirServer server(db);
    for (const PirQuery& query : queries) {
      uint64_t ops = 0;
      auto response = server.Answer(query, &ops);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(ops, 494u + rows);
      ExpectMatchesReference(*db, query, *response);
    }
  }
  SetKernelOverride(restore);
}

TEST(PirServerTest, TablesPastTheCapTakeTheNaiveChain) {
  // Table bytes are ceil(cols/8) * 2 * 256 * limbs * 8: at 136 columns and
  // a 4,096-bit modulus that is 17 * 2 * 256 * 64 * 8 = 4.25 MiB, past the
  // 4 MiB cap, although at 96 rows the tables would cost 8,398 + 96 * 33
  // multiplications against the naive 96 * 136. The server does not need
  // the trapdoor, so any odd modulus of the largest width will do.
  Rng rng(41);
  const size_t rows = 96, cols = 136;
  auto db = RandomDatabase(rows, cols, 43);
  PirQuery query;
  query.n = (bignum::RandomBits(kMaxPirModulusBits - 1, &rng) << 1) + BigInt(1);
  ASSERT_EQ(query.n.BitLength(), kMaxPirModulusBits);
  for (size_t j = 0; j < cols; ++j) {
    query.q.push_back(bignum::RandomBelow(query.n, &rng));
  }
  uint64_t ops = 0;
  auto response = PirServer(db).Answer(query, &ops);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(ops, rows * cols);
  ExpectMatchesReference(*db, query, *response);
}

TEST(PirWireTest, QueryAndResponseSizes) {
  // Appendix A.1: response is KeyLen x max|Li| -> rows x key_bytes bytes.
  auto db = RandomDatabase(64, 5, 9);
  Rng rng(9);
  auto client = PirClient::Create(256, &rng);
  PirServer server(db);
  auto query = client->BuildQuery(2, 5, &rng);
  EXPECT_EQ(query->WireBytes(), (1 + 5) * client->key_bytes());
  auto response = server.Answer(*query);
  EXPECT_EQ(response->value_size, client->key_bytes());
  EXPECT_EQ(response->rows(), 64u);
  EXPECT_EQ(response->WireBytes(), 64 * client->key_bytes());
}

// A one-row response holding `v` padded to `width` big-endian bytes.
PirResponse OneValueResponse(const BigInt& v, size_t width) {
  PirResponse response;
  response.value_size = width;
  response.values = v.ToBigEndianBytesPadded(width);
  return response;
}

TEST(PirClientTest, DecodeRejectsCorruptResponse) {
  Rng rng(10);
  auto client = PirClient::Create(128, &rng);
  ASSERT_TRUE(client.ok());
  const size_t width = client->key_bytes();
  // Zero, n itself and the all-ones value lie outside Z*_n.
  for (const BigInt& v : {BigInt(0), client->n(),
                          BigInt::PowerOfTwo(8 * width) - BigInt(1)}) {
    auto bits = client->DecodeResponse(OneValueResponse(v, width));
    ASSERT_FALSE(bits.ok()) << v.ToHexString();
    EXPECT_TRUE(bits.status().IsCorruption());
  }
  // The rejection holds behind an honest row too.
  PirResponse second_bad = OneValueResponse(BigInt(4), width);
  const std::vector<uint8_t> zero(width, 0);
  second_bad.values.insert(second_bad.values.end(), zero.begin(), zero.end());
  EXPECT_TRUE(client->DecodeResponse(second_bad).status().IsCorruption());

  // A zero residue width, or a buffer that is not a whole number of
  // residues, is Corruption rather than a division by zero or a short read.
  PirResponse no_width = OneValueResponse(BigInt(4), width);
  no_width.value_size = 0;
  EXPECT_TRUE(client->DecodeResponse(no_width).status().IsCorruption());
  PirResponse ragged = OneValueResponse(BigInt(4), width);
  ragged.values.push_back(0x01);
  EXPECT_TRUE(client->DecodeResponse(ragged).status().IsCorruption());

  // An empty answer is well formed: no rows, no bits.
  PirResponse empty;
  empty.value_size = width;
  auto none = client->DecodeResponse(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

// Decodes with Euler's criterion modulo both primes (IsQuadraticResidue):
// the reference the one-prime decode must agree with on honest answers.
std::vector<bool> DecodeTwoPrimeReference(const PirClient& client,
                                          const PirResponse& response) {
  std::vector<bool> bits;
  for (size_t i = 0; i < response.rows(); ++i) {
    bits.push_back(!client.IsQuadraticResidue(response.Value(i)));
  }
  return bits;
}

TEST(PirClientTest, OnePrimeDecodeMatchesTwoPrimeReference) {
  // An honest gamma is a residue modulo both primes or a non-residue modulo
  // both, so deciding the bit modulo p1 alone must agree with the two-prime
  // test and with the database column, over random shapes and key sizes.
  Rng rng(13);
  for (size_t key_bits : {128u, 200u, 256u, 384u, 512u}) {
    auto client = PirClient::Create(key_bits, &rng);
    ASSERT_TRUE(client.ok());
    for (size_t trial = 0; trial < 3; ++trial) {
      const size_t rows = 1 + rng.Uniform(200);
      const size_t cols = 1 + rng.Uniform(20);
      auto db = RandomDatabase(rows, cols, key_bits * 10 + trial);
      const size_t target = rng.Uniform(cols);
      auto query = client->BuildQuery(target, cols, &rng);
      ASSERT_TRUE(query.ok());
      auto response = PirServer(db).Answer(*query);
      ASSERT_TRUE(response.ok());
      auto bits = client->DecodeResponse(*response);
      ASSERT_TRUE(bits.ok());
      EXPECT_EQ(*bits, DecodeTwoPrimeReference(*client, *response))
          << "key_bits " << key_bits << " trial " << trial;
      ASSERT_EQ(bits->size(), rows);
      for (size_t row = 0; row < rows; ++row) {
        ASSERT_EQ((*bits)[row], db->GetBit(row, target))
            << "key_bits " << key_bits << " row " << row;
      }
    }
  }
}

TEST(PirResponseTest, ValueReadsFixedWidthBigEndianRows) {
  // Leading zero bytes are padding, not a shorter residue.
  PirResponse response;
  response.value_size = 3;
  response.values = {0x00, 0x00, 0x07, 0x01, 0x02, 0x03, 0x00, 0xFF, 0x00};
  ASSERT_EQ(response.rows(), 3u);
  EXPECT_EQ(response.Value(0), BigInt(7));
  EXPECT_EQ(response.Value(1), BigInt(0x010203));
  EXPECT_EQ(response.Value(2), BigInt(0xFF00));
  EXPECT_EQ(response.WireBytes(), 9u);
}

TEST(PirEndToEndTest, DistinctClientsInteroperate) {
  // Two clients with different keys query the same server.
  auto db = RandomDatabase(40, 3, 11);
  PirServer server(db);
  for (uint64_t seed : {20ULL, 21ULL}) {
    Rng rng(seed);
    auto client = PirClient::Create(128, &rng);
    auto query = client->BuildQuery(1, 3, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < 40; ++row) {
      EXPECT_EQ((*bits)[row], db->GetBit(row, 1));
    }
  }
}

class PirMatrixSweepTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(PirMatrixSweepTest, FullMatrixRecovery) {
  auto [rows, cols] = GetParam();
  auto db = RandomDatabase(rows, cols, rows * 100 + cols);
  Rng rng(12);
  auto client = PirClient::Create(128, &rng);
  PirServer server(db);
  // Recover the full matrix one column at a time.
  for (size_t col = 0; col < cols; ++col) {
    auto query = client->BuildQuery(col, cols, &rng);
    auto response = server.Answer(*query);
    auto bits = client->DecodeResponse(*response);
    ASSERT_TRUE(bits.ok());
    for (size_t row = 0; row < rows; ++row) {
      ASSERT_EQ((*bits)[row], db->GetBit(row, col));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PirMatrixSweepTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{8, 1},
                      std::pair<size_t, size_t>{1, 8},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{33, 7}));

}  // namespace
}  // namespace embellish::crypto
