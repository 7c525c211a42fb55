// Equivalence tests for the parallel PIR answer engine: the pooled,
// word-at-a-time kernel must produce bit-identical responses to a serial
// seed-style reference (per-bit GetBit, allocating MontMul), and ExtractRow
// must agree with GetBit on every packing alignment.

#include "crypto/pir.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
// one allocating MontMul per (row, column), one BigInt per row.
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

TEST(PirDatabaseExtractRowTest, MatchesGetBitAcrossAlignments) {
  // Column counts straddling byte and word boundaries exercise every shift
  // path in the word assembler.
  for (size_t cols : {1u, 7u, 8u, 13u, 63u, 64u, 65u, 100u, 130u}) {
    auto db = RandomDatabase(37, cols, 1000 + cols);
    std::vector<uint64_t> words(db->RowWords());
    for (size_t i = 0; i < db->rows(); ++i) {
      db->ExtractRow(i, words.data());
      for (size_t j = 0; j < cols; ++j) {
        ASSERT_EQ((words[j / 64] >> (j % 64)) & 1,
                  static_cast<uint64_t>(db->GetBit(i, j)))
            << "cols=" << cols << " row=" << i << " col=" << j;
      }
    }
  }
}

TEST(PirParallelTest, PooledAnswerIsBitIdenticalToSerialReference) {
  ThreadPool pool(4);
  Rng rng(42);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());

  for (const auto& [rows, cols] : std::vector<std::pair<size_t, size_t>>{
           {64, 5}, {256, 8}, {333, 13}, {96, 70}}) {
    auto db = RandomDatabase(rows, cols, rows * 31 + cols);
    auto query = client->BuildQuery(cols / 2, cols, &rng);
    ASSERT_TRUE(query.ok());

    const std::vector<BigInt> reference = AnswerSerialReference(*db, *query);

    PirServer serial_server(db);
    auto serial = serial_server.Answer(*query);
    ASSERT_TRUE(serial.ok());

    PirServer pooled_server(db, &pool);
    auto pooled = pooled_server.Answer(*query);
    ASSERT_TRUE(pooled.ok());

    ASSERT_EQ(reference.size(), rows);
    ASSERT_EQ(serial->value_size, client->key_bytes());
    ASSERT_EQ(serial->rows(), rows);
    ASSERT_EQ(pooled->rows(), rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ(serial->Value(i), reference[i])
          << "serial engine diverged at row " << i;
      ASSERT_EQ(pooled->Value(i), reference[i])
          << "pooled engine diverged at row " << i;
    }
    EXPECT_EQ(pooled->values, serial->values);
  }
}

TEST(PirParallelTest, PooledAnswerDecodesToTargetColumn) {
  ThreadPool pool(4);
  Rng rng(7);
  auto client = PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  const size_t rows = 128, cols = 11, target = 9;
  auto db = RandomDatabase(rows, cols, 99);

  auto query = client->BuildQuery(target, cols, &rng);
  ASSERT_TRUE(query.ok());
  PirServer server(db, &pool);
  uint64_t ops = 0;
  double cpu_ms = -1.0;
  auto response = server.Answer(*query, &ops, &cpu_ms);
  ASSERT_TRUE(response.ok());
  // The subset-product tables perform far fewer multiplications than the
  // naive rows*cols chain.
  EXPECT_GT(ops, 0u);
  EXPECT_LT(ops, rows * cols);
  EXPECT_GE(cpu_ms, 0.0);

  auto bits = client->DecodeResponse(*response);
  ASSERT_TRUE(bits.ok());
  ASSERT_EQ(bits->size(), rows);
  for (size_t i = 0; i < rows; ++i) {
    ASSERT_EQ((*bits)[i], db->GetBit(i, target)) << "row " << i;
  }
}

}  // namespace
}  // namespace embellish::crypto
