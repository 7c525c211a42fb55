// Batched PIR answering: AnswerBatch({q1..qQ}) must be bit-identical to Q
// serial Answer calls (and to the seed-style naive reference), the
// amortization-aware table gate must hold across the old rows==128 cliff,
// the batch-wide table budget must degrade to sub-batches (never to the
// naive path), and the op accounting must follow the pinned formula: row
// extractions counted once per sweep, table builds and MontMuls per query.

#include "crypto/pir.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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
// of the table path, of the batch kernel and of the flat answer layout.
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

// Q queries over `cols` columns from a rotating set of clients, so a batch
// mixes distinct moduli the way concurrent sessions do.
std::vector<PirQuery> MakeQueries(const std::vector<PirClient>& clients,
                                  size_t q_count, size_t cols, Rng* rng) {
  std::vector<PirQuery> queries;
  queries.reserve(q_count);
  for (size_t i = 0; i < q_count; ++i) {
    auto query =
        clients[i % clients.size()].BuildQuery(i % cols, cols, rng);
    EXPECT_TRUE(query.ok());
    queries.push_back(std::move(query).value());
  }
  return queries;
}

std::vector<PirClient> MakeClients(size_t count, size_t key_bits, Rng* rng) {
  std::vector<PirClient> clients;
  for (size_t i = 0; i < count; ++i) {
    auto client = PirClient::Create(key_bits, rng);
    EXPECT_TRUE(client.ok());
    clients.push_back(std::move(client).value());
  }
  return clients;
}

void ExpectBatchMatchesSerial(const PirServer& server,
                              const std::vector<PirQuery>& queries,
                              const std::vector<PirResponse>& batch) {
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto serial = server.Answer(queries[qi]);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ(batch[qi].value_size, serial->value_size);
    ASSERT_EQ(batch[qi].rows(), serial->rows());
    for (size_t i = 0; i < serial->rows(); ++i) {
      ASSERT_EQ(batch[qi].Value(i), serial->Value(i))
          << "query " << qi << " diverged from serial Answer at row " << i;
    }
  }
}

TEST(PirBatchTest, BitIdenticalToSerialAnswersAtEveryWidth) {
  ThreadPool pool(4);
  Rng rng(42);
  const size_t rows = 192, cols = 8;
  auto db = RandomDatabase(rows, cols, 7);
  auto clients = MakeClients(3, 256, &rng);

  for (size_t q_count : {1u, 2u, 8u, 32u}) {
    auto queries = MakeQueries(clients, q_count, cols, &rng);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      PirServer server(db, p);
      PirBatchStats stats;
      auto batch = server.AnswerBatch(
          std::span<const PirQuery>(queries.data(), queries.size()), &stats);
      ASSERT_TRUE(batch.ok());
      ExpectBatchMatchesSerial(server, queries, *batch);
      EXPECT_EQ(stats.queries, q_count);
      EXPECT_EQ(stats.sweeps, 1u);
      EXPECT_EQ(stats.rows_extracted, rows);
      // Every query also matches the seed-style naive reference.
      for (size_t qi = 0; qi < q_count; ++qi) {
        const std::vector<BigInt> reference =
            AnswerSerialReference(*db, queries[qi]);
        ASSERT_EQ((*batch)[qi].rows(), rows);
        for (size_t i = 0; i < rows; ++i) {
          ASSERT_EQ((*batch)[qi].Value(i), reference[i])
              << "query " << qi << " diverged from reference at row " << i;
        }
      }
    }
  }
}

TEST(PirBatchTest, MixedKeyLengthsInOneBatch) {
  // Distinct limb widths in one sweep: the worker keeps one scratch per
  // width and max-width accumulators. A 200-bit modulus stores 25-byte
  // residues, one byte of its top limb ahead of three whole limbs.
  Rng rng(11);
  const size_t rows = 96, cols = 8;
  auto db = RandomDatabase(rows, cols, 13);
  std::vector<PirClient> clients;
  for (size_t key_bits : {128u, 200u, 256u, 384u}) {
    auto client = PirClient::Create(key_bits, &rng);
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(client).value());
  }
  auto queries = MakeQueries(clients, 8, cols, &rng);
  PirServer server(db);
  auto batch = server.AnswerBatch(
      std::span<const PirQuery>(queries.data(), queries.size()));
  ASSERT_TRUE(batch.ok());
  ExpectBatchMatchesSerial(server, queries, *batch);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_EQ((*batch)[qi].value_size,
              (queries[qi].n.BitLength() + 7) / 8);
    const std::vector<BigInt> reference =
        AnswerSerialReference(*db, queries[qi]);
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ((*batch)[qi].Value(i), reference[i])
          << "query " << qi << " diverged from reference at row " << i;
    }
  }
}

TEST(PirBatchTest, GateBoundaryAroundOldRowCliff) {
  // The old gate (rows >= 128) dropped 127-row matrices to the naive chain
  // even though the tables pay from build + rows muls = 494 + 127 = 621
  // against the naive 127 * 8 = 1016. The cost-model gate keeps the table
  // path on both sides of the former cliff, at every batch width.
  Rng rng(17);
  auto clients = MakeClients(2, 256, &rng);
  const size_t cols = 8;
  for (size_t rows : {127u, 128u}) {
    auto db = RandomDatabase(rows, cols, 1000 + rows);
    PirServer server(db);
    for (size_t q_count : {1u, 8u}) {
      auto queries = MakeQueries(clients, q_count, cols, &rng);
      PirBatchStats stats;
      auto batch = server.AnswerBatch(
          std::span<const PirQuery>(queries.data(), queries.size()), &stats);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(stats.table_queries, q_count)
          << "rows=" << rows << " Q=" << q_count
          << ": table path must stay on";
      EXPECT_LT(stats.mont_muls, q_count * rows * cols);
      ExpectBatchMatchesSerial(server, queries, *batch);
      for (size_t qi = 0; qi < q_count; ++qi) {
        const std::vector<BigInt> reference =
            AnswerSerialReference(*db, queries[qi]);
        ASSERT_EQ((*batch)[qi].rows(), rows);
        for (size_t i = 0; i < rows; ++i) {
          ASSERT_EQ((*batch)[qi].Value(i), reference[i]);
        }
      }
    }
  }
}

TEST(PirBatchTest, OpAccountingFollowsPinnedFormula) {
  // rows=256, cols=8 (one width-8 group): per query the table build costs
  // 2*(256-8-1) = 494 MontMuls and each row costs 2*1-1 = 1, so Q queries
  // cost Q*(494+256) MontMuls while the 256 row extractions are shared.
  Rng rng(23);
  const size_t rows = 256, cols = 8, q_count = 4;
  auto db = RandomDatabase(rows, cols, 29);
  auto clients = MakeClients(2, 256, &rng);
  auto queries = MakeQueries(clients, q_count, cols, &rng);
  PirServer server(db);

  PirBatchStats stats;
  auto batch = server.AnswerBatch(
      std::span<const PirQuery>(queries.data(), queries.size()), &stats);
  ASSERT_TRUE(batch.ok());
  const uint64_t build = 494, per_row = 1;
  EXPECT_EQ(stats.table_build_muls, q_count * build);
  EXPECT_EQ(stats.mont_muls, q_count * (build + rows * per_row));
  EXPECT_EQ(stats.rows_extracted, rows);  // once, not once per query
  EXPECT_EQ(stats.sweeps, 1u);
  EXPECT_EQ(stats.budget_splits, 0u);
  EXPECT_GE(stats.cpu_ms, 0.0);

  // Cross-check: batch MontMuls equal the sum of what serial Answer reports,
  // so the bench's batch-vs-serial op ratio compares like for like.
  uint64_t serial_total = 0;
  for (const PirQuery& query : queries) {
    uint64_t ops = 0;
    ASSERT_TRUE(server.Answer(query, &ops).ok());
    serial_total += ops;
  }
  EXPECT_EQ(stats.mont_muls, serial_total);
}

TEST(PirBatchTest, TableBudgetSplitsIntoSubBatchesNeverNaive) {
  // 256-bit keys, cols=8: one group of subset tables is 2*256*4*8 = 16 KiB
  // per query. A budget of two table sets forces a batch of 8 into four
  // sub-batch sweeps; every query stays on the table path.
  Rng rng(31);
  const size_t rows = 256, cols = 8, q_count = 8;
  auto db = RandomDatabase(rows, cols, 37);
  auto clients = MakeClients(2, 256, &rng);
  auto queries = MakeQueries(clients, q_count, cols, &rng);
  PirServer server(db);
  const size_t table_bytes = 2 * 256 * 4 * sizeof(uint64_t);
  server.set_table_budget_bytes(2 * table_bytes);

  PirBatchStats stats;
  auto batch = server.AnswerBatch(
      std::span<const PirQuery>(queries.data(), queries.size()), &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(stats.sweeps, 4u);
  EXPECT_EQ(stats.budget_splits, 3u);
  EXPECT_EQ(stats.table_queries, q_count) << "budget must split, not degrade";
  EXPECT_EQ(stats.rows_extracted, 4 * rows);  // each sub-batch re-sweeps
  ExpectBatchMatchesSerial(server, queries, *batch);
}

TEST(PirBatchTest, BudgetBelowOneTableSetFallsBackToNaivePerQuery) {
  // A query whose tables alone exceed the budget degrades to the naive
  // chain (the pre-batch behavior), still bit-identical.
  Rng rng(41);
  const size_t rows = 64, cols = 8, q_count = 3;
  auto db = RandomDatabase(rows, cols, 43);
  auto clients = MakeClients(1, 256, &rng);
  auto queries = MakeQueries(clients, q_count, cols, &rng);
  PirServer server(db);
  server.set_table_budget_bytes(1024);  // < one 16 KiB table set

  PirBatchStats stats;
  auto batch = server.AnswerBatch(
      std::span<const PirQuery>(queries.data(), queries.size()), &stats);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(stats.table_queries, 0u);
  EXPECT_EQ(stats.sweeps, 1u);  // naive queries hold no tables live
  EXPECT_EQ(stats.mont_muls, q_count * rows * cols);
  ExpectBatchMatchesSerial(server, queries, *batch);
  for (size_t qi = 0; qi < q_count; ++qi) {
    const std::vector<BigInt> reference =
        AnswerSerialReference(*db, queries[qi]);
    ASSERT_EQ((*batch)[qi].rows(), rows);
    for (size_t i = 0; i < rows; ++i) {
      ASSERT_EQ((*batch)[qi].Value(i), reference[i]);
    }
  }
}

TEST(PirBatchTest, EveryKernelTierIsBitIdenticalAndKeepsTheMulFormula) {
  // The SIMD lane path must change nothing observable except speed: at every
  // kernel tier the CPU supports, the batch gammas match the seed reference
  // bit for bit, and mont_muls follows the same pinned formula — lane
  // batching never re-counts logical multiplications.
  Rng rng(59);
  const size_t rows = 128, cols = 8, q_count = 8;
  auto db = RandomDatabase(rows, cols, 61);
  auto clients = MakeClients(3, 256, &rng);
  auto queries = MakeQueries(clients, q_count, cols, &rng);
  const uint64_t build = 494, per_row = 1;

  const MontKernel restore = SelectedKernel();
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx,
                            MontKernel::kAvx2, MontKernel::kIfma}) {
    if (ClampToCpu(kernel) != kernel) continue;  // CPU can't run this tier
    SetKernelOverride(kernel);
    SCOPED_TRACE(KernelName(kernel));
    PirServer server(db);
    PirBatchStats stats;
    auto batch = server.AnswerBatch(
        std::span<const PirQuery>(queries.data(), queries.size()), &stats);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(stats.mont_muls, q_count * (build + rows * per_row));
    for (size_t qi = 0; qi < q_count; ++qi) {
      const std::vector<BigInt> reference =
          AnswerSerialReference(*db, queries[qi]);
      ASSERT_EQ((*batch)[qi].rows(), rows);
      for (size_t i = 0; i < rows; ++i) {
        ASSERT_EQ((*batch)[qi].Value(i), reference[i])
            << "query " << qi << " diverged from reference at row " << i;
      }
    }
    if (kernel >= MontKernel::kAvx2) {
      // One full lane group of 8 same-width queries: every vector mul
      // carries 8 live lanes, and the invocation count is one query's worth
      // of logical muls (the group shares each kernel call).
      EXPECT_EQ(stats.simd_lane_muls, build + rows * per_row);
      EXPECT_EQ(stats.simd_active_lanes, 8 * stats.simd_lane_muls);
      EXPECT_DOUBLE_EQ(stats.simd_fill(), 1.0);
    } else {
      EXPECT_EQ(stats.simd_lane_muls, 0u) << "scalar sweep must not claim "
                                             "vector work";
      EXPECT_EQ(stats.simd_fill(), 0.0);
    }
  }
  SetKernelOverride(restore);
}

TEST(PirBatchTest, LaneOccupancyCountsPartialGroupsTruthfully) {
  // Q=5 same-width queries form one 5-lane group: fill = 5/8. A singleton
  // (Q=1) never enters the lane engine at all.
  if (ClampToCpu(MontKernel::kAvx2) != MontKernel::kAvx2) {
    GTEST_SKIP() << "no vector tier on this CPU";
  }
  Rng rng(67);
  const size_t rows = 96, cols = 8;
  auto db = RandomDatabase(rows, cols, 71);
  auto clients = MakeClients(2, 256, &rng);
  PirServer server(db);

  const MontKernel restore = SelectedKernel();
  SetKernelOverride(MaxSupportedKernel());
  {
    auto queries = MakeQueries(clients, 5, cols, &rng);
    PirBatchStats stats;
    auto batch = server.AnswerBatch(
        std::span<const PirQuery>(queries.data(), queries.size()), &stats);
    ASSERT_TRUE(batch.ok());
    ExpectBatchMatchesSerial(server, queries, *batch);
    ASSERT_GT(stats.simd_lane_muls, 0u);
    EXPECT_EQ(stats.simd_active_lanes, 5 * stats.simd_lane_muls);
    EXPECT_DOUBLE_EQ(stats.simd_fill(), 5.0 / 8.0);
  }
  {
    auto queries = MakeQueries(clients, 1, cols, &rng);
    PirBatchStats stats;
    auto batch = server.AnswerBatch(
        std::span<const PirQuery>(queries.data(), queries.size()), &stats);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(stats.simd_lane_muls, 0u);
  }
  SetKernelOverride(restore);
}

TEST(PirBatchTest, EmptyBatchAndInvalidQueryHandling) {
  Rng rng(47);
  auto db = RandomDatabase(32, 4, 53);
  PirServer server(db);
  auto empty = server.AnswerBatch(std::span<const PirQuery>());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // One bad query fails the whole batch (all-or-nothing).
  auto clients = MakeClients(1, 128, &rng);
  auto queries = MakeQueries(clients, 2, 4, &rng);
  queries[1].q.pop_back();  // width mismatch
  EXPECT_FALSE(server
                   .AnswerBatch(std::span<const PirQuery>(queries.data(),
                                                          queries.size()))
                   .ok());
}

}  // namespace
}  // namespace embellish::crypto
