#include "core/pir_retrieval.h"

#include <gtest/gtest.h>

#include <set>
#include <span>

#include "index/builder.h"
#include "testutil.h"

namespace embellish::core {
namespace {

struct PirPipeline {
  wordnet::WordNetDatabase lex;
  corpus::Corpus corp;
  index::BuildOutput built;
  BucketOrganization org;
  storage::StorageLayout layout;
  std::unique_ptr<PirRetrievalServer> server;
  std::unique_ptr<PirRetrievalClient> client;

  explicit PirPipeline(size_t bucket_size, uint64_t seed = 91)
      : lex(testutil::SmallSyntheticLexicon(1500, seed)),
        corp(testutil::SmallCorpus(lex, 150, seed + 1)),
        built(std::move(index::BuildIndex(corp, {})).value()),
        org(testutil::MakeBuckets(lex, bucket_size, 64)),
        layout(storage::StorageLayout::Build(
            built.index, org.buckets(),
            storage::LayoutPolicy::kBucketColocated, {})) {
    server = std::make_unique<PirRetrievalServer>(&built.index, &org,
                                                  &layout);
    Rng rng(seed + 2);
    client = std::make_unique<PirRetrievalClient>(
        std::move(PirRetrievalClient::Create(&org, 128, &rng)).value());
  }
};

// A column as a protocol execution retrieves it: MSB-first bits, followed
// by `pad_bytes` zero bytes of padding.
std::vector<bool> ColumnBits(const std::vector<uint8_t>& column,
                             size_t pad_bytes) {
  std::vector<bool> bits(8 * (column.size() + pad_bytes), false);
  for (size_t i = 0; i < 8 * column.size(); ++i) {
    bits[i] = (column[i / 8] >> (7 - i % 8)) & 1;
  }
  return bits;
}

// A column header: [u32 BE count][u8 doc-id width][u8 impact width].
std::vector<uint8_t> Header(uint32_t count, uint8_t doc_width,
                            uint8_t impact_width) {
  return {static_cast<uint8_t>(count >> 24), static_cast<uint8_t>(count >> 16),
          static_cast<uint8_t>(count >> 8),  static_cast<uint8_t>(count),
          doc_width,                         impact_width};
}

TEST(PirRetrievalTest, RetrievedListsMatchIndexExactly) {
  PirPipeline p(4);
  Rng rng(1);
  auto terms = p.built.index.IndexedTerms();
  for (size_t i = 0; i < 8; ++i) {
    wordnet::TermId term = terms[rng.Uniform(terms.size())];
    RetrievalCosts costs;
    auto list = p.client->RetrieveList(*p.server, term, &rng, &costs);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    EXPECT_EQ(*list, *p.built.index.postings(term));
  }
}

TEST(PirRetrievalTest, EmptyListRetrievesEmpty) {
  PirPipeline p(4);
  Rng rng(2);
  // A bucketed term that never appears in the corpus.
  wordnet::TermId unindexed = wordnet::kInvalidTermId;
  for (wordnet::TermId t = 0; t < p.lex.term_count(); ++t) {
    if (p.built.index.postings(t) == nullptr && p.org.Contains(t)) {
      unindexed = t;
      break;
    }
  }
  ASSERT_NE(unindexed, wordnet::kInvalidTermId);
  RetrievalCosts costs;
  auto list = p.client->RetrieveList(*p.server, unindexed, &rng, &costs);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_TRUE(list->empty());
}

TEST(PirRetrievalTest, RankingMatchesPlaintext) {
  PirPipeline p(4);
  Rng rng(3);
  auto terms = p.built.index.IndexedTerms();
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<wordnet::TermId> query;
    for (int i = 0; i < 4; ++i) {
      query.push_back(terms[rng.Uniform(terms.size())]);
    }
    RetrievalCosts costs;
    auto ranked = p.client->RunQuery(*p.server, query, 25, &rng, &costs);
    ASSERT_TRUE(ranked.ok());
    std::vector<wordnet::TermId> distinct = query;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    auto reference = index::EvaluateFull(p.built.index, distinct);
    if (reference.size() > 25) reference.resize(25);
    ASSERT_EQ(ranked->size(), reference.size());
    for (size_t i = 0; i < ranked->size(); ++i) {
      EXPECT_EQ((*ranked)[i], reference[i]);
    }
  }
}

TEST(PirRetrievalTest, RejectsEmptyQueryAndUnknownTerm) {
  PirPipeline p(4);
  Rng rng(4);
  RetrievalCosts costs;
  EXPECT_FALSE(p.client->RunQuery(*p.server, {}, 10, &rng, &costs).ok());
  EXPECT_FALSE(
      p.client->RunQuery(*p.server, {99999999}, 10, &rng, &costs).ok());
}

TEST(PirRetrievalTest, ResponsePaddedToBucketMaximum) {
  // Every execution against a bucket returns the same number of rows —
  // the padding requirement of Section 4's alternate method — and that
  // number is 8 x the bucket's largest encoded column.
  PirPipeline p(4);
  const auto& bucket = p.org.bucket(3);
  auto matrix = p.server->BucketMatrix(3);
  ASSERT_TRUE(matrix.ok());
  size_t max_column = 0;
  size_t max_list_bytes = 0;
  for (auto t : bucket) {
    std::span<const index::Posting> list;
    if (const auto* postings = p.built.index.postings(t)) list = *postings;
    max_column = std::max(max_column, ColumnBytesFromPostings(list).size());
    max_list_bytes = std::max(max_list_bytes, p.built.index.ListBytes(t));
  }
  EXPECT_EQ((*matrix)->rows(), 8 * max_column);
  EXPECT_EQ((*matrix)->cols(), bucket.size());
  // Bit-packed postings take fewer rows than a byte-length prefix plus
  // 5-byte postings would.
  EXPECT_LT((*matrix)->rows(), (4 + max_list_bytes) * 8);
}

TEST(PirColumnCodecTest, RoundTripsEdgeCases) {
  using index::Posting;
  const std::vector<std::vector<Posting>> lists = {
      {},
      {{0, 1}},
      {{0xFFFFFFFFu, 1}},
      {{7, 255}, {3, 1}},
      {{0xFFFFFFFFu, 255}, {0, 1}, {12345, 200}},
  };
  for (const auto& list : lists) {
    std::vector<uint8_t> column = ColumnBytesFromPostings(list);
    // Padding, as the bucket matrix adds it, does not change the decode.
    for (size_t pad : {size_t{0}, size_t{1}, size_t{64}}) {
      auto back = PostingsFromColumnBits(ColumnBits(column, pad));
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(*back, list);
    }
  }
  // The widths are the smallest that hold the largest doc id and impact.
  EXPECT_EQ(ColumnBytesFromPostings(lists[0]), Header(0, 1, 1));
  std::vector<uint8_t> single = ColumnBytesFromPostings(lists[1]);
  EXPECT_EQ(single.size(), 7u);
  EXPECT_EQ(single[4], 1);
  EXPECT_EQ(single[5], 1);
  std::vector<uint8_t> widest = ColumnBytesFromPostings(lists[4]);
  EXPECT_EQ(widest[4], 32);
  EXPECT_EQ(widest[5], 8);
  EXPECT_EQ(widest.size(), 6u + 15u);  // 3 x 40 bits
}

TEST(PirColumnCodecTest, RoundTripsEveryIndexedList) {
  PirPipeline p(4);
  for (wordnet::TermId t : p.built.index.IndexedTerms()) {
    const std::vector<index::Posting>& list = *p.built.index.postings(t);
    std::vector<uint8_t> column = ColumnBytesFromPostings(list);
    auto back = PostingsFromColumnBits(ColumnBits(column, 3));
    ASSERT_TRUE(back.ok()) << "term " << t << ": " << back.status().ToString();
    EXPECT_EQ(*back, list) << "term " << t;
  }
}

TEST(PirColumnCodecTest, RejectsHostileColumns) {
  auto expect_corruption = [](const std::vector<uint8_t>& column,
                              const char* what) {
    auto decoded = PostingsFromColumnBits(ColumnBits(column, 0));
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_TRUE(decoded.status().IsCorruption()) << what;
  };
  // Shorter than the 6-byte header.
  EXPECT_TRUE(PostingsFromColumnBits({}).status().IsCorruption());
  EXPECT_TRUE(PostingsFromColumnBits(std::vector<bool>(47, false))
                  .status()
                  .IsCorruption());
  expect_corruption({0, 0, 0, 0, 1}, "5-byte column");
  // Widths out of range.
  expect_corruption(Header(0, 0, 8), "doc width 0");
  expect_corruption(Header(0, 33, 8), "doc width 33");
  expect_corruption(Header(0, 16, 0), "impact width 0");
  expect_corruption(Header(0, 16, 9), "impact width 9");
  // Ten 16-bit postings need 20 payload bytes: 19 is one byte short.
  std::vector<uint8_t> column = Header(10, 8, 8);
  column.resize(6 + 19, 0xAB);
  expect_corruption(column, "count past the payload");
  column.push_back(0xAB);
  EXPECT_TRUE(PostingsFromColumnBits(ColumnBits(column, 0)).ok());
  // Counts whose bit total would wrap in 32 bits.
  column = Header(0xFFFFFFFFu, 32, 8);
  column.resize(4096, 0xFF);
  expect_corruption(column, "count 0xFFFFFFFF");
  column = Header(0x80000000u, 1, 1);  // 2^32 bits: 0 modulo 2^32
  column.resize(64, 0);
  expect_corruption(column, "count 2^31 at 2 bits");
}

TEST(PirRetrievalTest, DownlinkScalesWithMaxListNotOwnList) {
  // Fetching a short list from a bucket with one long list costs as much
  // downlink as fetching the long list — the cost asymmetry the paper's
  // Figure 7(c) attributes to PIR.
  PirPipeline p(8);
  Rng rng(6);
  // Find a bucket with both a short and a long indexed list.
  for (size_t b = 0; b < p.org.bucket_count(); ++b) {
    const auto& bucket = p.org.bucket(b);
    wordnet::TermId shortest = wordnet::kInvalidTermId;
    wordnet::TermId longest = wordnet::kInvalidTermId;
    size_t lo = SIZE_MAX, hi = 0;
    for (auto t : bucket) {
      size_t len = p.built.index.ListLength(t);
      if (len == 0) continue;
      if (len < lo) {
        lo = len;
        shortest = t;
      }
      if (len > hi) {
        hi = len;
        longest = t;
      }
    }
    if (shortest == wordnet::kInvalidTermId || hi <= lo * 3) continue;
    RetrievalCosts c_short, c_long;
    ASSERT_TRUE(
        p.client->RetrieveList(*p.server, shortest, &rng, &c_short).ok());
    ASSERT_TRUE(
        p.client->RetrieveList(*p.server, longest, &rng, &c_long).ok());
    EXPECT_EQ(c_short.downlink_bytes, c_long.downlink_bytes);
    return;
  }
  GTEST_SKIP() << "no bucket with sufficiently skewed lists in fixture";
}

TEST(PirRetrievalTest, MultipleTermsSameBucketFetchedSeparately) {
  // "if a query contains multiple genuine terms from the same bucket,
  // their inverted lists have to be fetched one at a time."
  PirPipeline p(4);
  Rng rng(7);
  // Two indexed terms in the same bucket.
  wordnet::TermId a = wordnet::kInvalidTermId, b = wordnet::kInvalidTermId;
  for (size_t bkt = 0; bkt < p.org.bucket_count(); ++bkt) {
    std::vector<wordnet::TermId> indexed;
    for (auto t : p.org.bucket(bkt)) {
      if (p.built.index.postings(t) != nullptr) indexed.push_back(t);
    }
    if (indexed.size() >= 2) {
      a = indexed[0];
      b = indexed[1];
      break;
    }
  }
  ASSERT_NE(a, wordnet::kInvalidTermId);
  RetrievalCosts one, two;
  ASSERT_TRUE(p.client->RunQuery(*p.server, {a}, 10, &rng, &one).ok());
  ASSERT_TRUE(p.client->RunQuery(*p.server, {a, b}, 10, &rng, &two).ok());
  // Two executions -> roughly double the traffic of one.
  EXPECT_GT(two.downlink_bytes, one.downlink_bytes);
  EXPECT_GE(two.uplink_bytes, 2 * one.uplink_bytes);
}

TEST(PirRetrievalTest, AnswerBatchMatchesPerItemAnswers) {
  // A batch mixing queries for several buckets: responses must be
  // bit-identical to per-item Answer calls, and each item is its own sweep
  // with its own bucket fetch of I/O.
  PirPipeline p(4);
  Rng rng(21);
  // Two indexed terms in each of two distinct buckets.
  std::vector<std::pair<size_t, size_t>> targets;  // (bucket, slot)
  for (size_t bkt = 0; bkt < p.org.bucket_count() && targets.size() < 4;
       ++bkt) {
    const auto& members = p.org.bucket(bkt);
    size_t found = 0;
    for (size_t slot = 0; slot < members.size() && found < 2; ++slot) {
      if (p.built.index.postings(members[slot]) != nullptr) {
        targets.emplace_back(bkt, slot);
        ++found;
      }
    }
  }
  ASSERT_GE(targets.size(), 4u);

  std::vector<crypto::PirQuery> queries;
  std::vector<PirBatchItem> items;
  for (const auto& [bucket, slot] : targets) {
    auto query =
        p.client->pir_client().BuildQuery(slot, p.org.bucket(bucket).size(),
                                          &rng);
    ASSERT_TRUE(query.ok());
    queries.push_back(std::move(query).value());
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    items.push_back(PirBatchItem{targets[i].first, &queries[i]});
  }

  RetrievalCosts batch_costs;
  crypto::PirBatchStats stats;
  auto batch = p.server->AnswerBatch(items, &batch_costs, &stats);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), items.size());
  EXPECT_EQ(stats.queries, items.size());
  EXPECT_EQ(stats.sweeps, items.size());
  EXPECT_EQ(stats.simd_fill(), 0.0);

  RetrievalCosts serial_costs;
  crypto::PirBatchStats serial_stats;
  std::set<size_t> buckets_seen;
  uint64_t rows = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    auto serial = p.server->Answer(items[i].bucket, queries[i], &serial_costs,
                                   &serial_stats);
    ASSERT_TRUE(serial.ok());
    buckets_seen.insert(items[i].bucket);
    rows += serial->rows();
    ASSERT_EQ((*batch)[i].value_size, serial->value_size);
    ASSERT_EQ((*batch)[i].values, serial->values) << "item " << i;
  }
  ASSERT_GT(buckets_seen.size(), 1u);
  EXPECT_EQ(stats.rows_extracted, rows);
  EXPECT_EQ(serial_stats.rows_extracted, rows);
  EXPECT_EQ(serial_stats.mont_muls, stats.mont_muls);
  // The batch charges one bucket fetch per item, as per-item calls do.
  EXPECT_GT(batch_costs.server_io_ms, 0.0);
  EXPECT_EQ(batch_costs.server_io_ms, serial_costs.server_io_ms);
}

TEST(PirRetrievalTest, AnswerBatchRejectsBadItems) {
  PirPipeline p(4);
  Rng rng(22);
  auto query = p.client->pir_client().BuildQuery(0, p.org.bucket(0).size(),
                                                 &rng);
  ASSERT_TRUE(query.ok());
  RetrievalCosts costs;
  EXPECT_FALSE(
      p.server->AnswerBatch({PirBatchItem{999999, &*query}}, &costs).ok());
  EXPECT_FALSE(
      p.server->AnswerBatch({PirBatchItem{0, nullptr}}, &costs).ok());
  auto empty = p.server->AnswerBatch({}, &costs);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(PirRetrievalTest, ServerRejectsBadBucketIndex) {
  PirPipeline p(4);
  crypto::PirQuery bogus;
  RetrievalCosts costs;
  EXPECT_FALSE(p.server->Answer(999999, bogus, &costs).ok());
}

TEST(PirRetrievalTest, CostsArePopulated) {
  PirPipeline p(4);
  Rng rng(8);
  auto terms = p.built.index.IndexedTerms();
  RetrievalCosts costs;
  ASSERT_TRUE(
      p.client->RunQuery(*p.server, {terms[0], terms[9]}, 10, &rng, &costs)
          .ok());
  EXPECT_GT(costs.server_io_ms, 0.0);
  EXPECT_GT(costs.server_cpu_ms, 0.0);
  EXPECT_GT(costs.uplink_bytes, 0u);
  EXPECT_GT(costs.downlink_bytes, 0u);
  EXPECT_GT(costs.user_cpu_ms, 0.0);
}

}  // namespace
}  // namespace embellish::core
