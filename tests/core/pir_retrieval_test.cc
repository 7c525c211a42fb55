#include "core/pir_retrieval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <thread>

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

// A column header: [u32 BE count][u8 top impact][u8 Rice parameter k].
std::vector<uint8_t> Header(uint32_t count, uint8_t top_impact, uint8_t k) {
  return {static_cast<uint8_t>(count >> 24), static_cast<uint8_t>(count >> 16),
          static_cast<uint8_t>(count >> 8),  static_cast<uint8_t>(count),
          top_impact,                        k};
}

// A retrieved column: a header, then `body` ('0' and '1'; spaces ignored).
std::vector<bool> Column(uint32_t count, uint8_t top_impact, uint8_t k,
                         const std::string& body) {
  std::vector<bool> bits = ColumnBits(Header(count, top_impact, k), 0);
  for (char c : body) {
    if (c != ' ') bits.push_back(c == '1');
  }
  return bits;
}

std::vector<uint8_t> EncodeColumn(std::span<const index::Posting> list) {
  auto column = ColumnBytesFromPostings(list);
  EXPECT_TRUE(column.ok()) << column.status().ToString();
  return column.ok() ? *std::move(column) : std::vector<uint8_t>{};
}

// Bound on the fixture's rows, summed over its buckets, against the
// bit-packed layout's: measured 0.897 (74,432 vs 83,016 rows), with margin.
// Its 150 documents give 8-bit doc ids, so the fixed widths were already
// narrow here; perfbench's 20,000-document band measures ~0.67.
constexpr double kMaxRowsVsBitPacked = 0.92;

// Rows of a bucket in the previous bit-packed layout: a 48-bit header, then
// each posting's doc id and impact in the narrowest widths that hold the
// list's largest of each (at least 1 bit), as 8 x the largest column's bytes.
size_t BitPackedRows(const index::InvertedIndex& index,
                     const std::vector<wordnet::TermId>& bucket) {
  size_t max_bytes = 0;
  for (wordnet::TermId t : bucket) {
    uint32_t max_doc = 0;
    uint8_t max_impact = 0;
    size_t count = 0;
    if (const auto* list = index.postings(t)) {
      count = list->size();
      for (const index::Posting& p : *list) {
        max_doc = std::max<uint32_t>(max_doc, p.doc);
        max_impact = std::max(max_impact, p.impact);
      }
    }
    const size_t wd = std::max(1, static_cast<int>(std::bit_width(max_doc)));
    const size_t wi =
        std::max(1, static_cast<int>(std::bit_width(max_impact)));
    max_bytes = std::max(max_bytes, (48 + count * (wd + wi) + 7) / 8);
  }
  return 8 * max_bytes;
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

// Every bit of a matrix, row by row.
std::vector<uint64_t> MatrixWords(const crypto::PirDatabase& matrix) {
  std::vector<uint64_t> words(matrix.rows() * matrix.RowWords());
  for (size_t r = 0; r < matrix.rows(); ++r) {
    matrix.ExtractRow(r, words.data() + r * matrix.RowWords());
  }
  return words;
}

TEST(PirRetrievalTest, ConcurrentFirstTouchesYieldOneMatrixPerBucket) {
  // Missing matrices are built outside the cache lock. Threads that
  // first-touch one bucket at once may each build it, and threads touching
  // different buckets build in parallel; every caller must still get the
  // one matrix the cache kept, with the serial build's bytes.
  PirPipeline p(4);
  const size_t buckets = std::min<size_t>(12, p.org.bucket_count());
  constexpr size_t kThreads = 6;
  PirRetrievalServer server(&p.built.index, &p.org, nullptr);
  std::vector<std::vector<const crypto::PirDatabase*>> got(
      kThreads, std::vector<const crypto::PirDatabase*>(buckets, nullptr));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Bucket 0 first everywhere, then each thread's own rotation.
      for (size_t i = 0; i < buckets; ++i) {
        const size_t b = i == 0 ? 0 : 1 + (i - 1 + t) % (buckets - 1);
        auto matrix = server.BucketMatrix(b);
        ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
        got[t][b] = *matrix;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PirRetrievalServer serial(&p.built.index, &p.org, nullptr);
  for (size_t b = 0; b < buckets; ++b) {
    auto kept = server.BucketMatrix(b);
    auto reference = serial.BucketMatrix(b);
    ASSERT_TRUE(kept.ok() && reference.ok());
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][b], *kept) << "bucket " << b << " thread " << t;
    }
    EXPECT_EQ((*kept)->rows(), (*reference)->rows()) << "bucket " << b;
    EXPECT_EQ((*kept)->cols(), (*reference)->cols()) << "bucket " << b;
    EXPECT_EQ(MatrixWords(**kept), MatrixWords(**reference))
        << "bucket " << b;
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
    max_column = std::max(max_column, EncodeColumn(list).size());
    max_list_bytes = std::max(max_list_bytes, p.built.index.ListBytes(t));
  }
  EXPECT_EQ((*matrix)->rows(), 8 * max_column);
  EXPECT_EQ((*matrix)->cols(), bucket.size());
  // Coded postings take fewer rows than a byte-length prefix plus 5-byte
  // postings would.
  EXPECT_LT((*matrix)->rows(), (4 + max_list_bytes) * 8);

  // Summed over every bucket, the Rice-coded columns need well under the
  // previous bit-packed layout's rows.
  size_t rows = 0;
  size_t bit_packed_rows = 0;
  for (size_t b = 0; b < p.org.bucket_count(); ++b) {
    auto m = p.server->BucketMatrix(b);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    rows += (*m)->rows();
    bit_packed_rows += BitPackedRows(p.built.index, p.org.bucket(b));
  }
  const double ratio = static_cast<double>(rows) / bit_packed_rows;
  std::printf("rows %zu vs bit-packed %zu: %.3fx\n", rows, bit_packed_rows,
              ratio);
  EXPECT_LT(ratio, kMaxRowsVsBitPacked);
}

TEST(PirColumnCodecTest, RoundTripsEdgeCases) {
  using index::Posting;
  const std::vector<std::vector<Posting>> lists = {
      {},
      {{0, 1}},
      {{0xFFFFFFFFu, 1}},
      {{7, 255}, {3, 1}},
      {{0xFFFFFFFFu, 255}, {0, 1}, {1, 1}, {0xFFFFFFFFu, 1}},
  };
  for (const auto& list : lists) {
    std::vector<uint8_t> column = EncodeColumn(list);
    // Padding, as the bucket matrix adds it, does not change the decode.
    for (size_t pad : {size_t{0}, size_t{1}, size_t{64}}) {
      auto back = PostingsFromColumnBits(ColumnBits(column, pad));
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(*back, list);
    }
  }
  // An empty list names top impact 1 and k = 0.
  EXPECT_EQ(EncodeColumn(lists[0]), Header(0, 1, 0));
  // Doc 0: a 1-bit drop and a 1-bit quotient after the header.
  std::vector<uint8_t> single = EncodeColumn(lists[1]);
  EXPECT_EQ(single, (std::vector<uint8_t>{0, 0, 0, 1, 1, 0, 0}));
  // Doc 2^32 - 1 is cheapest at k = 31: quotient 1, then 31 remainder bits.
  std::vector<uint8_t> widest = EncodeColumn(lists[2]);
  EXPECT_EQ(widest[5], 31);
  EXPECT_EQ(widest.size(), (48u + 1 + 2 + 31 + 7) / 8);
  // A 254-step drop is 254 one-bits and a zero-bit. Values 7 and 3 (both
  // run starts) take 7 bits at k = 2, against 8 at k = 1 or 3.
  std::vector<uint8_t> drop = EncodeColumn(lists[3]);
  EXPECT_EQ(drop[4], 255);
  EXPECT_EQ(drop[5], 2);
  EXPECT_EQ(drop.size(), (48u + 1 + 255 + 2 * 3 + 1 + 7) / 8);
}

TEST(PirColumnCodecTest, RefusesListsOutsidePostingOrder) {
  using index::Posting;
  auto expect_invalid = [](const std::vector<Posting>& list,
                           const char* what) {
    auto column = ColumnBytesFromPostings(list);
    ASSERT_FALSE(column.ok()) << what;
    EXPECT_TRUE(column.status().IsInvalidArgument()) << what;
  };
  expect_invalid({{0xFFFFFFFFu, 255}, {0, 1}, {12345, 200}}, "impact rises");
  expect_invalid({{5, 3}, {5, 3}}, "doc repeated within a run");
  expect_invalid({{6, 3}, {5, 3}}, "docs descend within a run");
  expect_invalid({{1, 0}}, "impact 0");

  // The bucket matrix propagates the refusal.
  auto lists = std::make_shared<index::ListMap>();
  lists->Set(1, std::make_shared<const std::vector<Posting>>(
                    std::vector<Posting>{{2, 1}, {4, 3}}));
  lists->Set(2, std::make_shared<const std::vector<Posting>>(
                    std::vector<Posting>{{1, 2}}));
  index::InvertedIndex index(5, std::move(lists), /*impact_bits=*/8);
  auto org = BucketOrganization::Create({{1, 2}});
  ASSERT_TRUE(org.ok());
  PirRetrievalServer server(&index, &*org, nullptr);
  auto matrix = server.BucketMatrix(0);
  ASSERT_FALSE(matrix.ok());
  EXPECT_TRUE(matrix.status().IsInvalidArgument());
}

TEST(PirColumnCodecTest, RoundTripsEveryIndexedList) {
  PirPipeline p(4);
  for (wordnet::TermId t : p.built.index.IndexedTerms()) {
    const std::vector<index::Posting>& list = *p.built.index.postings(t);
    std::vector<uint8_t> column = EncodeColumn(list);
    auto back = PostingsFromColumnBits(ColumnBits(column, 3));
    ASSERT_TRUE(back.ok()) << "term " << t << ": " << back.status().ToString();
    EXPECT_EQ(*back, list) << "term " << t;
  }
}

TEST(PirColumnCodecTest, RoundTripsRandomListsAndSurvivesMutations) {
  // Random lists whose doc spreads drive k from 0 to the high 20s
  // round-trip. Every single-bit flip and every truncation of their columns
  // decodes to some postings or to Corruption, never to another error or a
  // crash.
  Rng rng(17);
  std::vector<int> ks;
  for (uint64_t spread : {uint64_t{1}, uint64_t{40}, uint64_t{1} << 20,
                          uint64_t{1} << 32}) {
    std::set<std::pair<uint8_t, uint32_t>> drawn;  // (7 - impact, doc)
    for (int i = 0; i < 40; ++i) {
      const uint8_t impact = static_cast<uint8_t>(rng.UniformRange(1, 6));
      drawn.insert({static_cast<uint8_t>(7 - impact),
                    static_cast<uint32_t>(rng.Uniform(spread))});
    }
    std::vector<index::Posting> list;
    for (const auto& [neg_impact, doc] : drawn) {
      list.push_back({doc, static_cast<uint8_t>(7 - neg_impact)});
    }
    std::vector<uint8_t> column = EncodeColumn(list);
    ks.push_back(column[5]);
    std::vector<bool> bits = ColumnBits(column, 1);
    auto back = PostingsFromColumnBits(bits);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, list) << "spread " << spread;
    for (size_t i = 0; i < bits.size(); ++i) {
      bits[i] = !bits[i];
      auto flipped = PostingsFromColumnBits(bits);
      EXPECT_TRUE(flipped.ok() || flipped.status().IsCorruption()) << i;
      bits[i] = !bits[i];
      auto cut = PostingsFromColumnBits(
          std::vector<bool>(bits.begin(), bits.begin() + i));
      EXPECT_TRUE(cut.ok() || cut.status().IsCorruption()) << i;
    }
  }
  EXPECT_TRUE(std::is_sorted(ks.begin(), ks.end()));
  EXPECT_EQ(ks.front(), 0);
  EXPECT_GE(ks.back(), 24);
}

TEST(PirColumnCodecTest, RejectsHostileColumns) {
  auto expect_corruption = [](const std::vector<bool>& column,
                              const std::string& message) {
    auto decoded = PostingsFromColumnBits(column);
    ASSERT_FALSE(decoded.ok()) << message;
    EXPECT_TRUE(decoded.status().IsCorruption()) << message;
    EXPECT_EQ(decoded.status().message(), message);
  };
  const std::string short_header = "PIR column shorter than its 6-byte header";
  expect_corruption({}, short_header);
  expect_corruption(std::vector<bool>(47, false), short_header);
  expect_corruption(ColumnBits({0, 0, 0, 0, 1}, 0), short_header);

  expect_corruption(Column(0, 0, 0, ""), "PIR column top impact is 0");
  expect_corruption(Column(1, 0, 0, "00"), "PIR column top impact is 0");
  expect_corruption(Column(0, 1, 32, ""),
                    "PIR column Rice parameter 32 out of [0, 31]");
  expect_corruption(Column(0, 1, 255, ""),
                    "PIR column Rice parameter 255 out of [0, 31]");

  // Every posting needs at least 2 + k bits, counted in 64 bits: 0xFFFFFFFF
  // postings at k = 31, and 2^31 postings at k = 0 (2^32 bits, 0 modulo
  // 2^32), both against 32 Kibit.
  const std::string past_payload = "PIR column postings exceed its payload";
  expect_corruption(Column(0xFFFFFFFFu, 255, 31, std::string(32768, '1')),
                    past_payload);
  expect_corruption(Column(0x80000000u, 1, 0, std::string(32768, '0')),
                    past_payload);
  // Ten postings at k = 3 need at least 50 bits: 49 are one short, and 50
  // zero bits decode as docs 0..9 at impact 1.
  expect_corruption(Column(10, 1, 3, std::string(49, '0')), past_payload);
  auto ten = PostingsFromColumnBits(Column(10, 1, 3, std::string(50, '0')));
  ASSERT_TRUE(ten.ok()) << ten.status().ToString();
  ASSERT_EQ(ten->size(), 10u);
  EXPECT_EQ(ten->back(), (index::Posting{9, 1}));

  // Unary runs of ones to the column's end: an impact run, then a quotient
  // run.
  const std::string run_to_end =
      "PIR column unary run reaches the column's end";
  expect_corruption(Column(1, 255, 0, "1111111111"), run_to_end);
  expect_corruption(Column(1, 255, 0, "0" + std::string(64, '1')),
                    run_to_end);

  // A drop of 2 from impact 3 reaches impact 1; a drop of 3 passes it.
  auto lowest = PostingsFromColumnBits(Column(1, 3, 0, "110 0"));
  ASSERT_TRUE(lowest.ok()) << lowest.status().ToString();
  EXPECT_EQ(*lowest, (std::vector<index::Posting>{{0, 1}}));
  expect_corruption(Column(1, 3, 0, "1110 0"),
                    "PIR column impact drops below 1");
  expect_corruption(Column(2, 3, 0, "0 0  1110 0"),
                    "PIR column impact drops below 1");

  // At k = 31 the largest quotient is 1: quotient 1 with 31 one-bits is doc
  // 2^32 - 1, and quotient 2 would carry a run-start doc past it.
  const std::string max_doc = "0 10" + std::string(31, '1');
  auto top_doc = PostingsFromColumnBits(Column(1, 1, 31, max_doc));
  ASSERT_TRUE(top_doc.ok()) << top_doc.status().ToString();
  EXPECT_EQ(*top_doc, (std::vector<index::Posting>{{0xFFFFFFFFu, 1}}));
  expect_corruption(Column(1, 1, 31, "0 110" + std::string(31, '0')),
                    "PIR column value passes 2^32 - 1");
  // Through a gap at k = 31: doc 2^31 - 1, then in the same run a gap of
  // 2^31 - 1 reaches doc 2^32 - 1, and quotient 1 (a gap of 2^31) carries
  // the doc past it.
  const std::string half = "0 0" + std::string(31, '1');
  auto gap_top = PostingsFromColumnBits(Column(2, 1, 31, half + half));
  ASSERT_TRUE(gap_top.ok()) << gap_top.status().ToString();
  EXPECT_EQ(gap_top->back(), (index::Posting{0xFFFFFFFFu, 1}));
  expect_corruption(Column(2, 1, 31, half + " 0 10" + std::string(31, '0')),
                    "PIR column doc id passes 2^32 - 1");

  // A remainder cut short: at k = 8, a 14-bit quotient leaves no bits for
  // the remainder.
  expect_corruption(Column(1, 1, 8, "0 11111111111111 0"),
                    "PIR column remainder cut short");
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
