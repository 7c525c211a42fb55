// Tests for the PR scheme — including the library's central correctness
// property, Claim 1: the private pipeline's ranking equals a plaintext
// engine's ranking over the genuine terms alone.

#include "core/private_retrieval.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "index/builder.h"
#include "testutil.h"

namespace embellish::core {
namespace {

struct Pipeline {
  wordnet::WordNetDatabase lex;
  corpus::Corpus corp;
  index::BuildOutput built;
  BucketOrganization org;
  storage::StorageLayout layout;
  std::unique_ptr<crypto::BenalohKeyPair> keys;
  std::unique_ptr<PrivateRetrievalClient> client;
  std::unique_ptr<PrivateRetrievalServer> server;

  Pipeline(size_t bucket_size, uint64_t seed,
           PrivateRetrievalServerOptions server_options = {})
      : lex(testutil::SmallSyntheticLexicon(2000, seed)),
        corp(testutil::SmallCorpus(lex, 250, seed + 1)),
        built(std::move(index::BuildIndex(corp, {})).value()),
        org(testutil::MakeBuckets(lex, bucket_size, 64)),
        layout(storage::StorageLayout::Build(
            built.index, org.buckets(),
            storage::LayoutPolicy::kBucketColocated, {})) {
    Rng rng(seed + 2);
    crypto::BenalohKeyOptions ko;
    ko.key_bits = 256;
    ko.r = 59049;
    keys = std::make_unique<crypto::BenalohKeyPair>(
        std::move(crypto::BenalohKeyPair::Generate(ko, &rng)).value());
    client = std::make_unique<PrivateRetrievalClient>(
        &org, &keys->public_key(), &keys->private_key());
    server = std::make_unique<PrivateRetrievalServer>(
        &built.index, &org, &layout, storage::DiskModelOptions{},
        server_options);
  }

  std::vector<wordnet::TermId> RandomIndexedQuery(size_t len, Rng* rng) {
    auto terms = built.index.IndexedTerms();
    std::vector<wordnet::TermId> q;
    for (size_t i = 0; i < len; ++i) {
      q.push_back(terms[rng->Uniform(terms.size())]);
    }
    return q;
  }
};

// --- Claim 1, the paper's central guarantee -------------------------------

class Claim1Test : public ::testing::TestWithParam<size_t> {};

TEST_P(Claim1Test, PrivateRankingEqualsPlaintextRanking) {
  const size_t bucket_size = GetParam();
  Pipeline p(bucket_size, 71);
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    auto query = p.RandomIndexedQuery(4 + trial, &rng);
    RetrievalCosts costs;
    auto ranked = RunPrivateQuery(*p.client, *p.server, p.keys->public_key(),
                                  query, 50, &rng, &costs);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();

    // Plaintext reference over the DISTINCT genuine terms (the embellisher
    // collapses duplicates).
    std::vector<wordnet::TermId> distinct = query;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    auto reference = index::EvaluateFull(p.built.index, distinct);
    if (reference.size() > 50) reference.resize(50);

    ASSERT_EQ(ranked->size(), reference.size());
    for (size_t i = 0; i < ranked->size(); ++i) {
      EXPECT_EQ((*ranked)[i].doc, reference[i].doc) << "rank " << i;
      EXPECT_EQ((*ranked)[i].score, reference[i].score) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BucketSizes, Claim1Test,
                         ::testing::Values(2, 4, 8, 16));

TEST(Claim1NaiveModeTest, PaperFaithfulModexpAgreesToo) {
  PrivateRetrievalServerOptions so;
  so.use_power_table = false;
  Pipeline p(4, 72, so);
  Rng rng(100);
  auto query = p.RandomIndexedQuery(5, &rng);
  RetrievalCosts costs;
  auto ranked = RunPrivateQuery(*p.client, *p.server, p.keys->public_key(),
                                query, 30, &rng, &costs);
  ASSERT_TRUE(ranked.ok());
  std::vector<wordnet::TermId> distinct = query;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  auto reference = index::EvaluateFull(p.built.index, distinct);
  if (reference.size() > 30) reference.resize(30);
  ASSERT_EQ(ranked->size(), reference.size());
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ((*ranked)[i].doc, reference[i].doc);
    EXPECT_EQ((*ranked)[i].score, reference[i].score);
  }
}

// --- Server-side behaviour -------------------------------------------------

TEST(PrivateRetrievalServerTest, DecoysDoNotChangeScoresButWidenCandidates) {
  Pipeline p(8, 73);
  Rng rng(101);
  auto query = p.RandomIndexedQuery(3, &rng);
  RetrievalCosts costs;
  auto formulated = p.client->FormulateQuery(query, &rng, &costs);
  ASSERT_TRUE(formulated.ok());
  auto encrypted = p.server->Process(*formulated, p.keys->public_key(),
                                     &costs);
  ASSERT_TRUE(encrypted.ok());

  // The candidate set is the union over ALL embellished terms' lists —
  // strictly larger than the genuine-only candidate set in general.
  std::vector<wordnet::TermId> distinct = query;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  auto genuine_only = index::EvaluateFull(p.built.index, distinct);
  EXPECT_GE(encrypted->candidates.size(), genuine_only.size());

  // Decoy-reached candidates decrypt to zero and are filtered client-side.
  auto ranked = p.client->PostFilter(*encrypted, 1000000, &costs);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), genuine_only.size());
}

TEST(PrivateRetrievalServerTest, EmptyQueryRejected) {
  Pipeline p(4, 74);
  EmbellishedQuery empty;
  RetrievalCosts costs;
  EXPECT_FALSE(p.server->Process(empty, p.keys->public_key(), &costs).ok());
}

TEST(PrivateRetrievalServerTest, IoChargedPerDistinctBucket) {
  Pipeline p(4, 75);
  Rng rng(102);
  // One genuine term -> exactly one bucket fetch.
  auto q1 = p.RandomIndexedQuery(1, &rng);
  RetrievalCosts c1;
  auto f1 = p.client->FormulateQuery(q1, &rng, &c1);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(p.server->Process(*f1, p.keys->public_key(), &c1).ok());
  EXPECT_GT(c1.server_io_ms, 0.0);

  // The same term twice costs the same I/O as once.
  RetrievalCosts c2;
  auto f2 = p.client->FormulateQuery({q1[0], q1[0]}, &rng, &c2);
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(p.server->Process(*f2, p.keys->public_key(), &c2).ok());
  EXPECT_DOUBLE_EQ(c1.server_io_ms, c2.server_io_ms);
}

TEST(PrivateRetrievalServerTest, NullLayoutSkipsIoAccounting) {
  Pipeline p(4, 76);
  PrivateRetrievalServer no_io(&p.built.index, &p.org, nullptr);
  Rng rng(103);
  RetrievalCosts costs;
  auto f = p.client->FormulateQuery(p.RandomIndexedQuery(2, &rng), &rng,
                                    &costs);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(no_io.Process(*f, p.keys->public_key(), &costs).ok());
  EXPECT_DOUBLE_EQ(costs.server_io_ms, 0.0);
  EXPECT_GT(costs.server_cpu_ms, 0.0);
}

// --- Client-side behaviour --------------------------------------------------

TEST(PrivateRetrievalServerTest, PooledProcessMatchesSerialBitExactly) {
  // Algorithm 4's per-document merge is commutative modular multiplication,
  // so the pooled evaluation must produce byte-identical ciphertexts.
  Pipeline p(4, 909);
  ThreadPool pool(4);
  PrivateRetrievalServer pooled_server(&p.built.index, &p.org, &p.layout,
                                       storage::DiskModelOptions{}, {},
                                       &pool);
  Rng rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    auto query = p.RandomIndexedQuery(6, &rng);
    RetrievalCosts costs;
    auto formulated = p.client->FormulateQuery(query, &rng, &costs);
    ASSERT_TRUE(formulated.ok());
    auto serial = p.server->Process(*formulated, p.keys->public_key(), &costs);
    ASSERT_TRUE(serial.ok());
    auto pooled =
        pooled_server.Process(*formulated, p.keys->public_key(), &costs);
    ASSERT_TRUE(pooled.ok());
    ASSERT_EQ(serial->candidates.size(), pooled->candidates.size());
    for (size_t i = 0; i < serial->candidates.size(); ++i) {
      EXPECT_EQ(serial->candidates[i].doc, pooled->candidates[i].doc);
      EXPECT_EQ(serial->candidates[i].score, pooled->candidates[i].score);
    }
  }
}

TEST(PrivateRetrievalClientTest, PooledClientMatchesSerialClient) {
  // The pooled client batches its indicator encryptions; nonces are drawn
  // serially, so queries from equal rng states are identical.
  Pipeline p(4, 910);
  ThreadPool pool(4);
  PrivateRetrievalClient pooled_client(&p.org, &p.keys->public_key(),
                                       &p.keys->private_key(), &pool);
  Rng rng(12);
  auto query = p.RandomIndexedQuery(5, &rng);
  Rng rng_a(77), rng_b(77);
  auto serial_q = p.client->FormulateQuery(query, &rng_a, nullptr);
  auto pooled_q = pooled_client.FormulateQuery(query, &rng_b, nullptr);
  ASSERT_TRUE(serial_q.ok());
  ASSERT_TRUE(pooled_q.ok());
  ASSERT_EQ(serial_q->entries.size(), pooled_q->entries.size());
  for (size_t i = 0; i < serial_q->entries.size(); ++i) {
    EXPECT_EQ(serial_q->entries[i].term, pooled_q->entries[i].term);
    EXPECT_EQ(serial_q->entries[i].indicator, pooled_q->entries[i].indicator);
  }
}

TEST(PrivateRetrievalClientTest, PostFilterDropsZeroScores) {
  Pipeline p(4, 77);
  Rng rng(104);
  // Construct an encrypted result of two candidates: score 7 and score 0,
  // each under a bound it does not exceed, in (bound desc, doc asc) order.
  EncryptedResult result;
  auto c7 = p.keys->public_key().Encrypt(7, &rng);
  auto c0 = p.keys->public_key().Encrypt(0, &rng);
  result.candidates.push_back({0, 9, *c7});
  result.candidates.push_back({1, 4, *c0});
  RetrievalCosts costs;
  auto ranked = p.client->PostFilter(result, 10, &costs);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 1u);
  EXPECT_EQ((*ranked)[0].doc, 0u);
  EXPECT_EQ((*ranked)[0].score, 7u);
}

TEST(PrivateRetrievalClientTest, PostFilterRespectsK) {
  Pipeline p(4, 78);
  Rng rng(105);
  // Doc i scores 10 + i under the bound 19 for all: no candidate can be
  // passed over, so all ten are decrypted.
  EncryptedResult result;
  for (uint64_t i = 0; i < 10; ++i) {
    auto c = p.keys->public_key().Encrypt(10 + i, &rng);
    result.candidates.push_back({static_cast<corpus::DocId>(i), 19, *c});
  }
  RetrievalCosts costs;
  auto ranked = p.client->PostFilter(result, 3, &costs);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 3u);
  EXPECT_EQ((*ranked)[0].score, 19u);  // highest first
  EXPECT_EQ((*ranked)[2].score, 17u);
  EXPECT_EQ(costs.decryptions, 10u);
}

TEST(PrivateRetrievalClientTest, TamperedScoreSurfacesAsError) {
  Pipeline p(4, 79);
  EncryptedResult result;
  // A ciphertext outside Z*_n.
  result.candidates.push_back(
      {0, 1, crypto::BenalohCiphertext{p.keys->public_key().n()}});
  RetrievalCosts costs;
  EXPECT_FALSE(p.client->PostFilter(result, 10, &costs).ok());
}

TEST(PrivateRetrievalClientTest, ScoreAboveItsBoundIsCorruption) {
  // A bound below the true score is undetectable when the threshold stops
  // before that candidate; a decrypted score above its own bound is not.
  Pipeline p(4, 82);
  Rng rng(108);
  EncryptedResult result;
  result.candidates.push_back({3, 6, *p.keys->public_key().Encrypt(7, &rng)});
  auto ranked = p.client->PostFilter(result, 10, nullptr);
  ASSERT_FALSE(ranked.ok());
  EXPECT_TRUE(ranked.status().IsCorruption());
  EXPECT_EQ(ranked.status().message(),
            "PR candidate 3 decrypts to score 7 above its bound 6");
}

TEST(PrivateRetrievalClientTest, CandidatesOutOfOrderAreCorruption) {
  Pipeline p(4, 83);
  Rng rng(109);
  const crypto::BenalohCiphertext c = *p.keys->public_key().Encrypt(1, &rng);
  // A bound that rises, a doc that falls within a bound run, a repeat.
  const std::vector<std::vector<EncryptedCandidate>> refused = {
      {{0, 3, c}, {1, 5, c}}, {{1, 5, c}, {0, 5, c}}, {{1, 5, c}, {1, 5, c}}};
  for (const auto& candidates : refused) {
    auto ranked =
        p.client->PostFilter(EncryptedResult{candidates}, 10, nullptr);
    ASSERT_FALSE(ranked.ok());
    EXPECT_EQ(ranked.status().message(),
              "PR candidates leave (bound desc, doc asc) order at 1");
  }
}

// Algorithm 5 as the paper states it: decrypt every candidate, drop zero
// scores, rank, keep the top k.
std::vector<index::ScoredDoc> FullDecryptionTopK(
    const EncryptedResult& result, const crypto::BenalohPrivateKey& key,
    size_t k) {
  std::vector<index::ScoredDoc> scored;
  for (const EncryptedCandidate& cand : result.candidates) {
    const uint64_t score = key.Decrypt(cand.score).value();
    if (score > 0) scored.push_back({cand.doc, score});
  }
  index::SortByScore(&scored);
  if (scored.size() > k) scored.resize(k);
  return scored;
}

TEST(PrivateRetrievalClientTest, ThresholdPostFilterEqualsFullDecryption) {
  // Random queries of 1 to 6 terms, k from 0 past the candidate count: the
  // threshold's top k is full decryption's, and at k = 10 it decrypts well
  // under half of the candidates.
  Pipeline p(4, 84);
  Rng rng(110);
  uint64_t candidates_at_10 = 0;
  uint64_t decrypted_at_10 = 0;
  for (int trial = 0; trial < 24; ++trial) {
    auto query = p.RandomIndexedQuery(1 + trial % 6, &rng);
    auto formulated = p.client->FormulateQuery(query, &rng, nullptr);
    ASSERT_TRUE(formulated.ok());
    auto result = p.server->Process(*formulated, p.keys->public_key(), nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(std::is_sorted(result->candidates.begin(),
                               result->candidates.end(), CandidateOrder));
    const size_t n = result->candidates.size();
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{10}, size_t{50},
                     n, n + 5}) {
      RetrievalCosts costs;
      auto ranked = p.client->PostFilter(*result, k, &costs);
      ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
      EXPECT_EQ(*ranked, FullDecryptionTopK(*result, p.keys->private_key(), k))
          << "trial " << trial << " k " << k;
      EXPECT_LE(costs.decryptions, n);
      if (k == 0) EXPECT_EQ(costs.decryptions, 0u);
      if (k == 10) {
        candidates_at_10 += n;
        decrypted_at_10 += costs.decryptions;
      }
    }
  }
  EXPECT_LT(2 * decrypted_at_10, candidates_at_10);
}

TEST(PrivateRetrievalClientTest, ThresholdPostFilterBreaksTiesByDocId) {
  // (bound, doc, score) in CandidateOrder. At k = 2 the k-th after two
  // decryptions is (score 5, doc 10). The next candidate has a lower bound,
  // 5, but a smaller doc id, 2, so it may tie and rank first: it is
  // decrypted. Then (bound 5, doc 20) cannot beat (5, doc 2), and the
  // threshold stops after 3 of the 5 decryptions.
  Pipeline p(4, 85);
  Rng rng(111);
  struct Row {
    uint32_t bound;
    corpus::DocId doc;
    uint64_t score;
  };
  const Row rows[] = {{9, 4, 9}, {9, 10, 5}, {5, 2, 5}, {5, 20, 5}, {4, 1, 4}};
  EncryptedResult result;
  for (const Row& row : rows) {
    result.candidates.push_back(
        {row.doc, row.bound, *p.keys->public_key().Encrypt(row.score, &rng)});
  }
  const struct {
    size_t k;
    uint64_t decryptions;
  } cases[] = {{1, 1}, {2, 3}, {3, 3}, {4, 4}, {5, 5}, {6, 5}};
  for (const auto& c : cases) {
    RetrievalCosts costs;
    auto ranked = p.client->PostFilter(result, c.k, &costs);
    ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
    EXPECT_EQ(*ranked, FullDecryptionTopK(result, p.keys->private_key(), c.k))
        << "k " << c.k;
    EXPECT_EQ(costs.decryptions, c.decryptions) << "k " << c.k;
  }
  auto top2 = p.client->PostFilter(result, 2, nullptr);
  ASSERT_TRUE(top2.ok());
  EXPECT_EQ(*top2, (std::vector<index::ScoredDoc>{{4, 9}, {2, 5}}));
}

TEST(PrivateRetrievalClientTest, FewerPositiveScoresThanKDecryptsEverything) {
  // With fewer than k positive scores the top k never fills, so every
  // candidate is decrypted and the positive ones come back.
  Pipeline p(4, 86);
  Rng rng(112);
  EncryptedResult result;
  const uint64_t scores[] = {0, 3, 0, 0, 1};
  for (uint32_t i = 0; i < 5; ++i) {
    result.candidates.push_back(
        {i, 3, *p.keys->public_key().Encrypt(scores[i], &rng)});
  }
  RetrievalCosts costs;
  auto ranked = p.client->PostFilter(result, 3, &costs);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(*ranked, (std::vector<index::ScoredDoc>{{1, 3}, {4, 1}}));
  EXPECT_EQ(costs.decryptions, 5u);
}

// --- Cost accounting ---------------------------------------------------------

TEST(RetrievalCostsTest, AddAccumulates) {
  RetrievalCosts a;
  a.server_io_ms = 1;
  a.server_cpu_ms = 2;
  a.uplink_bytes = 3;
  a.downlink_bytes = 4;
  a.user_cpu_ms = 5;
  a.decryptions = 6;
  RetrievalCosts b = a;
  b.Add(a);
  EXPECT_DOUBLE_EQ(b.server_io_ms, 2);
  EXPECT_DOUBLE_EQ(b.server_cpu_ms, 4);
  EXPECT_EQ(b.uplink_bytes, 6u);
  EXPECT_EQ(b.downlink_bytes, 8u);
  EXPECT_DOUBLE_EQ(b.user_cpu_ms, 10);
  EXPECT_EQ(b.decryptions, 12u);
}

TEST(PrivateRetrievalCostsTest, WireAccountingConsistent) {
  Pipeline p(8, 80);
  Rng rng(106);
  auto query = p.RandomIndexedQuery(3, &rng);
  RetrievalCosts costs;
  auto f = p.client->FormulateQuery(query, &rng, &costs);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(costs.uplink_bytes, f->WireBytes(p.keys->public_key()));
  auto enc = p.server->Process(*f, p.keys->public_key(), &costs);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(costs.downlink_bytes, enc->WireBytes(p.keys->public_key()));
  EXPECT_GT(costs.user_cpu_ms, 0.0);
}

TEST(PrivateRetrievalCostsTest, LargerBucketsCostMoreUplink) {
  Pipeline small(2, 81);
  Pipeline large(16, 81);
  Rng rng(107);
  auto terms_small = small.built.index.IndexedTerms();
  wordnet::TermId t = terms_small[17];
  RetrievalCosts cs, cl;
  ASSERT_TRUE(small.client->FormulateQuery({t}, &rng, &cs).ok());
  ASSERT_TRUE(large.client->FormulateQuery({t}, &rng, &cl).ok());
  EXPECT_GT(cl.uplink_bytes, cs.uplink_bytes);
}

}  // namespace
}  // namespace embellish::core
