// Shard-vs-monolith bit-equivalence for both retrieval schemes: the sharded
// engines must produce exactly the bytes/postings/rankings the monolithic
// engines produce, serial or pooled, for every partitioning.

#include "core/sharded_retrieval.h"

#include <gtest/gtest.h>

#include "core/wire_format.h"
#include "index/builder.h"
#include "testutil.h"

namespace embellish::core {
namespace {

struct ShardedPipeline {
  wordnet::WordNetDatabase lex;
  corpus::Corpus corp;
  index::BuildOutput built;
  BucketOrganization org;
  storage::StorageLayout layout;
  index::ShardedIndex sharded;
  std::vector<storage::StorageLayout> shard_layouts;

  explicit ShardedPipeline(size_t shards,
                           index::ShardPartition partition =
                               index::ShardPartition::kDocRange,
                           uint64_t seed = 71)
      : lex(testutil::SmallSyntheticLexicon(1500, seed)),
        corp(testutil::SmallCorpus(lex, 150, seed + 1)),
        built(std::move(index::BuildIndex(corp, {})).value()),
        org(testutil::MakeBuckets(lex, 4, 64)),
        layout(storage::StorageLayout::Build(
            built.index, org.buckets(),
            storage::LayoutPolicy::kBucketColocated, {})),
        sharded(std::move(index::ShardedIndex::Build(
                              built.index,
                              {.shard_count = shards, .partition = partition}))
                    .value()),
        shard_layouts(BuildShardLayouts(
            sharded, org, storage::LayoutPolicy::kBucketColocated, {})) {}
};

crypto::BenalohKeyPair MakeKeys(uint64_t seed) {
  Rng rng(seed);
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  return std::move(crypto::BenalohKeyPair::Generate(ko, &rng)).value();
}

TEST(ShardedPrTest, MergedResultBitIdenticalToMonolith) {
  for (size_t shards : {1u, 2u, 4u}) {
    for (index::ShardPartition partition :
         {index::ShardPartition::kDocRange, index::ShardPartition::kDocHash}) {
      ShardedPipeline p(shards, partition);
      auto keys = MakeKeys(81);
      PrivateRetrievalClient client(&p.org, &keys.public_key(),
                                    &keys.private_key());
      PrivateRetrievalServer mono(&p.built.index, &p.org, &p.layout);
      ShardedPrivateRetrievalServer shard_server(&p.sharded, &p.org,
                                                 &p.shard_layouts);

      Rng rng(82);
      auto terms = p.built.index.IndexedTerms();
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<wordnet::TermId> genuine{
            terms[rng.Uniform(terms.size())],
            terms[rng.Uniform(terms.size())]};
        auto query = client.FormulateQuery(genuine, &rng, nullptr);
        ASSERT_TRUE(query.ok());

        auto mono_result = mono.Process(*query, keys.public_key(), nullptr);
        RetrievalCosts costs;
        auto shard_result =
            shard_server.Process(*query, keys.public_key(), &costs);
        ASSERT_TRUE(mono_result.ok());
        ASSERT_TRUE(shard_result.ok());
        // Bit-identical on the wire — same candidates, same doc order, same
        // ciphertext residues.
        EXPECT_EQ(EncodeResult(*shard_result, keys.public_key()),
                  EncodeResult(*mono_result, keys.public_key()))
            << "shards=" << shards;
        if (shards > 1) {
          EXPECT_GT(costs.server_cpu_ms, 0.0);
          EXPECT_GT(costs.server_io_ms, 0.0);
        }
      }
    }
  }
}

TEST(ShardedPrTest, PooledFanOutBitIdenticalToSerial) {
  ShardedPipeline p(4);
  auto keys = MakeKeys(83);
  PrivateRetrievalClient client(&p.org, &keys.public_key(),
                                &keys.private_key());
  ThreadPool pool(4);
  ShardedPrivateRetrievalServer serial(&p.sharded, &p.org, &p.shard_layouts);
  ShardedPrivateRetrievalServer pooled(&p.sharded, &p.org, &p.shard_layouts,
                                       {}, {}, &pool);

  Rng rng(84);
  auto terms = p.built.index.IndexedTerms();
  std::vector<wordnet::TermId> genuine{terms[3], terms[41], terms[97]};
  auto query = client.FormulateQuery(genuine, &rng, nullptr);
  ASSERT_TRUE(query.ok());
  auto a = serial.Process(*query, keys.public_key(), nullptr);
  auto b = pooled.Process(*query, keys.public_key(), nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(EncodeResult(*a, keys.public_key()),
            EncodeResult(*b, keys.public_key()));
}

TEST(ShardedPrTest, EndToEndRankingMatchesPlaintext) {
  ShardedPipeline p(3);
  auto keys = MakeKeys(85);
  PrivateRetrievalClient client(&p.org, &keys.public_key(),
                                &keys.private_key());
  ShardedPrivateRetrievalServer server(&p.sharded, &p.org, &p.shard_layouts);

  Rng rng(86);
  auto terms = p.built.index.IndexedTerms();
  std::vector<wordnet::TermId> genuine{terms[5], terms[23]};
  auto query = client.FormulateQuery(genuine, &rng, nullptr);
  ASSERT_TRUE(query.ok());
  auto encrypted = server.Process(*query, keys.public_key(), nullptr);
  ASSERT_TRUE(encrypted.ok());
  auto ranked = client.PostFilter(*encrypted, 15, nullptr);
  ASSERT_TRUE(ranked.ok());

  auto reference = index::EvaluateFull(p.built.index, genuine);
  if (reference.size() > 15) reference.resize(15);
  ASSERT_EQ(ranked->size(), reference.size());
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ((*ranked)[i], reference[i]);
  }
}

TEST(ShardedPirTest, RetrievedListsBitIdenticalToIndex) {
  for (size_t shards : {1u, 2u, 4u}) {
    ShardedPipeline p(shards);
    ShardedPirRetrievalServer server(&p.sharded, &p.org, &p.shard_layouts);
    Rng rng(87);
    auto client = PirRetrievalClient::Create(&p.org, 128, &rng);
    ASSERT_TRUE(client.ok());

    auto terms = p.built.index.IndexedTerms();
    for (size_t i = 0; i < 5; ++i) {
      wordnet::TermId term = terms[rng.Uniform(terms.size())];
      RetrievalCosts costs;
      auto list = RetrieveListSharded(*client, server, term, &rng, &costs);
      ASSERT_TRUE(list.ok()) << list.status().ToString();
      EXPECT_EQ(*list, *p.built.index.postings(term)) << "shards=" << shards;
      EXPECT_GT(costs.uplink_bytes, 0u);
      EXPECT_GT(costs.downlink_bytes, 0u);
    }
  }
}

TEST(ShardedPirTest, PooledAnswersMatchSerial) {
  ShardedPipeline p(4);
  ThreadPool pool(4);
  ShardedPirRetrievalServer serial(&p.sharded, &p.org, &p.shard_layouts);
  ShardedPirRetrievalServer pooled(&p.sharded, &p.org, &p.shard_layouts, {},
                                   &pool);
  Rng rng(88);
  auto client = PirRetrievalClient::Create(&p.org, 128, &rng);
  ASSERT_TRUE(client.ok());

  auto terms = p.built.index.IndexedTerms();
  wordnet::TermId term = terms[11];
  auto where = p.org.Locate(term);
  ASSERT_TRUE(where.ok());
  auto query = client->pir_client().BuildQuery(
      where->slot, p.org.bucket(where->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());

  auto a = serial.AnswerAll(where->bucket, *query, nullptr);
  auto b = pooled.AnswerAll(where->bucket, *query, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t s = 0; s < a->size(); ++s) {
    EXPECT_EQ((*a)[s].value_size, (*b)[s].value_size);
    EXPECT_EQ((*a)[s].values, (*b)[s].values) << "shard " << s;
  }
}

TEST(ShardedPirTest, RunQueryShardedMatchesPlaintextRanking) {
  ShardedPipeline p(3, index::ShardPartition::kDocHash);
  ShardedPirRetrievalServer server(&p.sharded, &p.org, &p.shard_layouts);
  Rng rng(89);
  auto client = PirRetrievalClient::Create(&p.org, 128, &rng);
  ASSERT_TRUE(client.ok());

  auto terms = p.built.index.IndexedTerms();
  std::vector<wordnet::TermId> query{terms[2], terms[31], terms[64]};
  RetrievalCosts costs;
  auto ranked = RunQuerySharded(*client, server, query, 20, &rng, &costs);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();

  auto reference = index::EvaluateFull(p.built.index, query);
  if (reference.size() > 20) reference.resize(20);
  ASSERT_EQ(ranked->size(), reference.size());
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ((*ranked)[i], reference[i]);
  }
  EXPECT_GT(costs.server_io_ms, 0.0);
  EXPECT_GT(costs.server_cpu_ms, 0.0);
}

TEST(ShardedPirTest, ShardOutOfRangeSurfacesError) {
  ShardedPipeline p(2);
  ShardedPirRetrievalServer server(&p.sharded, &p.org, &p.shard_layouts);
  crypto::PirQuery bogus;
  RetrievalCosts costs;
  EXPECT_FALSE(server.Answer(99, 0, bogus, &costs).ok());
}

}  // namespace
}  // namespace embellish::core
