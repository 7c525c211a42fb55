#include "index/sharding.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/builder.h"
#include "index/epoch.h"
#include "testutil.h"

namespace embellish::index {
namespace {

class ShardingTest : public ::testing::Test {
 protected:
  ShardingTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 51)),
        corp_(testutil::SmallCorpus(lex_, 180, 52)),
        built_(std::move(BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)) {}

  // A frozen epoch of the index partitioned per `o` (no layouts).
  std::shared_ptr<const IndexEpoch> Partitioned(const ShardingOptions& o) {
    IndexCatalogOptions options;
    options.sharding = o;
    options.build_layouts = false;
    auto catalog = IndexCatalog::Freeze(&built_.index, &org_, options);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return (*catalog)->Acquire();
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  index::BuildOutput built_;
  core::BucketOrganization org_;
};

TEST(ShardingOptionsTest, ZeroShardsRejected) {
  ShardingOptions o;
  o.shard_count = 0;
  EXPECT_FALSE(o.Validate().ok());
  wordnet::WordNetDatabase lex = testutil::SmallSyntheticLexicon(500, 61);
  corpus::Corpus corp = testutil::SmallCorpus(lex, 40, 62);
  auto built = BuildIndex(corp, {});
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(ShardedIndex::Build(built->index, o).ok());
}

TEST(ShardOfDocTest, PartitionsAreTotalAndDeterministic) {
  for (ShardPartition p : {ShardPartition::kDocRange, ShardPartition::kDocHash}) {
    ShardingOptions o;
    o.shard_count = 4;
    o.partition = p;
    for (corpus::DocId d = 0; d < 1000; ++d) {
      size_t s = ShardOfDoc(d, 1000, o);
      EXPECT_LT(s, 4u);
      EXPECT_EQ(s, ShardOfDoc(d, 1000, o));  // stable
    }
  }
}

TEST(ShardOfDocTest, RangePartitionIsContiguousAndBalanced) {
  ShardingOptions o;
  o.shard_count = 4;
  o.partition = ShardPartition::kDocRange;
  // 100 docs over 4 shards: 25 per shard, in doc-id order.
  std::vector<size_t> counts(4, 0);
  size_t last = 0;
  for (corpus::DocId d = 0; d < 100; ++d) {
    size_t s = ShardOfDoc(d, 100, o);
    EXPECT_GE(s, last);  // monotone in doc id
    last = s;
    ++counts[s];
  }
  for (size_t c : counts) EXPECT_EQ(c, 25u);
}

TEST(ShardOfDocTest, HashPartitionSpreadsDocs) {
  ShardingOptions o;
  o.shard_count = 8;
  o.partition = ShardPartition::kDocHash;
  std::vector<size_t> counts(8, 0);
  for (corpus::DocId d = 0; d < 8000; ++d) ++counts[ShardOfDoc(d, 8000, o)];
  for (size_t c : counts) {
    EXPECT_GT(c, 800u);  // no empty or starved shard at 1000 expected
    EXPECT_LT(c, 1200u);
  }
}

TEST_F(ShardingTest, ShardsPartitionEveryPostingExactlyOnce) {
  for (ShardPartition p : {ShardPartition::kDocRange, ShardPartition::kDocHash}) {
    ShardingOptions o;
    o.shard_count = 4;
    o.partition = p;
    auto sharded = ShardedIndex::Build(built_.index, o);
    ASSERT_TRUE(sharded.ok());
    EXPECT_EQ(sharded->shard_count(), 4u);

    for (wordnet::TermId term : built_.index.IndexedTerms()) {
      const std::vector<Posting>& mono = *built_.index.postings(term);
      std::vector<std::vector<Posting>> fragments;
      size_t total = 0;
      for (size_t s = 0; s < sharded->shard_count(); ++s) {
        const std::vector<Posting>* frag = sharded->shard(s).postings(term);
        if (frag == nullptr) {
          fragments.emplace_back();
          continue;
        }
        // Every posting is owned by the doc's shard.
        for (const Posting& post : *frag) {
          EXPECT_EQ(ShardOfDoc(post.doc, built_.index.document_count(), o), s);
        }
        // Fragments keep the canonical (impact desc, doc asc) order.
        EXPECT_TRUE(std::is_sorted(frag->begin(), frag->end(), PostingOrder));
        total += frag->size();
        fragments.push_back(*frag);
      }
      EXPECT_EQ(total, mono.size());
      // Merging the fragments reproduces the monolithic list bit-for-bit.
      EXPECT_EQ(MergeShardPostings(fragments), mono);
    }
  }
}

TEST_F(ShardingTest, ShardedTopKIsBitIdenticalToMonolithicFull) {
  Rng rng(5);
  auto terms = built_.index.IndexedTerms();
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    for (ShardPartition p :
         {ShardPartition::kDocRange, ShardPartition::kDocHash}) {
      ShardingOptions o;
      o.shard_count = shards;
      o.partition = p;
      auto epoch = Partitioned(o);
      ASSERT_EQ(epoch->shard_count(), shards);
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<wordnet::TermId> query;
        for (int i = 0; i < 4; ++i) {
          query.push_back(terms[rng.Uniform(terms.size())]);
        }
        auto reference = EvaluateFull(built_.index, query);
        for (size_t k : {1u, 10u, 50u}) {
          auto expected = reference;
          if (expected.size() > k) expected.resize(k);
          auto got = EvaluateTopKEpoch(*epoch, query, k);
          ASSERT_EQ(got.size(), expected.size());
          for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], expected[i]);
          }
        }
      }
    }
  }
}

TEST_F(ShardingTest, PooledShardEvaluationMatchesSerial) {
  ThreadPool pool(4);
  ShardingOptions o;
  o.shard_count = 4;
  auto epoch = Partitioned(o);
  Rng rng(6);
  auto terms = built_.index.IndexedTerms();
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<wordnet::TermId> query;
    for (int i = 0; i < 5; ++i) {
      query.push_back(terms[rng.Uniform(terms.size())]);
    }
    // The pool evaluates shards in waves of its width, so the two may skip
    // different shards; the answer cannot differ.
    EXPECT_EQ(EvaluateTopKEpoch(*epoch, query, 20, nullptr),
              EvaluateTopKEpoch(*epoch, query, 20, &pool));
  }
}

}  // namespace
}  // namespace embellish::index
