// The dense term table behind InvertedIndex: client-chosen term ids at and
// past its end read as unindexed, deltas grow and share it, and pinned
// digests hold the postings of perfbench's fixture index, its shards and
// its delta epochs fixed.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "corpus/generator.h"
#include "index/builder.h"
#include "index/epoch.h"
#include "wordnet/generator.h"

namespace embellish::index {
namespace {

using List = std::vector<Posting>;

ListMap::List Shared(List list) {
  return std::make_shared<const List>(std::move(list));
}

TEST(TermTableTest, IdsAtAndPastTheEndReadAsUnindexed) {
  ListMap table(10);
  table.Set(9, Shared({{4, 2}}));
  const InvertedIndex index(5, std::make_shared<const ListMap>(table), 8);
  ASSERT_EQ(table.table_size(), 10u);
  ASSERT_NE(index.postings(9), nullptr);
  for (wordnet::TermId term :
       {wordnet::TermId{0}, wordnet::TermId{8}, wordnet::TermId{10},
        wordnet::TermId{11}, wordnet::TermId{1} << 31, UINT32_MAX - 1,
        UINT32_MAX}) {
    EXPECT_EQ(index.postings(term), nullptr) << term;
    EXPECT_EQ(index.ListLength(term), 0u) << term;
    EXPECT_EQ(index.ListBytes(term), 0u) << term;
  }
  // An empty table holds no slot at all.
  const InvertedIndex empty(1, std::make_shared<const ListMap>(), 8);
  EXPECT_EQ(empty.postings(0), nullptr);
  EXPECT_EQ(empty.postings(UINT32_MAX), nullptr);
  EXPECT_EQ(empty.term_count(), 0u);
  EXPECT_TRUE(empty.IndexedTerms().empty());
}

TEST(TermTableTest, SparseTableKeepsCountAndSortedTerms) {
  ListMap table(1000);
  table.Set(999, Shared({{1, 3}}));
  table.Set(3, Shared({{2, 1}}));
  table.Set(500, Shared({{0, 5}, {7, 5}}));
  EXPECT_EQ(table.term_count(), 3u);
  // Replacing a list keeps the count; a term past the end grows the table
  // to exactly that term + 1.
  table.Set(3, Shared({{2, 2}}));
  EXPECT_EQ(table.term_count(), 3u);
  table.Set(1200, Shared({{6, 1}}));
  EXPECT_EQ(table.table_size(), 1201u);
  EXPECT_EQ(table.term_count(), 4u);

  const InvertedIndex index(10, std::make_shared<const ListMap>(table), 8);
  EXPECT_EQ(index.term_count(), 4u);
  EXPECT_EQ(index.IndexedTerms(),
            (std::vector<wordnet::TermId>{3, 500, 999, 1200}));
  EXPECT_EQ(*index.postings(3), (List{{2, 2}}));
  EXPECT_EQ(index.ListLength(500), 2u);
  EXPECT_EQ(index.ListBytes(500), 2 * kPostingWireBytes);
}

TEST(TermTableTest, MergeGrowsTheTableForADeltaTermPastItsEnd) {
  ListMap table(8);
  table.Set(2, Shared({{0, 4}, {1, 2}}));
  table.Set(7, Shared({{1, 1}}));
  const InvertedIndex base(2, std::make_shared<const ListMap>(table), 8);

  const std::unordered_map<wordnet::TermId, List> delta = {
      {2, {{2, 3}}}, {40, {{2, 9}, {3, 1}}}, {20, {{3, 2}}}};
  const InvertedIndex next = MergeDeltaLists(base, delta, 4);
  EXPECT_EQ(next.lists()->table_size(), 41u);
  EXPECT_EQ(next.term_count(), 4u);
  EXPECT_EQ(next.IndexedTerms(),
            (std::vector<wordnet::TermId>{2, 7, 20, 40}));
  EXPECT_EQ(*next.postings(2), (List{{0, 4}, {2, 3}, {1, 2}}));
  EXPECT_EQ(*next.postings(40), (List{{2, 9}, {3, 1}}));
  EXPECT_EQ(*next.postings(20), (List{{3, 2}}));
  EXPECT_EQ(next.postings(41), nullptr);
  // The untouched list is shared, and the base reads what it read before.
  EXPECT_EQ(next.postings(7), base.postings(7));
  EXPECT_EQ(base.lists()->table_size(), 8u);
  EXPECT_EQ(base.postings(40), nullptr);
  EXPECT_EQ(*base.postings(2), (List{{0, 4}, {1, 2}}));

  // A shard the delta misses shares its predecessor's whole table.
  const InvertedIndex missed = MergeDeltaLists(base, {}, 4);
  EXPECT_EQ(missed.lists(), base.lists());
  EXPECT_EQ(missed.document_count(), 4u);
}

// FNV-1a 64 over every (term, list length, doc, impact) in term order.
uint64_t PostingsDigest(const InvertedIndex& index) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto put = [&](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (wordnet::TermId term : index.IndexedTerms()) {
    const List& list = *index.postings(term);
    put(term, 4);
    put(list.size(), 4);
    for (const Posting& p : list) {
      put(p.doc, 4);
      put(p.impact, 1);
    }
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(FixtureDigestTest, IndexShardsAndDeltasMatchPinnedDigests) {
  // perfbench's fixture (30,000-term lexicon, 20,000 documents), its 4-shard
  // catalog, and three seeded 8-document deltas drawn as perfbench's writer
  // draws them. The digests were taken with 8-byte postings in hashed term
  // maps, so the in-memory layout must not change a posting.
  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = 30000;
  wo.seed = Mix64(1 ^ 0x1e71c0);
  auto lexicon = wordnet::GenerateSyntheticWordNet(wo);
  ASSERT_TRUE(lexicon.ok());
  corpus::SyntheticCorpusOptions co;
  co.num_docs = 20000;
  co.mean_doc_tokens = 150;
  co.num_topics = 64;
  co.terms_per_topic = 1500;
  co.seed = Mix64(1 ^ 0xc0a9);
  auto corp = corpus::GenerateSyntheticCorpus(*lexicon, co);
  ASSERT_TRUE(corp.ok());
  // Postings do not depend on the buckets; consecutive groups of 4 will do.
  std::vector<std::vector<wordnet::TermId>> groups;
  for (wordnet::TermId t = 0; t < lexicon->term_count(); ++t) {
    if (t % 4 == 0) groups.emplace_back();
    groups.back().push_back(t);
  }
  auto buckets = core::BucketOrganization::Create(std::move(groups));
  ASSERT_TRUE(buckets.ok());
  IndexCatalogOptions options;
  options.sharding.shard_count = 4;
  auto catalog = IndexCatalog::Create(
      *corp, std::make_shared<const core::BucketOrganization>(*buckets),
      options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  auto expect_digests = [](const IndexEpoch& epoch, uint64_t mono,
                           const std::vector<uint64_t>& shards) {
    EXPECT_EQ(PostingsDigest(epoch.index()), mono) << "epoch " << epoch.epoch();
    ASSERT_EQ(epoch.shard_count(), shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(PostingsDigest(epoch.sharded()->shard(s)), shards[s])
          << "epoch " << epoch.epoch() << " shard " << s;
    }
  };
  std::shared_ptr<const IndexEpoch> base = (*catalog)->Acquire();
  EXPECT_EQ(base->index().term_count(), 30257u);
  expect_digests(*base, 0xd56935e6fb353531ull,
                 {0x3a15778ae48a69a9ull, 0x43fa8def854ce4a9ull,
                  0xfae75a7efc1a15f1ull, 0x982cf10413d2076eull});

  const std::vector<wordnet::TermId> terms = base->index().IndexedTerms();
  for (uint64_t round = 0; round < 3; ++round) {
    Rng rng(Mix64(42 ^ (0xde17a0000ull + round)));
    std::vector<corpus::Document> docs(8);
    for (corpus::Document& doc : docs) {
      for (size_t i = 0; i < 150; ++i) {
        doc.tokens.push_back(terms[rng.Uniform(terms.size())]);
      }
    }
    ASSERT_TRUE((*catalog)->ApplyDelta(std::move(docs)).ok());
  }
  std::shared_ptr<const IndexEpoch> after = (*catalog)->Acquire();
  EXPECT_EQ(after->index().document_count(), 20024u);
  // New documents land in the last range shard; the others are shared.
  expect_digests(*after, 0xf5107f6c04fb4325ull,
                 {0x3a15778ae48a69a9ull, 0x43fa8def854ce4a9ull,
                  0xfae75a7efc1a15f1ull, 0xa35f22dbb3576aadull});
}

}  // namespace
}  // namespace embellish::index
