// IndexCatalog semantics: epoch numbering and pinning, delta ingestion
// under frozen statistics, background reshard, the frozen-catalog shims,
// and the impact-bound shard-skipping evaluator (identical bytes, fewer
// shard visits).

#include "index/epoch.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/answer_path.h"
#include "index/topk.h"
#include "testutil.h"

namespace embellish::index {
namespace {

class IndexEpochTest : public ::testing::Test {
 protected:
  IndexEpochTest()
      : lex_(testutil::SmallSyntheticLexicon(1200, 811)),
        corp_(testutil::SmallCorpus(lex_, 120, 812)),
        org_(std::make_shared<core::BucketOrganization>(
            testutil::MakeBuckets(lex_, 4, 64))) {}

  std::unique_ptr<IndexCatalog> MakeCatalog(size_t shard_count,
                                            ThreadPool* pool = nullptr) {
    IndexCatalogOptions options;
    options.sharding.shard_count = shard_count;
    options.build_layouts = false;  // index-only tests skip layout cost
    auto catalog = IndexCatalog::Create(corp_, org_, options, pool);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return std::move(*catalog);
  }

  // Fresh documents over terms the corpus already uses, ids left to the
  // catalog (it assigns sequentially past the current count).
  std::vector<corpus::Document> SomeDeltaDocs(size_t count, uint64_t salt) {
    std::vector<wordnet::TermId> terms = corp_.DistinctTerms();
    std::vector<corpus::Document> docs(count);
    for (size_t d = 0; d < count; ++d) {
      for (size_t t = 0; t < 40; ++t) {
        docs[d].tokens.push_back(
            terms[(salt + 31 * d + 7 * t) % terms.size()]);
      }
    }
    return docs;
  }

  std::vector<wordnet::TermId> SomeTerms(size_t a, size_t b) {
    auto terms = corp_.DistinctTerms();
    return {terms[a % terms.size()], terms[b % terms.size()]};
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  std::shared_ptr<core::BucketOrganization> org_;
};

TEST_F(IndexEpochTest, CreateBuildsEpochOneMatchingBuildIndex) {
  auto catalog = MakeCatalog(3);
  auto snapshot = catalog->Acquire();
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(snapshot->shard_count(), 3u);
  ASSERT_NE(snapshot->sharded(), nullptr);
  EXPECT_FALSE(catalog->frozen());

  // The catalog's monolithic index is the same index a direct build
  // produces: every term's list matches posting for posting.
  auto direct = BuildIndex(corp_, {});
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(snapshot->index().document_count(),
            direct->index.document_count());
  for (wordnet::TermId term : direct->index.IndexedTerms()) {
    ASSERT_NE(snapshot->index().postings(term), nullptr);
    EXPECT_EQ(*snapshot->index().postings(term),
              *direct->index.postings(term));
  }
  EXPECT_EQ(catalog->stats().epoch_swaps, 0u);  // the first epoch is no swap
}

TEST_F(IndexEpochTest, PooledCreateMatchesThePoolLessCatalog) {
  // The catalog hands its pool to BuildIndex: every monolithic and shard
  // list must come out exactly as the pool-less catalog's.
  ThreadPool pool(4);
  for (size_t shard_count : {1, 3}) {
    SCOPED_TRACE(shard_count);
    auto serial = MakeCatalog(shard_count)->Acquire();
    auto pooled = MakeCatalog(shard_count, &pool)->Acquire();
    ASSERT_EQ(pooled->index().IndexedTerms(), serial->index().IndexedTerms());
    for (wordnet::TermId term : serial->index().IndexedTerms()) {
      EXPECT_EQ(*pooled->index().postings(term),
                *serial->index().postings(term))
          << "term " << term;
    }
    ASSERT_EQ(pooled->shard_count(), shard_count);
    if (shard_count == 1) continue;
    ASSERT_NE(pooled->sharded(), nullptr);
    for (size_t s = 0; s < shard_count; ++s) {
      const InvertedIndex& want = serial->sharded()->shard(s);
      const InvertedIndex& got = pooled->sharded()->shard(s);
      ASSERT_EQ(got.IndexedTerms(), want.IndexedTerms()) << "shard " << s;
      for (wordnet::TermId term : want.IndexedTerms()) {
        EXPECT_EQ(*got.postings(term), *want.postings(term))
            << "shard " << s << " term " << term;
      }
    }
  }
}

TEST_F(IndexEpochTest, ApplyDeltaInstallsSuccessorWithoutDisturbingPins) {
  auto catalog = MakeCatalog(2);
  auto pinned = catalog->Acquire();
  const size_t base_docs = pinned->index().document_count();

  // Remember a pinned list to prove immutability across the swap.
  auto query = SomeTerms(3, 17);
  const std::vector<Posting> pinned_list = *pinned->index().postings(query[0]);
  auto pinned_topk = EvaluateTopKEpoch(*pinned, query, 10);

  auto next = catalog->ApplyDelta(SomeDeltaDocs(9, 41));
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)->epoch(), 2u);
  EXPECT_EQ((*next)->index().document_count(), base_docs + 9);
  EXPECT_EQ(catalog->Acquire()->epoch(), 2u);

  // The pinned snapshot is frozen: same bytes as before the cutover.
  EXPECT_EQ(*pinned->index().postings(query[0]), pinned_list);
  EXPECT_EQ(EvaluateTopKEpoch(*pinned, query, 10), pinned_topk);

  IndexCatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.epoch_swaps, 1u);
  EXPECT_EQ(stats.delta_docs_ingested, 9u);
  // Two snapshots alive: the pin and the current epoch.
  EXPECT_EQ(stats.pinned_epochs, 2);
  pinned.reset();
  EXPECT_EQ(catalog->stats().pinned_epochs, 1);
}

TEST_F(IndexEpochTest, DeltaShardsStayConsistentWithTheirMonolith) {
  // The successor's per-shard delta merge must agree with its own merged
  // monolith: the sharded top-k and the monolithic full evaluation are the
  // same bytes (the invariant every serving tier leans on).
  for (ShardPartition partition :
       {ShardPartition::kDocRange, ShardPartition::kDocHash}) {
    IndexCatalogOptions options;
    options.sharding.shard_count = 3;
    options.sharding.partition = partition;
    options.build_layouts = false;
    auto catalog = IndexCatalog::Create(corp_, org_, options, nullptr);
    ASSERT_TRUE(catalog.ok());

    auto next = (*catalog)->ApplyDelta(SomeDeltaDocs(11, 97));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_NE((*next)->sharded(), nullptr);

    for (size_t qa = 0; qa < 6; ++qa) {
      auto query = SomeTerms(5 * qa + 1, 13 * qa + 4);
      auto expected = EvaluateFull((*next)->index(), query);
      if (expected.size() > 10) expected.resize(10);
      EXPECT_EQ(EvaluateTopKEpoch(**next, query, 10), expected)
          << "partition " << static_cast<int>(partition) << " query " << qa;
    }

    // Every document landed in exactly one shard (the per-shard counts sum
    // to the monolith's).
    size_t sharded_docs = 0;
    std::set<corpus::DocId> seen;
    for (size_t s = 0; s < (*next)->shard_count(); ++s) {
      const InvertedIndex& shard = (*next)->sharded()->shard(s);
      for (wordnet::TermId term : shard.IndexedTerms()) {
        for (const Posting& p : *shard.postings(term)) seen.insert(p.doc);
      }
      sharded_docs += 0;  // counted via seen
    }
    (void)sharded_docs;
    std::set<corpus::DocId> mono;
    for (wordnet::TermId term : (*next)->index().IndexedTerms()) {
      for (const Posting& p : *(*next)->index().postings(term)) {
        mono.insert(p.doc);
      }
    }
    EXPECT_EQ(seen, mono);
  }
}

TEST_F(IndexEpochTest, ApplyDeltaRefusesTokensOutsideTheBucketOrganization) {
  // A stray token id would grow the monolith's and the receiving shard's
  // dense term tables to id + 1 slots (30.5 MiB each at id 2,000,000) for
  // every later epoch. The catalog refuses it before scoring or copying.
  auto catalog = MakeCatalog(4);
  auto base = catalog->Acquire();
  const size_t last = base->shard_count() - 1;
  const size_t mono_slots = base->index().lists()->table_size();
  const size_t shard_slots = base->sharded()->shard(last).lists()->table_size();
  for (wordnet::TermId stray :
       {wordnet::TermId{2000000}, wordnet::TermId{UINT32_MAX}}) {
    SCOPED_TRACE(stray);
    ASSERT_FALSE(org_->Contains(stray));
    std::vector<corpus::Document> docs = SomeDeltaDocs(2, 7);
    docs[1].tokens.push_back(stray);
    auto next = catalog->ApplyDelta(std::move(docs));
    ASSERT_FALSE(next.ok());
    EXPECT_TRUE(next.status().IsInvalidArgument());
    EXPECT_EQ(next.status().message(),
              "delta document 1 token " + std::to_string(stray) +
                  " is not in the bucket organization");
    auto after = catalog->Acquire();
    EXPECT_EQ(after->epoch(), 1u);
    EXPECT_EQ(after->index().lists()->table_size(), mono_slots);
    EXPECT_EQ(after->sharded()->shard(last).lists()->table_size(),
              shard_slots);
  }
  catalog->ApplyDeltaAsync({corpus::Document{0, {wordnet::TermId{2000000}}}});
  catalog->WaitForBuilds();
  EXPECT_TRUE(catalog->last_async_status().IsInvalidArgument());
  EXPECT_EQ(catalog->Acquire()->epoch(), 1u);

  // A dictionary term that no document uses still ingests.
  const std::vector<wordnet::TermId> used = corp_.DistinctTerms();
  const std::set<wordnet::TermId> used_set(used.begin(), used.end());
  wordnet::TermId unused = wordnet::kInvalidTermId;
  for (const std::vector<wordnet::TermId>& bucket : org_->buckets()) {
    for (wordnet::TermId t : bucket) {
      if (unused == wordnet::kInvalidTermId && used_set.count(t) == 0) {
        unused = t;
      }
    }
  }
  ASSERT_NE(unused, wordnet::kInvalidTermId);
  ASSERT_EQ(base->index().postings(unused), nullptr);
  auto next = catalog->ApplyDelta({corpus::Document{0, {unused, unused}}});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ((*next)->epoch(), 2u);
  ASSERT_NE((*next)->index().postings(unused), nullptr);
  EXPECT_EQ((*next)->index().postings(unused)->size(), 1u);
}

TEST_F(IndexEpochTest, ApplyDeltaSharesUntouchedListsCopyOnWrite) {
  // Under the default kDocRange partition every delta document lands in the
  // last shard, so the other shards receive no delta postings at all.
  auto catalog = MakeCatalog(4);
  auto base = catalog->Acquire();
  ASSERT_NE(base->sharded(), nullptr);
  const size_t last = base->shard_count() - 1;

  // Value copies of every base list, to prove the pinned base unchanged.
  auto copy_lists = [](const InvertedIndex& index) {
    std::map<wordnet::TermId, std::vector<Posting>> lists;
    for (wordnet::TermId term : index.IndexedTerms()) {
      lists[term] = *index.postings(term);
    }
    return lists;
  };
  const auto mono_before = copy_lists(base->index());
  std::vector<std::map<wordnet::TermId, std::vector<Posting>>> shards_before;
  for (size_t s = 0; s < base->shard_count(); ++s) {
    shards_before.push_back(copy_lists(base->sharded()->shard(s)));
  }

  std::vector<corpus::Document> docs = SomeDeltaDocs(6, 53);
  std::set<wordnet::TermId> touched;
  for (const corpus::Document& doc : docs) {
    touched.insert(doc.tokens.begin(), doc.tokens.end());
  }
  auto next = catalog->ApplyDelta(std::move(docs));
  ASSERT_TRUE(next.ok()) << next.status().ToString();

  // Untouched terms: the very same list object; touched: a fresh merge.
  auto expect_copy_on_write = [&](const InvertedIndex& before,
                                  const InvertedIndex& after,
                                  const std::string& where) {
    size_t shared = 0;
    size_t rebuilt = 0;
    for (wordnet::TermId term : before.IndexedTerms()) {
      if (touched.count(term) != 0) {
        EXPECT_NE(after.postings(term), before.postings(term))
            << where << " term " << term;
        ++rebuilt;
      } else {
        EXPECT_EQ(after.postings(term), before.postings(term))
            << where << " term " << term;
        ++shared;
      }
    }
    EXPECT_GT(shared, 0u) << where;
    EXPECT_GT(rebuilt, 0u) << where;
  };
  expect_copy_on_write(base->index(), (*next)->index(), "monolith");
  expect_copy_on_write(base->sharded()->shard(last),
                       (*next)->sharded()->shard(last), "last shard");
  EXPECT_NE((*next)->sharded()->shard(last).lists(),
            base->sharded()->shard(last).lists());
  for (size_t s = 0; s < last; ++s) {
    // No delta postings: the whole term table is shared, so every list is.
    EXPECT_EQ((*next)->sharded()->shard(s).lists(),
              base->sharded()->shard(s).lists())
        << "shard " << s;
    EXPECT_EQ((*next)->sharded()->shard(s).document_count(),
              (*next)->index().document_count());
  }

  // The pinned base still reads exactly what it read before the delta.
  EXPECT_EQ(copy_lists(base->index()), mono_before);
  for (size_t s = 0; s < base->shard_count(); ++s) {
    EXPECT_EQ(copy_lists(base->sharded()->shard(s)), shards_before[s])
        << "shard " << s;
  }
}

TEST_F(IndexEpochTest, ZeroKOnAShardedEpochIsEmpty) {
  // k = 0 reaches EvaluateTopKEpoch straight from a decoded top-k request;
  // the skip guard must not read the k-th result of an empty merge.
  auto catalog = MakeCatalog(4);
  auto snapshot = catalog->Acquire();
  ASSERT_NE(snapshot->sharded(), nullptr);
  EXPECT_TRUE(EvaluateTopKEpoch(*snapshot, SomeTerms(3, 17), 0).empty());
}

TEST_F(IndexEpochTest, RangePartitionPlacesDeltaDocsInLastShard) {
  // kDocRange boundaries are frozen at the last (re)shard: new documents
  // must grow the LAST range shard, never retroactively rebalance earlier
  // ones (which would change shard-local PIR answers for old docs).
  auto catalog = MakeCatalog(2);
  auto before = catalog->Acquire();
  const size_t base_docs = before->index().document_count();

  auto next = catalog->ApplyDelta(SomeDeltaDocs(7, 23));
  ASSERT_TRUE(next.ok());
  // Shard 0's postings are untouched by a delta beyond the frozen boundary.
  for (wordnet::TermId term : before->sharded()->shard(0).IndexedTerms()) {
    EXPECT_EQ(*(*next)->sharded()->shard(0).postings(term),
              *before->sharded()->shard(0).postings(term));
  }
  // The delta docs all scored past the base count.
  for (wordnet::TermId term : (*next)->sharded()->shard(1).IndexedTerms()) {
    for (const Posting& p : *(*next)->sharded()->shard(1).postings(term)) {
      EXPECT_LT(p.doc, base_docs + 7);
    }
  }
}

TEST_F(IndexEpochTest, ReshardRepartitionsWithoutChangingAnswers) {
  auto catalog = MakeCatalog(2);
  auto delta = catalog->ApplyDelta(SomeDeltaDocs(5, 67));
  ASSERT_TRUE(delta.ok());

  ShardingOptions wider;
  wider.shard_count = 4;
  auto resharded = catalog->Reshard(wider);
  ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
  EXPECT_EQ((*resharded)->epoch(), 3u);
  EXPECT_EQ((*resharded)->shard_count(), 4u);
  // Reshard re-partitions the same corpus: the monolith is shared, not
  // rebuilt, and plaintext answers cannot move.
  EXPECT_EQ((*resharded)->index_ptr().get(), (*delta)->index_ptr().get());
  for (size_t qa = 0; qa < 4; ++qa) {
    auto query = SomeTerms(3 * qa + 2, 11 * qa + 5);
    EXPECT_EQ(EvaluateTopKEpoch(**resharded, query, 8),
              EvaluateTopKEpoch(**delta, query, 8));
  }

  IndexCatalogStats stats = catalog->stats();
  EXPECT_EQ(stats.reshards, 1u);
  EXPECT_GT(stats.reshard_micros, 0u);
  EXPECT_EQ(stats.epoch_swaps, 2u);

  // Deltas continue against the re-frozen partition boundary.
  auto more = catalog->ApplyDelta(SomeDeltaDocs(3, 71));
  ASSERT_TRUE(more.ok());
  EXPECT_EQ((*more)->epoch(), 4u);
  EXPECT_EQ((*more)->shard_count(), 4u);
}

TEST_F(IndexEpochTest, AsyncBuildsInstallAndJoin) {
  auto catalog = MakeCatalog(2);
  catalog->ApplyDeltaAsync(SomeDeltaDocs(4, 31));
  ShardingOptions wider;
  wider.shard_count = 3;
  catalog->ReshardAsync(wider);
  catalog->WaitForBuilds();
  EXPECT_TRUE(catalog->last_async_status().ok());
  auto snapshot = catalog->Acquire();
  // Builders serialize on the build mutex, so both cutovers landed.
  EXPECT_EQ(snapshot->epoch(), 3u);
  EXPECT_EQ(snapshot->shard_count(), 3u);
  EXPECT_EQ(snapshot->index().document_count(),
            corp_.document_count() + 4);
}

TEST_F(IndexEpochTest, FrozenCatalogsRefuseMutation) {
  auto built = BuildIndex(corp_, {});
  ASSERT_TRUE(built.ok());
  IndexCatalogOptions options;
  options.build_layouts = false;
  auto frozen =
      IndexCatalog::Freeze(&built->index, org_.get(), nullptr, options);
  ASSERT_TRUE(frozen.ok());
  EXPECT_TRUE((*frozen)->frozen());

  auto delta = (*frozen)->ApplyDelta(SomeDeltaDocs(2, 5));
  EXPECT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsFailedPrecondition());
  ShardingOptions wider;
  wider.shard_count = 2;
  auto reshard = (*frozen)->Reshard(wider);
  EXPECT_FALSE(reshard.ok());
  EXPECT_TRUE(reshard.status().IsFailedPrecondition());

  // FreezeEpoch pins an exact snapshot (the bit-identity reference tool).
  auto live = MakeCatalog(2);
  auto pinned = live->Acquire();
  auto reference = IndexCatalog::FreezeEpoch(pinned);
  ASSERT_NE(reference, nullptr);
  EXPECT_TRUE(reference->frozen());
  EXPECT_EQ(reference->Acquire().get(), pinned.get());
}

TEST_F(IndexEpochTest, EpochTopKSkipsBoundedShardsWithIdenticalBytes) {
  // The satellite regression: a corpus whose high-impact postings for the
  // query terms are confined to early documents gives later range shards a
  // provably insufficient impact bound — the epoch evaluator must return
  // the EXACT bytes of the full evaluation while visiting fewer shards.
  std::vector<corpus::Document> docs;
  const wordnet::TermId kHot = 3, kWarm = 5, kFiller = 7;
  for (corpus::DocId d = 0; d < 80; ++d) {
    corpus::Document doc;
    doc.id = d;
    if (d < 20) {
      // Early docs: dense in the query terms.
      for (size_t i = 0; i < 6; ++i) doc.tokens.push_back(kHot);
      doc.tokens.push_back(kWarm);
    } else {
      // Late docs: filler only — zero impact bound for the query.
      for (size_t i = 0; i < 4; ++i) doc.tokens.push_back(kFiller);
    }
    docs.push_back(std::move(doc));
  }
  corpus::Corpus skewed(std::move(docs));

  IndexCatalogOptions options;
  options.sharding.shard_count = 8;
  options.sharding.partition = ShardPartition::kDocRange;
  options.build_layouts = false;
  auto catalog = IndexCatalog::Create(skewed, org_, options, nullptr);
  ASSERT_TRUE(catalog.ok());
  auto snapshot = (*catalog)->Acquire();

  const std::vector<wordnet::TermId> query = {kHot, kWarm};
  auto expected = EvaluateFull(snapshot->index(), query);
  ASSERT_GT(expected.size(), 10u);
  expected.resize(10);

  EvalStats stats;
  auto got = EvaluateTopKEpoch(*snapshot, query, 10, nullptr, &stats);
  EXPECT_EQ(got, expected);  // identical bytes...
  EXPECT_GT(stats.shards_skipped, 0u);  // ...with fewer shard trips
  EXPECT_EQ(stats.shards_visited + stats.shards_skipped, 8u);
  EXPECT_LT(stats.shards_visited, 8u);

  // Sanity across many k and queries: skipping never changes the answer.
  for (size_t k : {1u, 3u, 25u, 100u}) {
    auto full = EvaluateFull(snapshot->index(), query);
    if (full.size() > k) full.resize(k);
    EXPECT_EQ(EvaluateTopKEpoch(*snapshot, query, k), full) << "k=" << k;
  }
  const std::vector<wordnet::TermId> filler_query = {kFiller};
  auto filler_full = EvaluateFull(snapshot->index(), filler_query);
  if (filler_full.size() > 10) filler_full.resize(10);
  EXPECT_EQ(EvaluateTopKEpoch(*snapshot, filler_query, 10), filler_full);
}

TEST_F(IndexEpochTest, ShardImpactBoundMatchesHeadImpacts) {
  auto catalog = MakeCatalog(4);
  auto snapshot = catalog->Acquire();
  auto query = SomeTerms(9, 27);
  for (size_t s = 0; s < snapshot->shard_count(); ++s) {
    uint64_t expected = 0;
    for (wordnet::TermId term : query) {
      const auto* list = snapshot->sharded()->shard(s).postings(term);
      if (list != nullptr && !list->empty()) expected += list->front().impact;
    }
    EXPECT_EQ(snapshot->ShardImpactBound(s, query), expected)
        << "shard " << s;
  }
}

TEST_F(IndexEpochTest, BuildsNeverRunOnTheAnswerPath) {
  // The counted invariant: every index build this test triggers happens off
  // any thread marked as serving (no ScopedAnswerPath in scope here, and
  // the catalog's background builders are never marked) — with and without
  // a pool running the full build's chunks and the serving evaluations.
  ThreadPool shared(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &shared}) {
    SCOPED_TRACE(pool == nullptr ? "pool-less" : "pooled");
    const uint64_t before = common::AnswerPathBuilds();
    auto catalog = MakeCatalog(3, pool);
    catalog->ApplyDeltaAsync(SomeDeltaDocs(6, 19));
    ShardingOptions wider;
    wider.shard_count = 2;
    catalog->ReshardAsync(wider);
    {
      // A serving thread resolving and evaluating concurrently must not be
      // charged with a build.
      common::ScopedAnswerPath serving;
      for (int i = 0; i < 50; ++i) {
        auto snapshot = catalog->Acquire();
        EvaluateTopKEpoch(*snapshot, SomeTerms(i, 2 * i + 1), 5, pool);
      }
    }
    catalog->WaitForBuilds();
    ASSERT_TRUE(catalog->last_async_status().ok());
    EXPECT_EQ(common::AnswerPathBuilds(), before);
  }
}

}  // namespace
}  // namespace embellish::index
