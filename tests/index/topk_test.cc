#include "index/topk.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/builder.h"
#include "testutil.h"

namespace embellish::index {
namespace {

// An index over hand-written lists, each already in PostingOrder.
InvertedIndex IndexOf(
    size_t num_docs,
    std::unordered_map<wordnet::TermId, std::vector<Posting>> lists) {
  auto shared = std::make_shared<ListMap>();
  for (auto& [term, list] : lists) {
    shared->Set(term,
                std::make_shared<const std::vector<Posting>>(std::move(list)));
  }
  return InvertedIndex(num_docs, std::move(shared), /*impact_bits=*/8);
}

class TopKTest : public ::testing::Test {
 protected:
  TopKTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 21)),
        corp_(testutil::SmallCorpus(lex_, 150, 22)),
        built_(std::move(BuildIndex(corp_, {})).value()) {}

  // Reference scoring straight from the corpus token streams.
  std::unordered_map<corpus::DocId, uint64_t> BruteForce(
      const std::vector<wordnet::TermId>& query) {
    std::unordered_map<corpus::DocId, uint64_t> acc;
    for (wordnet::TermId term : query) {
      const auto* list = built_.index.postings(term);
      if (!list) continue;
      for (const Posting& p : *list) acc[p.doc] += p.impact;
    }
    return acc;
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  BuildOutput built_;
};

TEST_F(TopKTest, FullEvaluationMatchesBruteForce) {
  Rng rng(1);
  auto terms = built_.index.IndexedTerms();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<wordnet::TermId> query;
    for (int i = 0; i < 5; ++i) {
      query.push_back(terms[rng.Uniform(terms.size())]);
    }
    auto result = EvaluateFull(built_.index, query);
    auto ref = BruteForce(query);
    ASSERT_EQ(result.size(), ref.size());
    for (const ScoredDoc& sd : result) {
      EXPECT_EQ(sd.score, ref.at(sd.doc));
    }
  }
}

TEST_F(TopKTest, ResultsAreCanonicallyOrdered) {
  Rng rng(2);
  auto terms = built_.index.IndexedTerms();
  std::vector<wordnet::TermId> query;
  for (int i = 0; i < 8; ++i) query.push_back(terms[rng.Uniform(terms.size())]);
  auto result = EvaluateFull(built_.index, query);
  for (size_t i = 1; i < result.size(); ++i) {
    if (result[i - 1].score == result[i].score) {
      EXPECT_LT(result[i - 1].doc, result[i].doc);
    } else {
      EXPECT_GT(result[i - 1].score, result[i].score);
    }
  }
}

TEST_F(TopKTest, TopKSelectsTheFullRankingsPrefixSet) {
  // Figure 10 semantics after the early-termination fix: the returned *set*
  // is exactly the full ranking's top-k set. When the evaluation drained
  // the lists (no early termination) scores and order match the full prefix
  // exactly; when it stopped early, each reported score is a lower bound on
  // the document's full score.
  Rng rng(3);
  auto terms = built_.index.IndexedTerms();
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<wordnet::TermId> query;
    for (int i = 0; i < 6; ++i) {
      query.push_back(terms[rng.Uniform(terms.size())]);
    }
    auto full = EvaluateFull(built_.index, query);
    std::unordered_map<corpus::DocId, uint64_t> full_scores;
    for (const ScoredDoc& sd : full) full_scores[sd.doc] = sd.score;
    for (size_t k : {1u, 5u, 20u, 1000u}) {
      EvalStats stats;
      auto topk = EvaluateTopK(built_.index, query, k, &stats);
      ASSERT_EQ(topk.size(), std::min<size_t>(k, full.size()));
      if (!stats.early_terminated) {
        for (size_t i = 0; i < topk.size(); ++i) {
          EXPECT_EQ(topk[i], full[i]);
        }
      } else {
        std::set<corpus::DocId> expected, got;
        for (size_t i = 0; i < topk.size(); ++i) {
          expected.insert(full[i].doc);
          got.insert(topk[i].doc);
        }
        EXPECT_EQ(got, expected);
        for (const ScoredDoc& sd : topk) {
          EXPECT_LE(sd.score, full_scores.at(sd.doc));
          EXPECT_GT(sd.score, 0u);
        }
      }
    }
  }
}

TEST_F(TopKTest, DuplicateQueryTermsDoubleCount) {
  // Both evaluators treat the query as a bag (Formula 3 sums over t in q).
  auto terms = built_.index.IndexedTerms();
  wordnet::TermId t = terms[7];
  auto once = EvaluateFull(built_.index, {t});
  auto twice = EvaluateFull(built_.index, {t, t});
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(twice[i].score, 2 * once[i].score);
  }
}

TEST_F(TopKTest, UnindexedTermsContributeNothing) {
  auto terms = built_.index.IndexedTerms();
  std::vector<wordnet::TermId> query{terms[0], 99999999};
  auto with_unknown = EvaluateFull(built_.index, query);
  auto without = EvaluateFull(built_.index, {terms[0]});
  EXPECT_EQ(with_unknown.size(), without.size());
}

TEST_F(TopKTest, EmptyQueryYieldsEmptyResult) {
  EXPECT_TRUE(EvaluateFull(built_.index, {}).empty());
  EXPECT_TRUE(EvaluateTopK(built_.index, {}, 10).empty());
}

TEST_F(TopKTest, OnlyDocsContainingAQueryTermQualify) {
  // Candidate docs must appear in at least one query term's list (the
  // inverted-index property the paper's Section 2.2 describes).
  auto terms = built_.index.IndexedTerms();
  std::vector<wordnet::TermId> query{terms[3], terms[11]};
  auto result = EvaluateFull(built_.index, query);
  std::set<corpus::DocId> expected;
  for (auto t : query) {
    for (const Posting& p : *built_.index.postings(t)) expected.insert(p.doc);
  }
  EXPECT_EQ(result.size(), expected.size());
  for (const ScoredDoc& sd : result) {
    EXPECT_TRUE(expected.count(sd.doc));
    EXPECT_GT(sd.score, 0u);
  }
}

TEST(TopKEarlyTerminationTest, SkewedListsTerminateBeforeDraining) {
  // Regression for the Figure 10 bug: EvaluateTopK used to drain every
  // posting list to exhaustion — strictly more work than EvaluateFull, with
  // heap overhead on top. On an impact-skewed corpus the early-termination
  // condition must stop the evaluation after a small prefix.
  //
  // One dominant term list: two docs with near-maximal impacts followed by
  // a long tail of impact-1 docs. After the heads are popped, the remaining
  // cursor head bounds any outsider's reachable score at 1, so the top-2 is
  // settled almost immediately.
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  std::vector<Posting> skewed;
  skewed.push_back(Posting{0, 255});
  skewed.push_back(Posting{1, 254});
  for (corpus::DocId d = 2; d < 1500; ++d) skewed.push_back(Posting{d, 1});
  lists.emplace(7, std::move(skewed));
  InvertedIndex index = IndexOf(/*num_docs=*/1500, std::move(lists));

  EvalStats full_stats;
  auto full = EvaluateFull(index, {7}, &full_stats);
  EvalStats topk_stats;
  auto topk = EvaluateTopK(index, {7}, 2, &topk_stats);

  EXPECT_TRUE(topk_stats.early_terminated);
  EXPECT_LT(topk_stats.postings_scanned, full_stats.postings_scanned);
  EXPECT_EQ(full_stats.postings_scanned, 1500u);
  // Identical top-k set (and here identical scores: both winners' lists
  // were exhausted before the stop).
  ASSERT_EQ(topk.size(), 2u);
  EXPECT_EQ(topk[0], full[0]);
  EXPECT_EQ(topk[1], full[1]);
}

TEST(TopKEarlyTerminationTest, MultiTermSkewAgreesWithFullOnTheSet) {
  // Several lists, termination mid-list: the selected set must still match
  // the full evaluation's prefix exactly. The heavy impacts are spaced so
  // every boundary gap exceeds the worst-case remaining upper bound (four
  // tail cursors at impact <= 3 each), which lets the evaluator stop at its
  // first termination check.
  constexpr uint8_t kHeavy1[] = {255, 240, 225, 210};
  constexpr uint8_t kHeavy2[] = {120, 110, 100, 90};
  Rng rng(17);
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  for (wordnet::TermId t = 0; t < 4; ++t) {
    std::vector<Posting> list;
    list.push_back(Posting{static_cast<corpus::DocId>(t), kHeavy1[t]});
    list.push_back(Posting{static_cast<corpus::DocId>(t + 10), kHeavy2[t]});
    for (corpus::DocId d = 0; d < 800; ++d) {
      list.push_back(Posting{100 + static_cast<corpus::DocId>(
                                 rng.Uniform(2000)),
                             static_cast<uint8_t>(1 + rng.Uniform(3))});
    }
    // Restore the builder's canonical (impact desc, doc asc) ordering and
    // de-duplicate docs within the list (a doc appears once per list).
    std::sort(list.begin(), list.end(), PostingOrder);
    std::vector<Posting> unique;
    std::set<corpus::DocId> seen;
    for (const Posting& p : list) {
      if (seen.insert(p.doc).second) unique.push_back(p);
    }
    lists.emplace(t, std::move(unique));
  }
  InvertedIndex index = IndexOf(/*num_docs=*/3000, std::move(lists));

  const std::vector<wordnet::TermId> query{0, 1, 2, 3};
  EvalStats full_stats;
  auto full = EvaluateFull(index, query, &full_stats);
  for (size_t k : {1u, 3u, 8u}) {
    EvalStats stats;
    auto topk = EvaluateTopK(index, query, k, &stats);
    ASSERT_EQ(topk.size(), std::min<size_t>(k, full.size()));
    EXPECT_TRUE(stats.early_terminated) << "k=" << k;
    EXPECT_LT(stats.postings_scanned, full_stats.postings_scanned);
    std::set<corpus::DocId> expected, got;
    for (size_t i = 0; i < topk.size(); ++i) {
      expected.insert(full[i].doc);
      got.insert(topk[i].doc);
    }
    EXPECT_EQ(got, expected) << "k=" << k;
  }
}

TEST(TopKEarlyTerminationTest, ChecksFireBetweenTheOldSixteenPopIntervals) {
  // The threshold-heap rewrite runs the termination test every pop
  // (amortized O(log k)) instead of every max(16, candidates/4) pops with
  // an O(candidates) selection. On a list whose top-1 settles after two
  // postings, the evaluation must stop there — not at the old 16-pop
  // check boundary.
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  std::vector<Posting> skewed;
  skewed.push_back(Posting{0, 255});
  for (corpus::DocId d = 1; d < 500; ++d) skewed.push_back(Posting{d, 1});
  lists.emplace(3, std::move(skewed));
  InvertedIndex index = IndexOf(/*num_docs=*/500, std::move(lists));

  // After pop 2: kth_best (doc 0) = 255, best outsider = 1, remaining
  // head bound = 1 → 255 > 1 + 1 settles the top-1 immediately.
  EvalStats stats;
  auto topk = EvaluateTopK(index, {3}, 1, &stats);
  ASSERT_EQ(topk.size(), 1u);
  EXPECT_EQ(topk[0].doc, 0u);
  EXPECT_TRUE(stats.early_terminated);
  EXPECT_LT(stats.postings_scanned, 16u)
      << "termination waited for the removed check interval";
}

TEST(TopKEarlyTerminationTest, ReEnteringDocKeepsTheSetExact) {
  // A doc that is evicted from the threshold tracker's top-k and later
  // grows back in exercises the lazy-snapshot path: stale heap entries and
  // the conservatively-high best-outside bound must never mis-fire the
  // termination. Two lists: doc 5 starts small (evicted once doc 1 and 2
  // arrive), then collects a second large impact and ends up top-1.
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  lists.emplace(0, std::vector<Posting>{{5, 100}, {1, 90}, {2, 80},
                                        {3, 10}, {4, 9}});
  lists.emplace(1, std::vector<Posting>{{5, 120}, {6, 50}, {7, 40},
                                        {8, 2}, {9, 1}});
  InvertedIndex index = IndexOf(/*num_docs=*/16, std::move(lists));

  const std::vector<wordnet::TermId> query{0, 1};
  auto full = EvaluateFull(index, query);
  for (size_t k : {1u, 2u, 3u}) {
    EvalStats stats;
    auto topk = EvaluateTopK(index, query, k, &stats);
    ASSERT_EQ(topk.size(), std::min<size_t>(k, full.size())) << "k=" << k;
    std::set<corpus::DocId> expected, got;
    for (size_t i = 0; i < topk.size(); ++i) {
      expected.insert(full[i].doc);
      got.insert(topk[i].doc);
    }
    EXPECT_EQ(got, expected) << "k=" << k;
  }
}

TEST(TopKEarlyTerminationTest, ZeroImpactPostingsStillQualifyAsCandidates) {
  // EvaluateFull counts a document with only zero-impact postings as a
  // (score 0) candidate, and the top-k contract is "exactly the full
  // evaluation's top-k set" — so EvaluateTopK must create the accumulator
  // entry too, and the threshold tracker must survive the duplicate
  // same-score snapshots repeated zero impacts produce.
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  lists.emplace(0, std::vector<Posting>{{1, 5}, {2, 3}, {7, 0}, {9, 0}});
  lists.emplace(1, std::vector<Posting>{{2, 2}, {7, 0}});
  InvertedIndex index = IndexOf(/*num_docs=*/16, std::move(lists));

  const std::vector<wordnet::TermId> query{0, 1};
  auto full = EvaluateFull(index, query);
  ASSERT_EQ(full.size(), 4u);  // docs 1, 2, 7, 9 — zero-scored included
  std::unordered_map<corpus::DocId, uint64_t> full_scores;
  for (const ScoredDoc& sd : full) full_scores[sd.doc] = sd.score;
  for (size_t k : {2u, 3u, 4u, 10u}) {
    EvalStats stats;
    auto topk = EvaluateTopK(index, query, k, &stats);
    ASSERT_EQ(topk.size(), std::min<size_t>(k, full.size())) << "k=" << k;
    // The contract is set-exactness; scores are lower bounds after an
    // early stop (see topk.h).
    std::set<corpus::DocId> expected, got;
    for (size_t i = 0; i < topk.size(); ++i) {
      expected.insert(full[i].doc);
      got.insert(topk[i].doc);
      EXPECT_LE(topk[i].score, full_scores.at(topk[i].doc))
          << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(got, expected) << "k=" << k;
    if (!stats.early_terminated) {
      for (size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i], full[i]) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST(SortByScoreTest, OrdersByScoreThenDoc) {
  std::vector<ScoredDoc> docs{{3, 10}, {1, 20}, {2, 10}, {0, 5}};
  SortByScore(&docs);
  EXPECT_EQ(docs[0], (ScoredDoc{1, 20}));
  EXPECT_EQ(docs[1], (ScoredDoc{2, 10}));
  EXPECT_EQ(docs[2], (ScoredDoc{3, 10}));
  EXPECT_EQ(docs[3], (ScoredDoc{0, 5}));
}

}  // namespace
}  // namespace embellish::index
