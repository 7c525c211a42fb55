#include "index/builder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "index/dictionary.h"
#include "testutil.h"

namespace embellish::index {
namespace {

// The straightforward build the two-pass BuildIndex must reproduce bit for
// bit: std::map term counts per document, every real-valued impact staged,
// quantized once the maximum is known, and each list stably sorted by
// impact alone (postings were appended in doc order, so ties stay doc-asc).
using StagedLists =
    std::map<wordnet::TermId, std::vector<std::pair<corpus::DocId, double>>>;

template <typename DocFrequency>
StagedLists StageReference(const std::vector<corpus::Document>& docs,
                           uint64_t num_docs, double avg_doc_len,
                           const DocFrequency& doc_frequency,
                           const IndexBuildOptions& options) {
  StagedLists staged;
  for (const corpus::Document& doc : docs) {
    std::map<wordnet::TermId, uint32_t> tf;
    for (wordnet::TermId t : doc.tokens) ++tf[t];
    double w_d = 1.0;
    if (options.scoring == ScoringModel::kCosine) {
      double norm_sq = 0.0;
      for (const auto& [term, f_dt] : tf) {
        double w = DocTermWeight(f_dt);
        norm_sq += w * w;
      }
      w_d = std::sqrt(norm_sq);
    }
    for (const auto& [term, f_dt] : tf) {
      double p_dt =
          options.scoring == ScoringModel::kCosine
              ? DocTermWeight(f_dt) *
                    TermWeight(num_docs, doc_frequency(term)) / w_d
              : Bm25Impact(num_docs, doc_frequency(term), f_dt,
                           static_cast<double>(doc.tokens.size()),
                           avg_doc_len, options.bm25);
      staged[term].emplace_back(doc.id, p_dt);
    }
  }
  return staged;
}

double MaxStagedImpact(const StagedLists& staged) {
  double max_impact = 0.0;
  for (const auto& [term, list] : staged) {
    for (const auto& [doc, impact] : list) {
      max_impact = std::max(max_impact, impact);
    }
  }
  return max_impact;
}

std::map<wordnet::TermId, std::vector<Posting>> QuantizeReference(
    const StagedLists& staged, const ImpactQuantizer& quantizer) {
  std::map<wordnet::TermId, std::vector<Posting>> lists;
  for (const auto& [term, list] : staged) {
    std::vector<Posting>& out = lists[term];
    for (const auto& [doc, impact] : list) {
      out.push_back(
          Posting{doc, static_cast<uint8_t>(quantizer.Quantize(impact))});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Posting& a, const Posting& b) {
                       return a.impact > b.impact;
                     });
  }
  return lists;
}

// The number of adjacent equal-impact pairs across `lists`.
template <typename Lists>
size_t CountImpactTies(const Lists& lists) {
  size_t ties = 0;
  for (const auto& [term, list] : lists) {
    for (size_t i = 1; i < list.size(); ++i) {
      ties += list[i - 1].impact == list[i].impact;
    }
  }
  return ties;
}

// Asserts `got` holds exactly `want`'s lists, maximum impact and shape.
void ExpectSameBuild(const BuildOutput& got, const BuildOutput& want) {
  EXPECT_EQ(got.max_real_impact, want.max_real_impact);  // exact, not near
  EXPECT_EQ(got.index.document_count(), want.index.document_count());
  ASSERT_EQ(got.index.IndexedTerms(), want.index.IndexedTerms());
  for (wordnet::TermId term : want.index.IndexedTerms()) {
    EXPECT_EQ(*got.index.postings(term), *want.index.postings(term))
        << "term " << term;
  }
}

class IndexBuilderReferenceTest
    : public ::testing::TestWithParam<std::tuple<ScoringModel, int>> {
 protected:
  IndexBuildOptions Options() const {
    IndexBuildOptions options;
    options.scoring = std::get<0>(GetParam());
    options.impact_bits = std::get<1>(GetParam());
    return options;
  }
};

TEST_P(IndexBuilderReferenceTest, BuildIndexMatchesTheStagedBuild) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 200);
  // Repeated tokens exercise f_dt > 1 in both models.
  size_t repeating_docs = 0;
  for (const corpus::Document& doc : corp.documents()) {
    std::set<wordnet::TermId> distinct(doc.tokens.begin(), doc.tokens.end());
    repeating_docs += distinct.size() < doc.tokens.size();
  }
  ASSERT_GT(repeating_docs, 0u);

  const IndexBuildOptions options = Options();
  auto out = BuildIndex(corp, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const StagedLists staged = StageReference(
      corp.documents(), corp.document_count(),
      static_cast<double>(corp.TotalTokens()) /
          static_cast<double>(corp.document_count()),
      [&](wordnet::TermId t) { return corp.DocumentFrequency(t); }, options);
  const double max_impact = MaxStagedImpact(staged);
  EXPECT_EQ(out->max_real_impact, max_impact);  // exact, not near
  auto quantizer = ImpactQuantizer::Create(options.impact_bits, max_impact);
  ASSERT_TRUE(quantizer.ok());
  const auto expected = QuantizeReference(staged, *quantizer);

  ASSERT_EQ(out->index.term_count(), expected.size());
  for (const auto& [term, list] : expected) {
    const std::vector<Posting>* got = out->index.postings(term);
    ASSERT_NE(got, nullptr) << "term " << term;
    EXPECT_EQ(*got, list) << "term " << term;
  }
  // The comparison covered the doc-asc order of equal impacts.
  EXPECT_GT(CountImpactTies(expected), 0u);
}

TEST_P(IndexBuilderReferenceTest, PooledBuildsMatchTheStagedBuild) {
  // 200 documents: more than the 4 chunks per thread of every pool here.
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 200);
  const IndexBuildOptions options = Options();
  auto serial = BuildIndex(corp, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  const StagedLists staged = StageReference(
      corp.documents(), corp.document_count(),
      static_cast<double>(corp.TotalTokens()) /
          static_cast<double>(corp.document_count()),
      [&](wordnet::TermId t) { return corp.DocumentFrequency(t); }, options);
  auto quantizer =
      ImpactQuantizer::Create(options.impact_bits, MaxStagedImpact(staged));
  ASSERT_TRUE(quantizer.ok());
  const auto expected = QuantizeReference(staged, *quantizer);

  for (size_t threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    auto pooled = BuildIndex(corp, options, &pool);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ExpectSameBuild(*pooled, *serial);
    EXPECT_EQ(pooled->max_real_impact, MaxStagedImpact(staged));
    ASSERT_EQ(pooled->index.term_count(), expected.size());
    for (const auto& [term, list] : expected) {
      const std::vector<Posting>* got = pooled->index.postings(term);
      ASSERT_NE(got, nullptr) << "term " << term;
      EXPECT_EQ(*got, list) << "term " << term;
    }
  }
}

TEST_P(IndexBuilderReferenceTest, DeltaListsMatchTheStagedBuild) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 120);
  const IndexBuildOptions options = Options();
  auto out = BuildIndex(corp, options);
  ASSERT_TRUE(out.ok());
  const FrozenCorpusStats stats = CaptureCorpusStats(corp);

  // Fresh documents numbered past the corpus, some over unseen terms.
  auto more = testutil::SmallCorpus(lex, 12, 99);
  std::vector<corpus::Document> docs = more.documents();
  for (size_t i = 0; i < docs.size(); ++i) {
    docs[i].id = static_cast<corpus::DocId>(corp.document_count() + i);
  }
  docs[0].tokens.push_back(9999991);
  docs[0].tokens.push_back(9999991);

  auto delta = BuildDeltaLists(docs, stats, out->quantizer, options);
  ASSERT_TRUE(delta.ok());
  const auto expected = QuantizeReference(
      StageReference(docs, stats.num_docs, stats.avg_doc_len,
                     [&](wordnet::TermId t) {
                       return stats.DocumentFrequency(t);
                     },
                     options),
      out->quantizer);
  ASSERT_EQ(delta->size(), expected.size());
  for (const auto& [term, list] : expected) {
    ASSERT_EQ(delta->count(term), 1u) << "term " << term;
    EXPECT_EQ(delta->at(term), list) << "term " << term;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndWidths, IndexBuilderReferenceTest,
    ::testing::Combine(::testing::Values(ScoringModel::kCosine,
                                         ScoringModel::kOkapiBM25),
                       ::testing::Values(8, 3)));

TEST(IndexBuilderTest, ValidatesOptions) {
  auto lex = testutil::SmallSyntheticLexicon(1000);
  auto corp = testutil::SmallCorpus(lex, 30);
  IndexBuildOptions o;
  o.impact_bits = 1;
  EXPECT_FALSE(BuildIndex(corp, o).ok());
  o.impact_bits = 9;
  EXPECT_FALSE(BuildIndex(corp, o).ok());
}

TEST(IndexBuilderTest, RejectsEmptyCorpus) {
  corpus::Corpus empty({});
  EXPECT_FALSE(BuildIndex(empty, {}).ok());
}

TEST(IndexBuilderTest, PooledBuildWithFewerDocumentsThanChunks) {
  // 3 documents under a 4-thread pool: fewer documents than the pool's 16
  // chunks, so the build runs one chunk per document.
  std::vector<corpus::Document> docs(3);
  docs[0].tokens = {4, 4, 1, 7};
  docs[1].tokens = {1, 9};
  docs[2].tokens = {7, 7, 7, 1, 4};
  corpus::Corpus corp(std::move(docs));
  auto serial = BuildIndex(corp, {});
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  auto pooled = BuildIndex(corp, {}, &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectSameBuild(*pooled, *serial);
  EXPECT_EQ(pooled->index.ListLength(1), 3u);
  EXPECT_EQ(pooled->index.ListLength(9), 1u);
}

TEST(IndexBuilderTest, EveryDistinctTermIndexed) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 100);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.term_count(), corp.DistinctTerms().size());
  EXPECT_EQ(out->index.document_count(), corp.document_count());
}

TEST(IndexBuilderTest, ListLengthEqualsDocumentFrequency) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 100);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  for (wordnet::TermId t : corp.DistinctTerms()) {
    EXPECT_EQ(out->index.ListLength(t), corp.DocumentFrequency(t));
  }
}

TEST(IndexBuilderTest, ListsAreImpactOrdered) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  auto corp = testutil::SmallCorpus(lex, 150);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  for (wordnet::TermId t : out->index.IndexedTerms()) {
    const auto* list = out->index.postings(t);
    ASSERT_NE(list, nullptr);
    for (size_t i = 1; i < list->size(); ++i) {
      EXPECT_GE((*list)[i - 1].impact, (*list)[i].impact);
    }
  }
}

TEST(IndexBuilderTest, EachDocumentAppearsAtMostOncePerList) {
  auto lex = testutil::SmallSyntheticLexicon(1200);
  auto corp = testutil::SmallCorpus(lex, 80);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  for (wordnet::TermId t : out->index.IndexedTerms()) {
    const auto* list = out->index.postings(t);
    std::set<corpus::DocId> docs;
    for (const Posting& p : *list) {
      EXPECT_TRUE(docs.insert(p.doc).second) << "dup doc in list";
    }
  }
}

TEST(IndexBuilderTest, ImpactsMatchFormula4OnHandCorpus) {
  // Two tiny documents with known term frequencies.
  // doc0 = {a, a, b}; doc1 = {b}.
  std::vector<corpus::Document> docs(2);
  docs[0].tokens = {0, 0, 1};
  docs[1].tokens = {1};
  corpus::Corpus corp(std::move(docs));
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());

  const double w_a = std::log(1.0 + 2.0 / 1.0);   // f_a = 1
  const double w_b = std::log(1.0 + 2.0 / 2.0);   // f_b = 2
  const double wd0_a = 1.0 + std::log(2.0);
  const double wd0_b = 1.0;
  const double W0 = std::sqrt(wd0_a * wd0_a + wd0_b * wd0_b);
  const double p_a0 = wd0_a * w_a / W0;
  const double p_b0 = wd0_b * w_b / W0;
  const double p_b1 = 1.0 * w_b / 1.0;

  EXPECT_NEAR(out->max_real_impact, std::max({p_a0, p_b0, p_b1}), 1e-12);
  // Quantized ordering must respect the real ordering.
  const auto* list_a = out->index.postings(0);
  const auto* list_b = out->index.postings(1);
  ASSERT_EQ(list_a->size(), 1u);
  ASSERT_EQ(list_b->size(), 2u);
  EXPECT_EQ(out->index.postings(0)->front().impact,
            out->quantizer.Quantize(p_a0));
  // b's list is impact-ordered: doc1 (full weight) before doc0.
  EXPECT_EQ(list_b->front().doc, 1u);
  EXPECT_EQ(list_b->front().impact, out->quantizer.Quantize(p_b1));
}

TEST(IndexBuilderTest, UnknownTermHasNoList) {
  auto lex = testutil::SmallSyntheticLexicon(1200);
  auto corp = testutil::SmallCorpus(lex, 30);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.postings(9999999), nullptr);
  EXPECT_EQ(out->index.ListLength(9999999), 0u);
}

TEST(SearchDictionaryTest, IntersectsIndexWithLexicon) {
  auto lex = testutil::SmallSyntheticLexicon(1200);
  auto corp = testutil::SmallCorpus(lex, 60);
  auto out = BuildIndex(corp, {});
  ASSERT_TRUE(out.ok());
  auto dict = SearchDictionary::Build(lex, out->index);
  EXPECT_EQ(dict.size(), out->index.term_count());
  for (wordnet::TermId t : dict.terms()) {
    EXPECT_TRUE(dict.Contains(t));
    EXPECT_LT(t, lex.term_count());
    EXPECT_GT(out->index.ListLength(t), 0u);
  }
  EXPECT_FALSE(dict.Contains(9999999));
}

TEST(SearchDictionaryTest, AllLexiconTerms) {
  auto lex = testutil::TinyLexicon();
  auto dict = SearchDictionary::AllLexiconTerms(lex);
  EXPECT_EQ(dict.size(), lex.term_count());
  EXPECT_TRUE(dict.Contains(0));
}

}  // namespace
}  // namespace embellish::index
