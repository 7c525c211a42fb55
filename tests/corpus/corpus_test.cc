#include "corpus/corpus.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "testutil.h"

namespace embellish::corpus {
namespace {

Corpus MakeTinyCorpus() {
  // doc 0: {0, 1, 1}, doc 1: {1, 2}, doc 2: {2, 2, 2}
  std::vector<Document> docs(3);
  docs[0].tokens = {0, 1, 1};
  docs[1].tokens = {1, 2};
  docs[2].tokens = {2, 2, 2};
  return Corpus(std::move(docs));
}

TEST(CorpusTest, AssignsSequentialIds) {
  Corpus c = MakeTinyCorpus();
  ASSERT_EQ(c.document_count(), 3u);
  for (DocId i = 0; i < 3; ++i) EXPECT_EQ(c.document(i).id, i);
}

TEST(CorpusTest, DocumentFrequencyCountsDocumentsNotOccurrences) {
  Corpus c = MakeTinyCorpus();
  EXPECT_EQ(c.DocumentFrequency(0), 1u);
  EXPECT_EQ(c.DocumentFrequency(1), 2u);  // in docs 0 and 1
  EXPECT_EQ(c.DocumentFrequency(2), 2u);  // in docs 1 and 2 (not 3!)
  EXPECT_EQ(c.DocumentFrequency(99), 0u);
}

TEST(CorpusTest, DistinctTermsSorted) {
  Corpus c = MakeTinyCorpus();
  EXPECT_EQ(c.DistinctTerms(), (std::vector<wordnet::TermId>{0, 1, 2}));
}

TEST(CorpusTest, SparseTermIdCountedOncePerDocument) {
  // A term id far past the others sizes the dense table; repeats within a
  // document still count once.
  std::vector<Document> docs(3);
  docs[0].tokens = {100000, 3, 100000};
  docs[1].tokens = {3};
  docs[2].tokens = {100000, 100000, 100000};
  Corpus c(std::move(docs));
  EXPECT_EQ(c.DocumentFrequency(100000), 2u);
  EXPECT_EQ(c.DocumentFrequency(3), 2u);
  EXPECT_EQ(c.DocumentFrequency(99999), 0u);
  EXPECT_EQ(c.DocumentFrequencies().size(), 100001u);
  // Past the largest id the table ends, and the frequency reads 0.
  EXPECT_EQ(c.DocumentFrequency(100001), 0u);
  EXPECT_EQ(c.DocumentFrequency(4000000000u), 0u);
  EXPECT_EQ(c.DistinctTerms(), (std::vector<wordnet::TermId>{3, 100000}));
}

TEST(CorpusTest, DistinctTermsSortedAndComplete) {
  auto lex = testutil::SmallSyntheticLexicon(1500);
  Corpus c = testutil::SmallCorpus(lex, 100);
  std::set<wordnet::TermId> seen;
  for (const Document& doc : c.documents()) {
    seen.insert(doc.tokens.begin(), doc.tokens.end());
  }
  const std::vector<wordnet::TermId> distinct = c.DistinctTerms();
  EXPECT_EQ(distinct,
            std::vector<wordnet::TermId>(seen.begin(), seen.end()));
  for (wordnet::TermId t : distinct) {
    size_t containing = 0;
    for (const Document& doc : c.documents()) {
      containing += std::count(doc.tokens.begin(), doc.tokens.end(), t) > 0;
    }
    EXPECT_EQ(c.DocumentFrequency(t), containing) << "term " << t;
  }
}

TEST(CorpusTest, TotalTokens) {
  EXPECT_EQ(MakeTinyCorpus().TotalTokens(), 8u);
}

TEST(CorpusTest, RenderTextUsesLexicon) {
  auto lex = testutil::TinyLexicon();
  std::vector<Document> docs(1);
  docs[0].tokens = {lex.FindTerm("dog"), lex.FindTerm("cat")};
  Corpus c(std::move(docs));
  EXPECT_EQ(c.RenderText(0, lex), "dog cat");
}

TEST(CorpusTest, EmptyCorpus) {
  Corpus c({});
  EXPECT_EQ(c.document_count(), 0u);
  EXPECT_EQ(c.TotalTokens(), 0u);
  EXPECT_TRUE(c.DistinctTerms().empty());
}

}  // namespace
}  // namespace embellish::corpus
