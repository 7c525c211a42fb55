// Document collection model.
//
// Documents are token sequences over the lexical database's term ids. The
// corpus also exposes collection statistics (document frequency f_t, total
// document count N) that the impact computation of Appendix B.2 consumes.
//
// f_t lives in a dense table indexed by term id, sized by the largest id
// in the collection plus one. Term ids are lexicon indices, so that is the
// lexicon size (4 bytes a term) and every lookup is one bounds check and
// one load.

#ifndef EMBELLISH_CORPUS_CORPUS_H_
#define EMBELLISH_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "wordnet/database.h"

namespace embellish::corpus {

/// \brief Document identifier (position in the corpus).
using DocId = uint32_t;

/// \brief A document: an ordered bag of dictionary terms.
struct Document {
  DocId id = 0;
  std::vector<wordnet::TermId> tokens;
};

/// \brief An in-memory document collection with cached statistics.
class Corpus {
 public:
  explicit Corpus(std::vector<Document> documents);

  size_t document_count() const { return documents_.size(); }
  const Document& document(DocId id) const { return documents_[id]; }
  const std::vector<Document>& documents() const { return documents_; }

  /// \brief Document frequency f_t: number of documents containing `term`
  ///        (0 for a term past the table).
  uint32_t DocumentFrequency(wordnet::TermId term) const;

  /// \brief The dense f_t table: entry t is DocumentFrequency(t), and the
  ///        table ends at the largest term id in the collection.
  const std::vector<uint32_t>& DocumentFrequencies() const {
    return doc_frequency_;
  }

  /// \brief All distinct terms appearing in the corpus, sorted by id.
  std::vector<wordnet::TermId> DistinctTerms() const;

  /// \brief Total token count across all documents.
  uint64_t TotalTokens() const { return total_tokens_; }

  /// \brief Renders a document back to text given the lexicon (for the
  ///        analyzer-path integration tests and examples).
  std::string RenderText(DocId id, const wordnet::WordNetDatabase& db) const;

 private:
  std::vector<Document> documents_;
  std::vector<uint32_t> doc_frequency_;  // indexed by term id
  uint64_t total_tokens_ = 0;
};

}  // namespace embellish::corpus

#endif  // EMBELLISH_CORPUS_CORPUS_H_
