#include "corpus/corpus.h"

#include <algorithm>

namespace embellish::corpus {

Corpus::Corpus(std::vector<Document> documents)
    : documents_(std::move(documents)) {
  size_t table_size = 0;
  for (DocId i = 0; i < documents_.size(); ++i) {
    documents_[i].id = i;
    total_tokens_ += documents_[i].tokens.size();
    for (wordnet::TermId t : documents_[i].tokens) {
      table_size = std::max<size_t>(table_size, size_t{t} + 1);
    }
  }
  // One pass, no per-document set: a term counts toward f_t the first time
  // it is seen in a document, which its stamp (document id + 1; 0 = never
  // seen) records.
  doc_frequency_.assign(table_size, 0);
  std::vector<uint32_t> last_seen(table_size, 0);
  for (DocId i = 0; i < documents_.size(); ++i) {
    for (wordnet::TermId t : documents_[i].tokens) {
      if (last_seen[t] != i + 1) {
        last_seen[t] = i + 1;
        ++doc_frequency_[t];
      }
    }
  }
}

uint32_t Corpus::DocumentFrequency(wordnet::TermId term) const {
  return term < doc_frequency_.size() ? doc_frequency_[term] : 0;
}

std::vector<wordnet::TermId> Corpus::DistinctTerms() const {
  std::vector<wordnet::TermId> terms;
  for (size_t t = 0; t < doc_frequency_.size(); ++t) {
    if (doc_frequency_[t] > 0) terms.push_back(static_cast<wordnet::TermId>(t));
  }
  return terms;
}

std::string Corpus::RenderText(DocId id,
                               const wordnet::WordNetDatabase& db) const {
  std::string out;
  for (wordnet::TermId t : documents_[id].tokens) {
    if (!out.empty()) out.push_back(' ');
    out += db.term(t).text;
  }
  return out;
}

}  // namespace embellish::corpus
