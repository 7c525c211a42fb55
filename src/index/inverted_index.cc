#include "index/inverted_index.h"

#include <algorithm>

namespace embellish::index {

InvertedIndex::InvertedIndex(size_t num_docs,
                             std::shared_ptr<const ListMap> lists,
                             int impact_bits)
    : num_docs_(num_docs), lists_(std::move(lists)), impact_bits_(impact_bits) {}

const std::vector<Posting>* InvertedIndex::postings(
    wordnet::TermId term) const {
  auto it = lists_->find(term);
  return it == lists_->end() ? nullptr : it->second.get();
}

size_t InvertedIndex::ListLength(wordnet::TermId term) const {
  const std::vector<Posting>* list = postings(term);
  return list == nullptr ? 0 : list->size();
}

std::vector<wordnet::TermId> InvertedIndex::IndexedTerms() const {
  std::vector<wordnet::TermId> terms;
  terms.reserve(lists_->size());
  for (const auto& [term, list] : *lists_) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  return terms;
}

}  // namespace embellish::index
