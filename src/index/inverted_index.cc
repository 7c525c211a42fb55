#include "index/inverted_index.h"

#include <cassert>

namespace embellish::index {

void ListMap::Set(wordnet::TermId term, List list) {
  assert(list != nullptr);
  GrowTo(size_t{term} + 1);
  if (slots_[term] == nullptr) ++term_count_;
  slots_[term] = std::move(list);
}

void ListMap::GrowTo(size_t table_size) {
  if (table_size <= slots_.size()) return;
  slots_.reserve(table_size);
  slots_.resize(table_size);
}

InvertedIndex::InvertedIndex(size_t num_docs,
                             std::shared_ptr<const ListMap> lists,
                             int impact_bits)
    : num_docs_(num_docs), lists_(std::move(lists)), impact_bits_(impact_bits) {
  assert(lists_ != nullptr);
  assert(impact_bits_ >= 1 && impact_bits_ <= 8);
}

size_t InvertedIndex::ListLength(wordnet::TermId term) const {
  const std::vector<Posting>* list = postings(term);
  return list == nullptr ? 0 : list->size();
}

std::vector<wordnet::TermId> InvertedIndex::IndexedTerms() const {
  std::vector<wordnet::TermId> terms;
  terms.reserve(lists_->term_count());
  lists_->ForEach([&](wordnet::TermId term, const std::vector<Posting>&) {
    terms.push_back(term);
  });
  return terms;
}

}  // namespace embellish::index
