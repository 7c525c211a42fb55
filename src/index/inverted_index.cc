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

std::vector<uint8_t> InvertedIndex::SerializeList(wordnet::TermId term) const {
  const std::vector<Posting>* list = postings(term);
  std::vector<uint8_t> out;
  if (list == nullptr) return out;
  out.reserve(list->size() * kPostingWireBytes);
  for (const Posting& p : *list) {
    out.push_back(static_cast<uint8_t>(p.doc >> 24));
    out.push_back(static_cast<uint8_t>(p.doc >> 16));
    out.push_back(static_cast<uint8_t>(p.doc >> 8));
    out.push_back(static_cast<uint8_t>(p.doc));
    out.push_back(static_cast<uint8_t>(p.impact));
  }
  return out;
}

Result<std::vector<Posting>> InvertedIndex::DeserializeList(
    const std::vector<uint8_t>& bytes) {
  if (bytes.size() % kPostingWireBytes != 0) {
    return Status::Corruption("list byte length not a multiple of 5");
  }
  std::vector<Posting> out;
  out.reserve(bytes.size() / kPostingWireBytes);
  for (size_t i = 0; i < bytes.size(); i += kPostingWireBytes) {
    Posting p;
    p.doc = (static_cast<uint32_t>(bytes[i]) << 24) |
            (static_cast<uint32_t>(bytes[i + 1]) << 16) |
            (static_cast<uint32_t>(bytes[i + 2]) << 8) |
            static_cast<uint32_t>(bytes[i + 3]);
    p.impact = bytes[i + 4];
    out.push_back(p);
  }
  return out;
}

std::vector<wordnet::TermId> InvertedIndex::IndexedTerms() const {
  std::vector<wordnet::TermId> terms;
  terms.reserve(lists_->size());
  for (const auto& [term, list] : *lists_) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  return terms;
}

}  // namespace embellish::index
