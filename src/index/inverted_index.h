// Impact-ordered inverted index (Appendix B.2, Figure 9).
//
// For each term the index stores a postings list of <document, impact>
// pairs sorted by decreasing impact. Impacts are discretized integers (see
// impact.h). The stored posting size is exposed because the §5.2
// experiments account for I/O in bytes.

#ifndef EMBELLISH_INDEX_INVERTED_INDEX_H_
#define EMBELLISH_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "corpus/corpus.h"
#include "wordnet/database.h"

namespace embellish::index {

/// \brief One entry of an inverted list.
struct Posting {
  corpus::DocId doc;
  uint32_t impact;  ///< discretized p_dt, >= 1

  bool operator==(const Posting&) const = default;
};

/// \brief Stored size of one posting in the storage model: a 4-byte doc id
///        plus a 1-byte impact. Disk I/O and the PR/PIR I/O parity are
///        charged by it; PIR columns use their own Rice-coded encoding
///        (core/pir_retrieval).
inline constexpr size_t kPostingWireBytes = 5;

/// \brief The canonical inverted-list ordering: impact desc, doc id asc.
///        Every list the builder emits is sorted by this, and the sharding
///        split/merge round-trip depends on it — use this one comparator
///        everywhere instead of restating it.
inline bool PostingOrder(const Posting& a, const Posting& b) {
  if (a.impact != b.impact) return a.impact > b.impact;
  return a.doc < b.doc;
}

/// \brief Term -> inverted list. Lists are immutable once published and
///        shared by every index that holds them unchanged: a delta epoch
///        copies the pointers of the terms it does not touch, and a shard
///        the delta misses shares its predecessor's whole map.
using ListMap =
    std::unordered_map<wordnet::TermId,
                       std::shared_ptr<const std::vector<Posting>>>;

/// \brief Immutable impact-ordered inverted index. Built by BuildIndex,
///        MergeDeltaLists and ShardedIndex::Build.
class InvertedIndex {
 public:
  /// \brief `lists` is non-null and every list in it is in PostingOrder.
  InvertedIndex(size_t num_docs, std::shared_ptr<const ListMap> lists,
                int impact_bits);

  size_t document_count() const { return num_docs_; }
  size_t term_count() const { return lists_->size(); }
  int impact_bits() const { return impact_bits_; }

  /// \brief The postings of `term`, or nullptr if the term is unindexed.
  ///        Valid while this index (for a served index: its epoch) is alive.
  const std::vector<Posting>* postings(wordnet::TermId term) const;

  /// \brief The shared term map, for building successors that reuse it.
  const std::shared_ptr<const ListMap>& lists() const { return lists_; }

  /// \brief Document frequency f_t (inverted-list length).
  size_t ListLength(wordnet::TermId term) const;

  /// \brief Stored list size in bytes in the storage model (list length x
  ///        kPostingWireBytes): what reading the list from disk costs.
  size_t ListBytes(wordnet::TermId term) const {
    return ListLength(term) * kPostingWireBytes;
  }

  /// \brief All indexed terms, sorted by id.
  std::vector<wordnet::TermId> IndexedTerms() const;

 private:
  size_t num_docs_;
  std::shared_ptr<const ListMap> lists_;
  int impact_bits_;
};

}  // namespace embellish::index

#endif  // EMBELLISH_INDEX_INVERTED_INDEX_H_
