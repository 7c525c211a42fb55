// Impact-ordered inverted index (Appendix B.2, Figure 9).
//
// For each term the index stores a postings list of <document, impact>
// pairs sorted by decreasing impact. Impacts are discretized integers (see
// impact.h) of at most 8 bits, so a posting takes the 5 bytes the storage
// model charges for it, in memory as on disk. The stored posting size is
// exposed because the §5.2 experiments account for I/O in bytes.

#ifndef EMBELLISH_INDEX_INVERTED_INDEX_H_
#define EMBELLISH_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "wordnet/database.h"

namespace embellish::index {

/// \brief Stored size of one posting: a 4-byte doc id plus a 1-byte impact.
///        In-memory lists hold postings at exactly this size, and disk I/O
///        and the PR/PIR I/O parity are charged by it; PIR columns use
///        their own Rice-coded encoding (core/pir_retrieval).
inline constexpr size_t kPostingWireBytes = 5;

/// \brief One entry of an inverted list. Packed, so its doc id may sit
///        unaligned; read the fields by value (a packed field does not bind
///        to a non-const reference).
struct [[gnu::packed]] Posting {
  corpus::DocId doc;
  uint8_t impact;  ///< discretized p_dt in [1, 255]

  bool operator==(const Posting&) const = default;
};
static_assert(sizeof(Posting) == kPostingWireBytes);

/// \brief The canonical inverted-list ordering: impact desc, doc id asc.
///        Every list the builder emits is sorted by this, and the sharding
///        split/merge round-trip depends on it — use this one comparator
///        everywhere instead of restating it.
inline bool PostingOrder(const Posting& a, const Posting& b) {
  if (a.impact != b.impact) return a.impact > b.impact;
  return a.doc < b.doc;
}

/// \brief Term -> inverted list, as a dense table of list pointers indexed
///        by term id (16 bytes a slot, null for an unindexed term). Lists
///        are immutable once published and shared by every index that
///        holds them unchanged: a delta epoch copies the table, and a shard
///        the delta misses shares its predecessor's whole table.
class ListMap {
 public:
  using List = std::shared_ptr<const std::vector<Posting>>;

  /// \brief An empty table of `table_size` unindexed slots.
  explicit ListMap(size_t table_size = 0) : slots_(table_size) {}

  /// \brief The list of `term`, or nullptr when the term is unindexed. Any
  ///        id at or past the table's end, up to 2^32 - 1, is unindexed.
  const std::vector<Posting>* Find(wordnet::TermId term) const {
    return term < slots_.size() ? slots_[term].get() : nullptr;
  }

  /// \brief Publishes non-null `list` as `term`'s list, replacing any
  ///        earlier one. Grows the table to exactly `term` + 1 slots when
  ///        `term` lies past its end, so producers size the table up front
  ///        (constructor or GrowTo) rather than grow it slot by slot.
  void Set(wordnet::TermId term, List list);

  /// \brief Grows the table to exactly `table_size` slots, the new ones
  ///        unindexed; a no-op when it already has that many.
  void GrowTo(size_t table_size);

  /// \brief Slots in the table: one past the largest id it can hold.
  size_t table_size() const { return slots_.size(); }

  /// \brief Indexed (non-null) slots.
  size_t term_count() const { return term_count_; }

  /// \brief Calls `fn(term, list)` for every indexed term in ascending id
  ///        order.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (size_t t = 0; t < slots_.size(); ++t) {
      if (slots_[t] != nullptr) {
        fn(static_cast<wordnet::TermId>(t), *slots_[t]);
      }
    }
  }

 private:
  std::vector<List> slots_;
  size_t term_count_ = 0;
};

/// \brief Immutable impact-ordered inverted index. Built by BuildIndex,
///        MergeDeltaLists and ShardedIndex::Build.
class InvertedIndex {
 public:
  /// \brief `lists` is non-null and every list in it is in PostingOrder.
  ///        `impact_bits` is in [1, 8]: every impact fits the posting's
  ///        byte (asserted in Debug builds).
  InvertedIndex(size_t num_docs, std::shared_ptr<const ListMap> lists,
                int impact_bits);

  size_t document_count() const { return num_docs_; }
  size_t term_count() const { return lists_->term_count(); }
  int impact_bits() const { return impact_bits_; }

  /// \brief The postings of `term`, or nullptr if the term is unindexed.
  ///        Valid while this index (for a served index: its epoch) is alive.
  const std::vector<Posting>* postings(wordnet::TermId term) const {
    return lists_->Find(term);
  }

  /// \brief The shared term table, for building successors that reuse it.
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
