// Builds an impact-ordered InvertedIndex from a Corpus.
//
// The full build is the two-pass in-memory inversion of Zobel and Moffat
// ("Inverted files for text search engines", ACM Computing Surveys 2006):
// a counting pass sizes every list exactly, and a second pass writes each
// posting in place. Both passes, and the final impact sort, run over
// contiguous document chunks on an optional ThreadPool.

#ifndef EMBELLISH_INDEX_BUILDER_H_
#define EMBELLISH_INDEX_BUILDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "corpus/corpus.h"
#include "index/impact.h"
#include "index/inverted_index.h"

namespace embellish::index {

/// \brief Similarity model for impact computation. The PR scheme is
///        score-model-agnostic (Appendix B: "our solution applies generally
///        to similarity retrieval models ... including Okapi").
enum class ScoringModel {
  kCosine,    ///< Formula 3/4: w_dt * w_t / W_d
  kOkapiBM25  ///< Okapi BM25 [24]
};

/// \brief Index construction parameters.
struct IndexBuildOptions {
  /// Bits per discretized impact, in [2, 8]. A posting holds its impact in
  /// one byte (index::Posting is the 5 bytes kPostingWireBytes charges, in
  /// memory as in the storage model), and 8 bits bound Algorithm 4's
  /// accumulated scores well inside the Benaloh message space.
  int impact_bits = 8;

  ScoringModel scoring = ScoringModel::kCosine;

  /// BM25 shape parameters (used when scoring == kOkapiBM25).
  Bm25Params bm25;

  Status Validate() const;
};

/// \brief Result of index construction: the index plus quantization
///        diagnostics used by tests.
struct BuildOutput {
  InvertedIndex index;

  /// The quantizer used, for reconstruction-error analysis.
  ImpactQuantizer quantizer;

  /// Largest real-valued impact observed before discretization.
  double max_real_impact = 0.0;
};

/// \brief Builds the index per Appendix B.2 / Formula 4.
///
/// `pool` (nullable, not owned) runs both scoring passes and the list sorts
/// over contiguous document chunks, 4 per pool thread (capped at the
/// document count; 1 without a pool). The result is bit-identical for
/// every pool width, no pool included:
///   - the quantizer scales by the maximum over the chunks' maxima, which
///     is the serial maximum, since max does not depend on order;
///   - chunk c writes each list's postings at that list's count of
///     postings from chunks before c, so every list is in document order
///     before it is sorted, exactly as a serial append leaves it;
///   - doc ids are unique within a list, so PostingOrder is a strict total
///     order and the sorted list cannot depend on who sorted it.
/// Memory: besides the lists themselves, the build holds one count row per
/// chunk, each sized by the largest term id in the corpus plus one (4 bytes
/// a term). Postings are never staged. Returns Internal if the chunks'
/// counts disagree with the corpus's document frequencies.
Result<BuildOutput> BuildIndex(const corpus::Corpus& corpus,
                               const IndexBuildOptions& options = {},
                               ThreadPool* pool = nullptr);

/// \brief Collection statistics captured at full-build time and held fixed
///        across incremental deltas.
///
/// Delta documents are scored with the N, f_t, and average-length values
/// frozen here (and the frozen quantizer), not with post-ingest statistics.
/// That keeps every epoch's postings a pure function of (seed corpus, delta
/// sequence) — the property the bit-identity suites depend on — and mirrors
/// how segment-based engines defer statistics refresh to the next full
/// rebuild (here: the next `Reshard`/`Create`, which recaptures nothing —
/// stats stay frozen until a catalog is rebuilt from a corpus).
struct FrozenCorpusStats {
  uint64_t num_docs = 0;
  double avg_doc_len = 0.0;
  /// f_t by term id: a copy of the corpus's dense table.
  std::vector<uint32_t> doc_frequency;

  /// \brief f_t under the frozen statistics. Terms unseen at capture time
  ///        (f_t = 0, or an id past the table) get f_t = 1 (the smallest
  ///        in-collection frequency) so their TermWeight stays finite.
  uint32_t DocumentFrequency(wordnet::TermId term) const;
};

/// \brief Captures the statistics `BuildIndex` derived from `corpus`.
FrozenCorpusStats CaptureCorpusStats(const corpus::Corpus& corpus);

/// \brief Per-term delta posting lists for a batch of new documents, scored
///        against frozen statistics and discretized with the frozen
///        quantizer. Document ids must already be assigned (the catalog
///        numbers them sequentially past the current epoch's count). Lists
///        come back in canonical impact order.
Result<std::unordered_map<wordnet::TermId, std::vector<Posting>>>
BuildDeltaLists(const std::vector<corpus::Document>& docs,
                const FrozenCorpusStats& stats,
                const ImpactQuantizer& quantizer,
                const IndexBuildOptions& options);

/// \brief Merges delta lists into `base`, producing a successor index with
///        `new_num_docs` documents. Copy-on-write: the successor copies
///        `base`'s term table (for an empty delta it shares the table
///        itself), so it shares the list of every term the delta does not
///        touch, and each touched term gets a fresh per-term sorted merge in
///        the canonical impact order. A delta term past the table's end
///        grows the successor's table to that term + 1 slots (16 bytes a
///        slot, copied by every later delta), so delta term ids should come
///        from the collection's lexicon. `base` is untouched (it is
///        someone's pinned epoch).
InvertedIndex MergeDeltaLists(
    const InvertedIndex& base,
    const std::unordered_map<wordnet::TermId, std::vector<Posting>>& delta,
    size_t new_num_docs);

}  // namespace embellish::index

#endif  // EMBELLISH_INDEX_BUILDER_H_
