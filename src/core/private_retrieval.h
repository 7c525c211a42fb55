// The Private Retrieval (PR) scheme: server-side Algorithm 4 and client-side
// Algorithm 5, with the cost accounting used by the Section 5.2 experiments.
//
// The server walks the inverted list of every (genuine or decoy) term in the
// embellished query and accumulates, per candidate document,
//     E(score_j) <- E(score_j) * E(u_i)^{p_ij}  =  E(score_j + u_i * p_ij),
// so only genuine terms (u_i = 1) contribute to the plaintext score while
// every list is touched identically — the engine cannot tell which terms
// mattered (Claim 1 guarantees the final ranking equals a plaintext engine's
// ranking over the genuine terms alone).
//
// Next to E(score_j) the server sums the plaintext impacts of *all* the
// query's terms per document: B_j = sum_i p_ij, an upper bound on the
// genuine score, computed from the embellished term set and the index, both
// of which the server holds. It sends the candidates in (B_j desc, doc asc)
// order with their bounds, and Algorithm 5 runs the threshold algorithm of
// Fagin, Lotem and Naor (PODS 2001) over that one list: it decrypts in
// order and stops once its k-th (score, doc) beats the next candidate's
// (bound, doc), which returns exactly full decryption's top k.

#ifndef EMBELLISH_CORE_PRIVATE_RETRIEVAL_H_
#define EMBELLISH_CORE_PRIVATE_RETRIEVAL_H_

#include <vector>

#include "common/status.h"
#include "core/bucket_organization.h"
#include "core/embellisher.h"
#include "crypto/benaloh.h"
#include "index/inverted_index.h"
#include "index/topk.h"
#include "storage/block_device.h"
#include "storage/layout.h"

namespace embellish::core {

/// \brief Cost metrics for one query (the four §5.2 panels plus splits).
struct RetrievalCosts {
  double server_io_ms = 0.0;        ///< simulated disk model
  double server_cpu_ms = 0.0;       ///< measured thread CPU time
  uint64_t uplink_bytes = 0;        ///< user -> server
  uint64_t downlink_bytes = 0;      ///< server -> user (the paper's Traffic)
  double user_cpu_ms = 0.0;         ///< query formulation + post filtering
  uint64_t decryptions = 0;         ///< scores Algorithm 5 decrypted

  void Add(const RetrievalCosts& other);
};

/// \brief One candidate document with the plaintext upper bound B_d on its
///        relevance score, and that score encrypted.
struct EncryptedCandidate {
  corpus::DocId doc;
  uint32_t bound;
  crypto::BenalohCiphertext score;
};

/// \brief The order of Algorithm 4's candidates: bound descending, then doc
///        id ascending.
inline bool CandidateOrder(const EncryptedCandidate& a,
                           const EncryptedCandidate& b) {
  return a.bound != b.bound ? a.bound > b.bound : a.doc < b.doc;
}

/// \brief Sorts `candidates` into CandidateOrder: a radix sort of a packed
///        (bound, doc) key per candidate, then one move per candidate. On a
///        544-candidate answer it costs a fraction of a comparison sort of
///        the candidates, which mispredicts a branch on every other step.
void SortCandidates(std::vector<EncryptedCandidate>* candidates);

/// \brief The candidate set R returned by Algorithm 4, in CandidateOrder.
struct EncryptedResult {
  std::vector<EncryptedCandidate> candidates;

  /// \brief Downlink wire size: the bytes core::EncodeResult gives this
  ///        result (defined in core/wire_format.cc, with the layout).
  size_t WireBytes(const crypto::BenalohPublicKey& pk) const;
};

/// \brief Merges per-slice Algorithm 4 results over a document partition
///        into the whole index's result: concatenate and SortCandidates.
///        Documents are slice-disjoint and each slice sums a document's
///        whole bound, so the merged candidate set is bit-identical to the
///        evaluation over the whole index. The coordinator's PR merge.
EncryptedResult MergeShardResults(std::vector<EncryptedResult> per_shard);

/// \brief Algorithm 4 execution options.
struct PrivateRetrievalServerOptions {
  /// When true (default), E(u)^p is computed via a per-term power table so
  /// each posting costs one modular multiplication. When false, every
  /// posting pays a full square-and-multiply modexp — the behaviour of the
  /// paper's 2010 implementation, whose server CPU exceeds PIR's by ~19%
  /// (Figure 7b). The fig7/fig8 benches run paper-faithful mode; the
  /// ablation bench quantifies the speedup.
  bool use_power_table = true;
};

/// \brief Search-engine side of the PR scheme (Algorithm 4).
///
/// Entries of the embellished query are processed in parallel over `pool`
/// when one is supplied: each worker accumulates per-document products into
/// a private map on its own Montgomery scratch, and the maps are merged
/// under a lock. Modular multiplication is commutative, so the merged
/// residues are bit-identical to the serial evaluation.
class PrivateRetrievalServer {
 public:
  /// \brief `layout` maps bucket ids to disk extents; pass nullptr to skip
  ///        I/O accounting (unit tests). All pointers must outlive the
  ///        server. `pool` may be null (serial evaluation).
  PrivateRetrievalServer(
      const index::InvertedIndex* index, const BucketOrganization* buckets,
      const storage::StorageLayout* layout,
      const storage::DiskModelOptions& disk_options = {},
      const PrivateRetrievalServerOptions& options = {},
      ThreadPool* pool = nullptr);

  /// \brief Processes an embellished query into candidates in
  ///        CandidateOrder; charges I/O, CPU and downlink to `costs` (which
  ///        may be null). A bound past 2^32 - 1 is clamped to it, and a
  ///        document whose postings all carry impact 0 (bound 0) cannot
  ///        score and is left out.
  Result<EncryptedResult> Process(const EmbellishedQuery& query,
                                  const crypto::BenalohPublicKey& pk,
                                  RetrievalCosts* costs) const;

 private:
  const index::InvertedIndex* index_;
  const BucketOrganization* buckets_;
  const storage::StorageLayout* layout_;
  storage::DiskModelOptions disk_options_;
  PrivateRetrievalServerOptions options_;
  ThreadPool* pool_;  // not owned; null => serial
};

/// \brief User side of the PR scheme: query formulation (Algorithm 3, via
///        QueryEmbellisher) and post filtering (Algorithm 5).
class PrivateRetrievalClient {
 public:
  /// \brief `pool` may be null (serial); it parallelizes the Algorithm 3
  ///        indicator encryptions.
  PrivateRetrievalClient(const BucketOrganization* buckets,
                         const crypto::BenalohPublicKey* public_key,
                         const crypto::BenalohPrivateKey* private_key,
                         ThreadPool* pool = nullptr);

  /// \brief Algorithm 3; charges encryption time and uplink to `costs`.
  Result<EmbellishedQuery> FormulateQuery(
      const std::vector<wordnet::TermId>& genuine_terms, Rng* rng,
      RetrievalCosts* costs) const;

  /// \brief Algorithm 5 as a threshold algorithm: decrypts `result`'s
  ///        candidates in order until none left can enter the top `k`, and
  ///        returns the top `k` with score > 0, in index::SortByScore order:
  ///        exactly what decrypting every candidate would return. Charges
  ///        decryption time and count. Corruption when the candidates leave
  ///        strict (bound desc, doc asc) order or a score exceeds its bound.
  Result<std::vector<index::ScoredDoc>> PostFilter(
      const EncryptedResult& result, size_t k, RetrievalCosts* costs) const;

 private:
  QueryEmbellisher embellisher_;
  const crypto::BenalohPublicKey* public_key_;
  const crypto::BenalohPrivateKey* private_key_;
};

/// \brief End-to-end convenience: formulate, process, post-filter.
Result<std::vector<index::ScoredDoc>> RunPrivateQuery(
    const PrivateRetrievalClient& client, const PrivateRetrievalServer& server,
    const crypto::BenalohPublicKey& pk,
    const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
    RetrievalCosts* costs);

}  // namespace embellish::core

#endif  // EMBELLISH_CORE_PRIVATE_RETRIEVAL_H_
