// Shard-aware PR and PIR answer engines over a document-partitioned index.
//
// One query fans out across every shard — one thread-pool task per shard —
// and the per-shard partial results merge losslessly because documents are
// disjoint across shards:
//
//   PR (Algorithm 4): every posting of a document lives in exactly one
//   shard, so the shard computes the document's complete encrypted
//   accumulator and its complete bound. Modular multiplication is
//   commutative, so the residues are bit-identical to the monolithic
//   evaluation; merging is concatenation re-sorted into the canonical
//   (bound desc, doc asc) order.
//
//   PIR: all shards share the bucket organization, so one client query (one
//   residue per bucket column) is valid against every shard's (shorter)
//   bucket matrix. The server answers per shard and the client concatenates:
//   each per-shard gamma vector decodes to the shard's fragment of the
//   term's inverted list, and merging the fragments by (impact desc, doc
//   asc) reproduces the monolithic list exactly.
//
// I/O accounting charges each shard its own bucket extent reads — shards
// model independent spindles, which is what makes the fan-out a throughput
// win rather than a seek storm.

#ifndef EMBELLISH_CORE_SHARDED_RETRIEVAL_H_
#define EMBELLISH_CORE_SHARDED_RETRIEVAL_H_

#include <vector>

#include "core/pir_retrieval.h"
#include "core/private_retrieval.h"
#include "index/sharding.h"

namespace embellish::core {

/// \brief One StorageLayout per shard: the shard's sub-index laid out over
///        the same bucket groups (each shard owns its own disk).
std::vector<storage::StorageLayout> BuildShardLayouts(
    const index::ShardedIndex& sharded, const BucketOrganization& buckets,
    storage::LayoutPolicy policy,
    const storage::DiskModelOptions& disk_options = {});

/// \brief Merges per-shard Algorithm 4 partial results into the monolithic
///        encrypted result: concatenate and re-sort by CandidateOrder
///        (documents are shard-disjoint and each shard's bounds are whole,
///        so the canonical order is restored exactly and the merged
///        candidate set is bit-identical to the monolithic evaluation).
///        Shared by ShardedPrivateRetrievalServer and the remote-shard
///        coordinator. `per_shard` must be in shard order.
EncryptedResult MergeShardResults(std::vector<EncryptedResult> per_shard);

/// \brief Search-engine side of the PR scheme over shards.
class ShardedPrivateRetrievalServer {
 public:
  /// \brief `layouts`, when non-null, must hold one layout per shard (see
  ///        BuildShardLayouts) and outlive the server, as must `sharded` and
  ///        `buckets`. `pool` may be null (shards evaluated serially). The
  ///        pool is a multi-region executor, so it may be — and in the
  ///        batched server is — the same pool the caller is currently
  ///        running a ParallelFor region on: the per-query shard region
  ///        nests and composes. `max_parallel` caps the shards evaluated
  ///        concurrently per query (0 = one task per shard), bounding one
  ///        query's draw on a shared pool.
  ShardedPrivateRetrievalServer(
      const index::ShardedIndex* sharded, const BucketOrganization* buckets,
      const std::vector<storage::StorageLayout>* layouts,
      const storage::DiskModelOptions& disk_options = {},
      const PrivateRetrievalServerOptions& options = {},
      ThreadPool* pool = nullptr, size_t max_parallel = 0);

  size_t shard_count() const { return servers_.size(); }

  /// \brief Algorithm 4 fanned out across shards; the merged candidate set
  ///        is bit-identical to the monolithic PrivateRetrievalServer's.
  ///        Costs sum over shards.
  Result<EncryptedResult> Process(const EmbellishedQuery& query,
                                  const crypto::BenalohPublicKey& pk,
                                  RetrievalCosts* costs) const;

 private:
  std::vector<PrivateRetrievalServer> servers_;  // one per shard, null pool
  ThreadPool* pool_;  // not owned; null => serial shard loop
  size_t max_parallel_;  // cap on concurrent shards per query; 0 = all
};

/// \brief Search-engine side of the KO-PIR scheme over shards.
class ShardedPirRetrievalServer {
 public:
  /// \brief Same lifetime, pool-sharing and cap rules as
  ///        ShardedPrivateRetrievalServer.
  ShardedPirRetrievalServer(
      const index::ShardedIndex* sharded, const BucketOrganization* buckets,
      const std::vector<storage::StorageLayout>* layouts,
      const storage::DiskModelOptions& disk_options = {},
      ThreadPool* pool = nullptr, size_t max_parallel = 0);

  size_t shard_count() const { return servers_.size(); }

  /// \brief One PIR execution against one shard's bucket matrix.
  ///        Thread-safe: the per-shard matrix cache serializes only its lazy
  ///        builds, so concurrent queries to one shard run in parallel.
  Result<crypto::PirResponse> Answer(size_t shard, size_t bucket,
                                     const crypto::PirQuery& query,
                                     RetrievalCosts* costs) const;

  /// \brief Answers `query` against `bucket` on every shard (fanned out
  ///        over the pool), in shard order — the per-shard answer
  ///        concatenation the client decodes shard by shard.
  Result<std::vector<crypto::PirResponse>> AnswerAll(
      size_t bucket, const crypto::PirQuery& query,
      RetrievalCosts* costs) const;

  /// \brief The per-shard monolithic server (tests compare matrices).
  const PirRetrievalServer& shard_server(size_t shard) const {
    return servers_[shard];
  }

 private:
  std::vector<PirRetrievalServer> servers_;  // one per shard, null pool
  ThreadPool* pool_;  // not owned; null => serial shard loop
  size_t max_parallel_;  // cap on concurrent shards per query; 0 = all
};

/// \brief Retrieves one term's inverted list from a sharded PIR server: one
///        query built once, answered per shard, fragments merged. The
///        merged list is bit-identical to the monolithic retrieval.
Result<std::vector<index::Posting>> RetrieveListSharded(
    const PirRetrievalClient& client, const ShardedPirRetrievalServer& server,
    wordnet::TermId term, Rng* rng, RetrievalCosts* costs);

/// \brief End-to-end sharded PIR query: one execution per distinct genuine
///        term, local scoring, top-k ranking — the sharded counterpart of
///        PirRetrievalClient::RunQuery.
Result<std::vector<index::ScoredDoc>> RunQuerySharded(
    const PirRetrievalClient& client, const ShardedPirRetrievalServer& server,
    const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
    RetrievalCosts* costs);

}  // namespace embellish::core

#endif  // EMBELLISH_CORE_SHARDED_RETRIEVAL_H_
