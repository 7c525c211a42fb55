// Document-partitioned sharding of the inverted index.
//
// An IndexCatalog (index/epoch.h) splits the corpus into N disjoint
// document shards. Each shard is served as a slice: its own EmbellishServer
// (EmbellishServerOptions::shard_slice) behind a ShardCoordinator
// (server/shard_coordinator.h), which fans a request out to every slice and
// merges the answers. Because every posting of a document lands in exactly
// one shard, plaintext scores, Algorithm 4 ciphertext accumulators, and
// PIR-retrieved inverted lists all merge losslessly: the coordinator's
// answers are bit-identical to one server over the whole index, which the
// coordinator equivalence tests assert.
//
// Partitioning is by contiguous document-id ranges: a shard is a corpus
// segment, and placement is reproducible across server restarts. Documents
// past the partition's document count (a live delta's, see index/epoch.h)
// all land in the last shard, so a delta touches exactly one slice.

#ifndef EMBELLISH_INDEX_SHARDING_H_
#define EMBELLISH_INDEX_SHARDING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "index/inverted_index.h"
#include "index/topk.h"

namespace embellish::index {

/// \brief Runs `fn(shard)` for every shard in [0, shard_count): one task
///        per shard over `pool` when one is supplied and more than one shard
///        exists, inline on the calling thread otherwise. The pool is a
///        multi-region executor, so this may be called from inside another
///        ParallelFor region. Blocks until all shards complete; `fn` must be
///        safe to invoke concurrently for distinct shards.
void ForEachShard(ThreadPool* pool, size_t shard_count,
                  const std::function<void(size_t)>& fn);

/// \brief Shard layout knobs.
struct ShardingOptions {
  size_t shard_count = 1;

  Status Validate() const;
};

/// \brief The shard owning `doc` under `options` for a `num_docs` corpus:
///        documents below `num_docs` fall in contiguous ranges of
///        ceil(num_docs / shard_count) ids, and every document at or past
///        `num_docs` falls in the last shard.
size_t ShardOfDoc(corpus::DocId doc, size_t num_docs,
                  const ShardingOptions& options);

/// \brief Merges per-shard fragments of one term's inverted list back into
///        the canonical (impact desc, doc asc) order. Exact inverse of the
///        Build-time split: merging every shard's fragment reproduces the
///        monolithic list bit-for-bit.
std::vector<Posting> MergeShardPostings(
    const std::vector<std::vector<Posting>>& per_shard);

/// \brief A monolithic index split into per-shard sub-indexes.
///
/// Each shard is a complete InvertedIndex over the same term space whose
/// lists contain only the shard's documents, in the same impact ordering.
class ShardedIndex {
 public:
  /// \brief Partitions `index` into options.shard_count sub-indexes.
  static Result<ShardedIndex> Build(const InvertedIndex& index,
                                    const ShardingOptions& options);

  /// \brief Assembles a ShardedIndex from already-built per-shard indexes.
  ///        The delta-ingest path in index/epoch.cc builds successor shards
  ///        by merging per-shard delta lists instead of re-splitting the
  ///        merged monolith; this is the trusted assembly point. Callers own
  ///        the invariant that the shards partition the documents the way
  ///        `options` describes.
  static Result<ShardedIndex> FromShards(ShardingOptions options,
                                         size_t num_docs,
                                         std::vector<InvertedIndex> shards);

  const ShardingOptions& options() const { return options_; }
  size_t shard_count() const { return shards_.size(); }
  size_t document_count() const { return num_docs_; }

  const InvertedIndex& shard(size_t s) const { return shards_[s]; }

 private:
  ShardedIndex(ShardingOptions options, size_t num_docs,
               std::vector<InvertedIndex> shards);

  ShardingOptions options_;
  size_t num_docs_ = 0;
  std::vector<InvertedIndex> shards_;
};

/// \brief Merges per-shard top-k lists (each the shard's exact, final-score
///        top k — documents are shard-disjoint so per-shard scores are
///        final) into the exact global prefix: concatenate, sort
///        canonically, truncate to `k`. Shared by EvaluateTopKEpoch and the
///        remote-shard coordinator, whose merged response must be
///        bit-identical to the monolithic evaluation.
std::vector<ScoredDoc> MergeShardTopK(
    const std::vector<std::vector<ScoredDoc>>& per_shard, size_t k);

}  // namespace embellish::index

#endif  // EMBELLISH_INDEX_SHARDING_H_
