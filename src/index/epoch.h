// Live index epochs: refcounted snapshots + a catalog with background
// delta ingestion and resharding.
//
// The ROADMAP's oldest open item: every serving tier held raw
// `const InvertedIndex*` / `StorageLayout*` pointers with no lifetime or
// versioning story, freezing the corpus at construction. This module makes
// the *database* epoch a first-class refcounted object — the same
// immutable-snapshot-plus-atomic-swap discipline LSM engines use for
// non-blocking reads during compaction:
//
//   IndexEpoch   — an immutable bundle of (epoch number, InvertedIndex,
//                  ShardedIndex, StorageLayouts, bucket organization).
//                  Never mutated after construction; shared_ptr-held, so a
//                  batch that pinned it can finish on it long after a
//                  successor installs. Posting lists are shared between
//                  epochs: successive epochs hold the same list objects
//                  for every term a delta did not touch.
//
//   IndexCatalog — owns the current epoch. ApplyDelta(docs) scores new
//                  documents against the *frozen* collection statistics
//                  (see FrozenCorpusStats in index/builder.h) and merges
//                  per-shard posting deltas copy-on-write into a successor
//                  snapshot: only the touched terms' lists are rebuilt, and
//                  a shard the delta misses shares its whole term table.
//                  Reshard(options) re-partitions the corpus. Both build
//                  on the calling thread (a writer the caller owns, with
//                  inner parallelism on the shared executor), off the
//                  answer path, against the pinned base snapshot, then
//                  install by pointer swap under a mutex held for
//                  nanoseconds. Acquire() never waits on a build — the
//                  counted invariant in common/answer_path.h keeps that
//                  honest.
//
// Delta placement freezes the partition boundary: ShardOfDoc depends on the
// document count, so deltas are placed with the count at the last
// (re)shard, and every document past it lands in the last shard — a delta
// touches exactly one slice — until the next Reshard rebalances.
//
// Per-shard impact bounds, read from the heads of each shard's
// impact-ordered lists, let the plaintext top-k fan-out (EvaluateTopKEpoch)
// skip shards provably outside the top k. The private paths never skip —
// touching every shard is part of the scheme's access-pattern hiding.

#ifndef EMBELLISH_INDEX_EPOCH_H_
#define EMBELLISH_INDEX_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/bucket_organization.h"
#include "corpus/corpus.h"
#include "index/builder.h"
#include "index/sharding.h"
#include "storage/layout.h"

namespace embellish::index {

/// \brief One immutable, refcounted snapshot of the database. Constructed
///        by IndexCatalog; everything it exposes is frozen for its
///        lifetime, so holding the shared_ptr is the only synchronization a
///        reader needs.
class IndexEpoch {
 public:
  /// \brief Construction arguments (IndexCatalog is the expected builder).
  ///        `sharded`/`layout`/`shard_layouts` may be null (monolithic
  ///        epoch / layouts disabled). Non-owned inputs are passed as
  ///        aliasing shared_ptrs by the catalog's Freeze path.
  struct Init {
    uint64_t epoch = 1;
    ShardingOptions sharding;
    std::shared_ptr<const InvertedIndex> index;
    std::shared_ptr<const ShardedIndex> sharded;
    std::shared_ptr<const core::BucketOrganization> buckets;
    std::shared_ptr<const storage::StorageLayout> layout;
    std::shared_ptr<const std::vector<storage::StorageLayout>> shard_layouts;
    std::shared_ptr<std::atomic<int64_t>> pinned_gauge;
  };

  explicit IndexEpoch(Init init);
  ~IndexEpoch();

  IndexEpoch(const IndexEpoch&) = delete;
  IndexEpoch& operator=(const IndexEpoch&) = delete;

  /// \brief The database epoch number. Monotonic per catalog.
  uint64_t epoch() const { return epoch_; }

  const InvertedIndex& index() const { return *index_; }

  /// \brief The monolithic index as a shared_ptr (Reshard shares it into
  ///        the successor snapshot instead of copying).
  std::shared_ptr<const InvertedIndex> index_ptr() const { return index_; }

  /// \brief The sharded view, or nullptr when the epoch is monolithic
  ///        (shard_count == 1).
  const ShardedIndex* sharded() const { return sharded_.get(); }

  const core::BucketOrganization& buckets() const { return *buckets_; }

  std::shared_ptr<const core::BucketOrganization> buckets_ptr() const {
    return buckets_;
  }

  /// \brief Monolithic storage layout; nullptr when layouts are disabled.
  const storage::StorageLayout* layout() const { return layout_.get(); }

  /// \brief One layout per shard; nullptr when monolithic or disabled.
  const std::vector<storage::StorageLayout>* shard_layouts() const {
    return shard_layouts_.get();
  }

  const ShardingOptions& sharding() const { return sharding_; }

  size_t shard_count() const {
    return sharded_ ? sharded_->shard_count() : 1;
  }

  /// \brief Upper bound on any single document's accumulated score within
  ///        `shard` for `query`: the sum, over the query's term entries, of
  ///        the shard's head (maximum) impact for that term. Lists are
  ///        impact-descending, so each term costs one lookup of the shard's
  ///        list and a read of its first posting. Zero means the shard
  ///        holds no posting for any query term.
  uint64_t ShardImpactBound(size_t shard,
                            const std::vector<wordnet::TermId>& query) const;

 private:
  uint64_t epoch_;
  ShardingOptions sharding_;
  std::shared_ptr<const InvertedIndex> index_;
  std::shared_ptr<const ShardedIndex> sharded_;
  std::shared_ptr<const core::BucketOrganization> buckets_;
  std::shared_ptr<const storage::StorageLayout> layout_;
  std::shared_ptr<const std::vector<storage::StorageLayout>> shard_layouts_;
  std::shared_ptr<std::atomic<int64_t>> pinned_gauge_;  // may be null
};

/// \brief Catalog construction knobs.
struct IndexCatalogOptions {
  IndexBuildOptions build;
  ShardingOptions sharding;

  /// Build StorageLayouts (monolithic + per shard) for each epoch. The
  /// serving tiers want them; index-only tests can skip the cost.
  bool build_layouts = true;
  storage::DiskModelOptions disk;
};

/// \brief Counters the server tiers surface (ISSUE 8 stats).
struct IndexCatalogStats {
  uint64_t epoch_swaps = 0;          ///< successor snapshots installed
  uint64_t delta_docs_ingested = 0;  ///< documents ingested via ApplyDelta
  uint64_t reshards = 0;             ///< Reshard cutovers completed
  uint64_t reshard_micros = 0;       ///< total background reshard build time
  uint64_t delta_micros = 0;         ///< total background delta build time
  int64_t pinned_epochs = 0;         ///< snapshots currently alive (incl. current)
  uint64_t answer_path_builds = 0;   ///< common::AnswerPathBuilds() (must stay 0)
};

/// \brief Owns the current epoch; mutations build successors in the
///        background and install them by atomic swap. Thread-safe: Acquire
///        from any thread, concurrent ApplyDelta/Reshard serialize against
///        each other (never against readers).
class IndexCatalog {
 public:
  /// \brief Full build from a corpus. Retains the frozen collection
  ///        statistics and quantizer, so this catalog supports ApplyDelta.
  ///        `pool` (nullable) provides inner parallelism for this full
  ///        build (BuildIndex) and for background builds, and is NOT owned.
  static Result<std::unique_ptr<IndexCatalog>> Create(
      const corpus::Corpus& corpus,
      std::shared_ptr<const core::BucketOrganization> buckets,
      const IndexCatalogOptions& options, ThreadPool* pool = nullptr);

  /// \brief A catalog with one frozen epoch over an index built elsewhere:
  ///        `index` and `buckets` are not owned and must outlive the
  ///        catalog. The epoch is assembled as Create assembles its first
  ///        one: the sharded view when options.sharding asks for more than
  ///        one shard, and the layouts (monolithic and per shard) when
  ///        options.build_layouts, laid out with options.disk. No corpus
  ///        statistics exist here, so ApplyDelta and Reshard refuse with
  ///        FailedPrecondition.
  static Result<std::unique_ptr<IndexCatalog>> Freeze(
      const InvertedIndex* index, const core::BucketOrganization* buckets,
      const IndexCatalogOptions& options, ThreadPool* pool = nullptr);

  /// \brief Frozen catalog whose single epoch IS `snapshot` — the tool the
  ///        bit-identity suites use to build a reference server at exactly
  ///        the epoch a racing query pinned (PIR answers are
  ///        shard-layout-dependent, so the reference must share the
  ///        snapshot's exact sharding, not merely its documents). Its options
  ///        are the defaults apart from the snapshot's sharding, so a server
  ///        built on it charges I/O with the default disk model, whatever
  ///        model laid out the snapshot's extents.
  static std::unique_ptr<IndexCatalog> FreezeEpoch(
      std::shared_ptr<const IndexEpoch> snapshot, ThreadPool* pool = nullptr);

  IndexCatalog(const IndexCatalog&) = delete;
  IndexCatalog& operator=(const IndexCatalog&) = delete;

  /// \brief Pins the current epoch. Never blocks on a build: the only
  ///        critical section is the pointer read. Callers hold the
  ///        shared_ptr for the duration of their batch.
  std::shared_ptr<const IndexEpoch> Acquire() const;

  /// \brief Ingests `docs` (token bags; ids are assigned sequentially past
  ///        the current epoch's count) into a successor epoch: delta lists
  ///        scored under the frozen statistics, merged per shard against
  ///        the pinned base, layouts rebuilt, snapshot installed. Blocks
  ///        the *calling* thread for the build; readers never block.
  ///        Returns the installed snapshot. InvalidArgument, before any
  ///        scoring or copying, when a token is not a term of the
  ///        catalog's bucket organization: the dense term tables grow to
  ///        the largest id + 1 slots, and every later delta copies them.
  Result<std::shared_ptr<const IndexEpoch>> ApplyDelta(
      std::vector<corpus::Document> docs);

  /// \brief Re-partitions the current corpus under `sharding` into a
  ///        successor epoch and re-freezes the partition boundary at the
  ///        current document count. Same blocking rules as ApplyDelta.
  Result<std::shared_ptr<const IndexEpoch>> Reshard(
      const ShardingOptions& sharding);

  IndexCatalogStats stats() const;

  const IndexCatalogOptions& options() const { return options_; }

  /// \brief True for Freeze/FreezeEpoch catalogs (no frozen statistics; no
  ///        mutations).
  bool frozen() const { return frozen_; }

  ThreadPool* pool() const { return pool_; }

 private:
  IndexCatalog(IndexCatalogOptions options, ThreadPool* pool, bool frozen);

  // Builds the sharded view + layouts for `index` and assembles a snapshot.
  // When `sharding` asks for more than one shard, `prebuilt_shards` holds
  // the per-shard indexes the caller already has (delta merge); empty means
  // split `index` from scratch.
  Result<std::shared_ptr<const IndexEpoch>> AssembleEpoch(
      uint64_t epoch, std::shared_ptr<const InvertedIndex> index,
      const ShardingOptions& sharding,
      std::vector<InvertedIndex> prebuilt_shards);

  void Install(std::shared_ptr<const IndexEpoch> next);

  IndexCatalogOptions options_;
  ThreadPool* pool_;  // not owned; nullable
  const bool frozen_;

  std::shared_ptr<const core::BucketOrganization> buckets_;

  // Delta-scoring state, set by Create only: statistics and quantizer
  // frozen at full-build time (see FrozenCorpusStats).
  FrozenCorpusStats frozen_stats_;
  std::optional<ImpactQuantizer> quantizer_;

  // Document count at the last (re)shard — the frozen partition boundary
  // ShardOfDoc uses for delta placement. Guarded by build_mu_.
  size_t partition_doc_base_ = 0;

  mutable std::mutex state_mu_;  // guards current_ only (pointer swap)
  std::shared_ptr<const IndexEpoch> current_;

  std::mutex build_mu_;  // serializes ApplyDelta/Reshard builders

  std::shared_ptr<std::atomic<int64_t>> pinned_gauge_;

  std::atomic<uint64_t> epoch_swaps_{0};
  std::atomic<uint64_t> delta_docs_ingested_{0};
  std::atomic<uint64_t> reshards_{0};
  std::atomic<uint64_t> reshard_micros_{0};
  std::atomic<uint64_t> delta_micros_{0};
};

/// \brief Epoch-aware plaintext top-k: evaluates shards in descending
///        impact-bound order, in waves of the pool's width, and skips every
///        shard whose bound proves it cannot displace the current k-th
///        result (strictly below — a tied bound could still win the doc-id
///        tiebreak). Bit-identical to monolithic EvaluateFull truncated to
///        `k` on the same snapshot; `stats` counts shards_visited /
///        shards_skipped.
std::vector<ScoredDoc> EvaluateTopKEpoch(
    const IndexEpoch& epoch, const std::vector<wordnet::TermId>& query,
    size_t k, ThreadPool* pool = nullptr, EvalStats* stats = nullptr);

}  // namespace embellish::index

#endif  // EMBELLISH_INDEX_EPOCH_H_
