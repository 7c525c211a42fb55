#include "index/epoch.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/answer_path.h"
#include "common/strings.h"
#include "index/topk.h"

namespace embellish::index {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// Wraps a caller-lifetime pointer in a non-owning shared_ptr (aliasing
// constructor with an empty control block): Freeze's inputs, which its
// contract requires to outlive the catalog.
template <typename T>
std::shared_ptr<const T> NonOwning(const T* ptr) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), ptr);
}

// One StorageLayout per shard: the shard's sub-index laid out over the same
// bucket groups (each shard owns its own disk).
std::vector<storage::StorageLayout> BuildShardLayouts(
    const ShardedIndex& sharded, const core::BucketOrganization& buckets,
    const storage::DiskModelOptions& disk) {
  std::vector<storage::StorageLayout> layouts;
  layouts.reserve(sharded.shard_count());
  for (size_t s = 0; s < sharded.shard_count(); ++s) {
    layouts.push_back(storage::StorageLayout::Build(
        sharded.shard(s), buckets.buckets(),
        storage::LayoutPolicy::kBucketColocated, disk));
  }
  return layouts;
}

}  // namespace

IndexEpoch::IndexEpoch(Init init)
    : epoch_(init.epoch),
      sharding_(init.sharding),
      index_(std::move(init.index)),
      sharded_(std::move(init.sharded)),
      buckets_(std::move(init.buckets)),
      layout_(std::move(init.layout)),
      shard_layouts_(std::move(init.shard_layouts)),
      pinned_gauge_(std::move(init.pinned_gauge)) {
  if (pinned_gauge_) pinned_gauge_->fetch_add(1, std::memory_order_relaxed);
}

IndexEpoch::~IndexEpoch() {
  if (pinned_gauge_) pinned_gauge_->fetch_sub(1, std::memory_order_relaxed);
}

uint64_t IndexEpoch::ShardImpactBound(
    size_t shard, const std::vector<wordnet::TermId>& query) const {
  if (sharded_ == nullptr || shard >= sharded_->shard_count()) return 0;
  const InvertedIndex& index = sharded_->shard(shard);
  uint64_t bound = 0;
  // Summed per query entry (not per distinct term): an over-count when the
  // query repeats a term, which only weakens the bound — never unsound.
  for (wordnet::TermId term : query) {
    const std::vector<Posting>* list = index.postings(term);
    if (list != nullptr && !list->empty()) bound += list->front().impact;
  }
  return bound;
}

IndexCatalog::IndexCatalog(IndexCatalogOptions options, ThreadPool* pool,
                           bool frozen)
    : options_(std::move(options)),
      pool_(pool),
      frozen_(frozen),
      pinned_gauge_(std::make_shared<std::atomic<int64_t>>(0)) {}

Result<std::unique_ptr<IndexCatalog>> IndexCatalog::Create(
    const corpus::Corpus& corpus,
    std::shared_ptr<const core::BucketOrganization> buckets,
    const IndexCatalogOptions& options, ThreadPool* pool) {
  if (buckets == nullptr) {
    return Status::InvalidArgument("catalog requires a bucket organization");
  }
  EMB_RETURN_NOT_OK(options.sharding.Validate());

  auto catalog =
      std::unique_ptr<IndexCatalog>(new IndexCatalog(options, pool, false));
  EMB_ASSIGN_OR_RETURN(BuildOutput out, BuildIndex(corpus, options.build, pool));
  // Frozen delta-scoring state: statistics and quantizer captured exactly
  // once, at full-build time (see FrozenCorpusStats).
  catalog->frozen_stats_ = CaptureCorpusStats(corpus);
  catalog->quantizer_ = out.quantizer;
  catalog->buckets_ = std::move(buckets);
  catalog->partition_doc_base_ = corpus.document_count();

  auto index = std::make_shared<const InvertedIndex>(std::move(out.index));
  EMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const IndexEpoch> first,
      catalog->AssembleEpoch(1, std::move(index), options.sharding, {}));
  {
    std::lock_guard<std::mutex> lock(catalog->state_mu_);
    catalog->current_ = std::move(first);  // initial epoch, not a swap
  }
  return catalog;
}

Result<std::unique_ptr<IndexCatalog>> IndexCatalog::Freeze(
    const InvertedIndex* index, const core::BucketOrganization* buckets,
    const IndexCatalogOptions& options, ThreadPool* pool) {
  if (index == nullptr || buckets == nullptr) {
    return Status::InvalidArgument("Freeze requires an index and buckets");
  }
  EMB_RETURN_NOT_OK(options.sharding.Validate());

  auto catalog =
      std::unique_ptr<IndexCatalog>(new IndexCatalog(options, pool, true));
  catalog->buckets_ = NonOwning(buckets);
  catalog->partition_doc_base_ = index->document_count();
  EMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const IndexEpoch> first,
      catalog->AssembleEpoch(1, NonOwning(index), options.sharding, {}));
  {
    std::lock_guard<std::mutex> lock(catalog->state_mu_);
    catalog->current_ = std::move(first);
  }
  return catalog;
}

std::unique_ptr<IndexCatalog> IndexCatalog::FreezeEpoch(
    std::shared_ptr<const IndexEpoch> snapshot, ThreadPool* pool) {
  IndexCatalogOptions options;
  options.sharding = snapshot->sharding();
  auto catalog =
      std::unique_ptr<IndexCatalog>(new IndexCatalog(options, pool, true));
  catalog->buckets_ = snapshot->buckets_ptr();
  catalog->partition_doc_base_ = snapshot->index().document_count();
  {
    std::lock_guard<std::mutex> lock(catalog->state_mu_);
    catalog->current_ = std::move(snapshot);
  }
  return catalog;
}

std::shared_ptr<const IndexEpoch> IndexCatalog::Acquire() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_;
}

void IndexCatalog::Install(std::shared_ptr<const IndexEpoch> next) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    current_ = std::move(next);
  }
  epoch_swaps_.fetch_add(1, std::memory_order_relaxed);
}

Result<std::shared_ptr<const IndexEpoch>> IndexCatalog::AssembleEpoch(
    uint64_t epoch, std::shared_ptr<const InvertedIndex> index,
    const ShardingOptions& sharding,
    std::vector<InvertedIndex> prebuilt_shards) {
  IndexEpoch::Init init;
  init.epoch = epoch;
  init.sharding = sharding;
  init.index = std::move(index);
  init.buckets = buckets_;
  init.pinned_gauge = pinned_gauge_;
  if (sharding.shard_count > 1) {
    if (!prebuilt_shards.empty()) {
      EMB_ASSIGN_OR_RETURN(
          ShardedIndex sharded,
          ShardedIndex::FromShards(sharding, init.index->document_count(),
                                   std::move(prebuilt_shards)));
      init.sharded = std::make_shared<const ShardedIndex>(std::move(sharded));
    } else {
      EMB_ASSIGN_OR_RETURN(ShardedIndex sharded,
                           ShardedIndex::Build(*init.index, sharding));
      init.sharded = std::make_shared<const ShardedIndex>(std::move(sharded));
    }
  }
  if (options_.build_layouts) {
    init.layout = std::make_shared<const storage::StorageLayout>(
        storage::StorageLayout::Build(*init.index, buckets_->buckets(),
                                      storage::LayoutPolicy::kBucketColocated,
                                      options_.disk));
    if (init.sharded) {
      init.shard_layouts =
          std::make_shared<const std::vector<storage::StorageLayout>>(
              BuildShardLayouts(*init.sharded, *buckets_, options_.disk));
    }
  }
  return std::make_shared<const IndexEpoch>(std::move(init));
}

Result<std::shared_ptr<const IndexEpoch>> IndexCatalog::ApplyDelta(
    std::vector<corpus::Document> docs) {
  if (frozen_) {
    return Status::FailedPrecondition(
        "frozen catalog (no corpus statistics): ApplyDelta requires a "
        "catalog built with IndexCatalog::Create");
  }
  if (docs.empty()) return Acquire();
  for (size_t d = 0; d < docs.size(); ++d) {
    for (wordnet::TermId token : docs[d].tokens) {
      if (!buckets_->Contains(token)) {
        return Status::InvalidArgument(StringPrintf(
            "delta document %zu token %u is not in the bucket organization",
            d, token));
      }
    }
  }

  // Serialize against other builders; readers (Acquire) never wait here.
  std::lock_guard<std::mutex> build_lock(build_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const IndexEpoch> base = Acquire();
  const size_t base_count = base->index().document_count();

  // Delta documents are numbered sequentially past the pinned base.
  for (size_t i = 0; i < docs.size(); ++i) {
    docs[i].id = static_cast<corpus::DocId>(base_count + i);
  }
  EMB_ASSIGN_OR_RETURN(auto delta_lists,
                       BuildDeltaLists(docs, frozen_stats_, *quantizer_,
                                       options_.build));
  const size_t new_count = base_count + docs.size();
  auto merged = std::make_shared<const InvertedIndex>(
      MergeDeltaLists(base->index(), delta_lists, new_count));

  const ShardingOptions sharding = base->sharding();
  std::vector<InvertedIndex> shards;
  if (sharding.shard_count > 1 && base->sharded() != nullptr) {
    // Split the delta lists with the *frozen* partition boundary
    // (partition_doc_base_): range placement depends on the document count,
    // and moving existing documents between shards on every delta would
    // force a full re-split. New documents therefore all land in the last
    // shard until the next Reshard rebalances.
    const size_t shard_count = sharding.shard_count;
    std::vector<std::unordered_map<wordnet::TermId, std::vector<Posting>>>
        shard_delta(shard_count);
    for (const auto& [term, list] : delta_lists) {
      for (const Posting& p : list) {
        // Splitting a sorted list preserves order, so each fragment stays
        // canonically sorted for the per-shard merge below.
        shard_delta[ShardOfDoc(p.doc, partition_doc_base_, sharding)][term]
            .push_back(p);
      }
    }
    // A shard with no delta postings shares its base's whole term table;
    // the others copy the table and merge only the touched terms.
    std::vector<std::optional<InvertedIndex>> built(shard_count);
    ForEachShard(pool_, shard_count, [&](size_t s) {
      built[s].emplace(MergeDeltaLists(base->sharded()->shard(s),
                                       shard_delta[s], new_count));
    });
    shards.reserve(shard_count);
    for (auto& b : built) shards.push_back(std::move(*b));
  }

  EMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const IndexEpoch> next,
      AssembleEpoch(base->epoch() + 1, std::move(merged), sharding,
                    std::move(shards)));
  Install(next);
  delta_docs_ingested_.fetch_add(docs.size(), std::memory_order_relaxed);
  delta_micros_.fetch_add(MicrosSince(t0), std::memory_order_relaxed);
  return next;
}

Result<std::shared_ptr<const IndexEpoch>> IndexCatalog::Reshard(
    const ShardingOptions& sharding) {
  if (frozen_) {
    return Status::FailedPrecondition(
        "frozen catalog: Reshard requires a catalog built with "
        "IndexCatalog::Create");
  }
  EMB_RETURN_NOT_OK(sharding.Validate());

  std::lock_guard<std::mutex> build_lock(build_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<const IndexEpoch> base = Acquire();

  // The successor shares the monolithic index (shared_ptr) and re-splits
  // it under the new options; the boundary re-freezes at today's count.
  EMB_ASSIGN_OR_RETURN(
      std::shared_ptr<const IndexEpoch> next,
      AssembleEpoch(base->epoch() + 1, base->index_ptr(), sharding, {}));
  partition_doc_base_ = base->index().document_count();
  Install(next);
  reshards_.fetch_add(1, std::memory_order_relaxed);
  reshard_micros_.fetch_add(MicrosSince(t0), std::memory_order_relaxed);
  return next;
}

IndexCatalogStats IndexCatalog::stats() const {
  IndexCatalogStats s;
  s.epoch_swaps = epoch_swaps_.load(std::memory_order_relaxed);
  s.delta_docs_ingested = delta_docs_ingested_.load(std::memory_order_relaxed);
  s.reshards = reshards_.load(std::memory_order_relaxed);
  s.reshard_micros = reshard_micros_.load(std::memory_order_relaxed);
  s.delta_micros = delta_micros_.load(std::memory_order_relaxed);
  s.pinned_epochs = pinned_gauge_->load(std::memory_order_relaxed);
  s.answer_path_builds = common::AnswerPathBuilds();
  return s;
}

std::vector<ScoredDoc> EvaluateTopKEpoch(
    const IndexEpoch& epoch, const std::vector<wordnet::TermId>& query,
    size_t k, ThreadPool* pool, EvalStats* stats) {
  if (k == 0) return {};
  const ShardedIndex* sharded = epoch.sharded();
  if (sharded == nullptr) {
    // Monolithic epoch: the canonical configuration-independent evaluation
    // (EvaluateFull truncated — exact final scores).
    std::vector<ScoredDoc> full = EvaluateFull(epoch.index(), query, stats);
    if (full.size() > k) full.resize(k);
    if (stats != nullptr) stats->shards_visited += 1;
    return full;
  }

  const size_t shard_count = sharded->shard_count();
  struct Candidate {
    size_t shard;
    uint64_t bound;
  };
  std::vector<Candidate> order;
  order.reserve(shard_count);
  uint64_t skipped = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    const uint64_t bound = epoch.ShardImpactBound(s, query);
    if (bound == 0) {
      // No posting for any query term: the shard contributes nothing.
      ++skipped;
      continue;
    }
    order.push_back(Candidate{s, bound});
  }
  // Highest bound first (shard index breaks ties for determinism): once
  // the first remaining shard is provably out, so is every later one.
  std::sort(order.begin(), order.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.shard < b.shard;
            });

  const size_t wave =
      pool != nullptr ? std::max<size_t>(1, pool->num_threads()) : 1;

  std::vector<ScoredDoc> merged;
  uint64_t visited = 0;
  uint64_t postings = 0;
  bool any_early = false;
  size_t idx = 0;
  while (idx < order.size()) {
    if (merged.size() >= k && order[idx].bound < merged[k - 1].score) {
      // Strictly below the k-th score: even a winner of the doc-id
      // tiebreak needs an *equal* score, which the bound rules out.
      // Evaluating extra shards is always sound (the merge truncates);
      // skipping is the only operation this guard protects.
      skipped += order.size() - idx;
      break;
    }
    const size_t wave_end = std::min(idx + wave, order.size());
    const size_t n = wave_end - idx;
    std::vector<std::vector<ScoredDoc>> partial(n);
    std::vector<EvalStats> wave_stats(n);
    auto eval_one = [&](size_t i) {
      // Full per-shard accumulation: scores are final (documents are
      // shard-disjoint), so the truncated prefix is the shard's exact
      // top k and the merged result matches the monolithic evaluation.
      partial[i] =
          EvaluateFull(sharded->shard(order[idx + i].shard), query,
                       &wave_stats[i]);
      if (partial[i].size() > k) partial[i].resize(k);
    };
    if (pool != nullptr && n > 1) {
      pool->ParallelFor(0, n, 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) eval_one(i);
      });
    } else {
      for (size_t i = 0; i < n; ++i) eval_one(i);
    }
    visited += n;
    for (const EvalStats& ws : wave_stats) {
      postings += ws.postings_scanned;
      any_early |= ws.early_terminated;
    }
    std::vector<std::vector<ScoredDoc>> to_merge;
    to_merge.reserve(n + 1);
    to_merge.push_back(std::move(merged));
    for (auto& p : partial) to_merge.push_back(std::move(p));
    merged = MergeShardTopK(to_merge, k);
    idx = wave_end;
  }

  if (stats != nullptr) {
    stats->postings_scanned += postings;
    stats->early_terminated |= any_early;
    stats->shards_visited += visited;
    stats->shards_skipped += skipped;
  }
  return merged;
}

}  // namespace embellish::index
