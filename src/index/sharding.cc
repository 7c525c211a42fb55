#include "index/sharding.h"

#include <algorithm>
#include <memory>

#include "common/answer_path.h"

namespace embellish::index {

namespace {

// splitmix64 finalizer: cheap, deterministic, well-mixed over dense ids.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void ForEachShard(ThreadPool* pool, size_t shard_count,
                  const std::function<void(size_t)>& fn) {
  auto range = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) fn(s);
  };
  if (pool == nullptr || shard_count <= 1) {
    range(0, shard_count);
    return;
  }
  pool->ParallelFor(0, shard_count, /*min_grain=*/1, range);
}

Status ShardingOptions::Validate() const {
  if (shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  return Status::OK();
}

size_t ShardOfDoc(corpus::DocId doc, size_t num_docs,
                  const ShardingOptions& options) {
  const size_t shards = std::max<size_t>(1, options.shard_count);
  if (shards == 1) return 0;
  if (options.partition == ShardPartition::kDocHash) {
    return static_cast<size_t>(Mix64(doc) % shards);
  }
  const size_t docs = std::max<size_t>(1, num_docs);
  const size_t per_shard = (docs + shards - 1) / shards;
  return std::min(static_cast<size_t>(doc) / per_shard, shards - 1);
}

std::vector<Posting> MergeShardPostings(
    const std::vector<std::vector<Posting>>& per_shard) {
  size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  std::vector<Posting> merged;
  merged.reserve(total);
  for (const auto& list : per_shard) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  std::sort(merged.begin(), merged.end(), PostingOrder);
  return merged;
}

ShardedIndex::ShardedIndex(ShardingOptions options, size_t num_docs,
                           std::vector<InvertedIndex> shards)
    : options_(options), num_docs_(num_docs), shards_(std::move(shards)) {}

Result<ShardedIndex> ShardedIndex::FromShards(ShardingOptions options,
                                              size_t num_docs,
                                              std::vector<InvertedIndex> shards) {
  EMB_RETURN_NOT_OK(options.Validate());
  if (shards.size() != options.shard_count) {
    return Status::InvalidArgument(
        "FromShards: shard vector does not match options.shard_count");
  }
  return ShardedIndex(options, num_docs, std::move(shards));
}

Result<ShardedIndex> ShardedIndex::Build(const InvertedIndex& index,
                                         const ShardingOptions& options) {
  EMB_RETURN_NOT_OK(options.Validate());
  common::NoteHeavyBuild();
  const size_t shards = options.shard_count;
  const size_t num_docs = index.document_count();

  // Every shard's table spans the monolith's term ids.
  const ListMap& lists = *index.lists();
  std::vector<std::shared_ptr<ListMap>> shard_lists(shards);
  for (auto& table : shard_lists) {
    table = std::make_shared<ListMap>(lists.table_size());
  }
  // Per-shard fragments of the current term's list, reused across terms;
  // each is copied out at its exact length.
  std::vector<std::vector<Posting>> fragments(shards);
  lists.ForEach([&](wordnet::TermId term, const std::vector<Posting>& list) {
    for (const Posting& p : list) {
      // A stable split: each shard's fragment keeps the monolithic
      // (impact desc, doc asc) order, so MergeShardPostings inverts it.
      fragments[ShardOfDoc(p.doc, num_docs, options)].push_back(p);
    }
    for (size_t s = 0; s < shards; ++s) {
      if (fragments[s].empty()) continue;
      shard_lists[s]->Set(
          term, std::make_shared<const std::vector<Posting>>(fragments[s]));
      fragments[s].clear();
    }
  });

  std::vector<InvertedIndex> sub;
  sub.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    sub.emplace_back(num_docs, std::move(shard_lists[s]),
                     index.impact_bits());
  }
  return ShardedIndex(options, num_docs, std::move(sub));
}

std::vector<ScoredDoc> MergeShardTopK(
    const std::vector<std::vector<ScoredDoc>>& per_shard, size_t k) {
  // Cross-shard merge: any global top-k document is in its own shard's top
  // k, so merging the (at most shards*k) survivors and truncating yields
  // the exact global prefix.
  std::vector<ScoredDoc> merged;
  size_t total = 0;
  for (const auto& p : per_shard) total += p.size();
  merged.reserve(total);
  for (const auto& p : per_shard) {
    merged.insert(merged.end(), p.begin(), p.end());
  }
  SortByScore(&merged);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

}  // namespace embellish::index
