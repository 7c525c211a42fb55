#include "core/sharded_retrieval.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

std::vector<storage::StorageLayout> BuildShardLayouts(
    const index::ShardedIndex& sharded, const BucketOrganization& buckets,
    storage::LayoutPolicy policy,
    const storage::DiskModelOptions& disk_options) {
  std::vector<storage::StorageLayout> layouts;
  layouts.reserve(sharded.shard_count());
  for (size_t s = 0; s < sharded.shard_count(); ++s) {
    layouts.push_back(storage::StorageLayout::Build(
        sharded.shard(s), buckets.buckets(), policy, disk_options));
  }
  return layouts;
}

ShardedPrivateRetrievalServer::ShardedPrivateRetrievalServer(
    const index::ShardedIndex* sharded, const BucketOrganization* buckets,
    const std::vector<storage::StorageLayout>* layouts,
    const storage::DiskModelOptions& disk_options,
    const PrivateRetrievalServerOptions& options, ThreadPool* pool,
    size_t max_parallel)
    : pool_(pool), max_parallel_(max_parallel) {
  servers_.reserve(sharded->shard_count());
  for (size_t s = 0; s < sharded->shard_count(); ++s) {
    const storage::StorageLayout* layout =
        layouts != nullptr && s < layouts->size() ? &(*layouts)[s] : nullptr;
    servers_.emplace_back(&sharded->shard(s), buckets, layout, disk_options,
                          options, /*pool=*/nullptr);
  }
}

EncryptedResult MergeShardResults(std::vector<EncryptedResult> per_shard) {
  EncryptedResult merged;
  size_t total = 0;
  for (const EncryptedResult& p : per_shard) total += p.candidates.size();
  merged.candidates.reserve(total);
  for (EncryptedResult& p : per_shard) {
    merged.candidates.insert(merged.candidates.end(),
                             std::make_move_iterator(p.candidates.begin()),
                             std::make_move_iterator(p.candidates.end()));
  }
  // Documents are shard-disjoint and each shard sums a document's whole
  // bound, so re-sorting by (bound, doc) restores exactly the order the
  // monolithic server emits.
  SortCandidates(&merged.candidates);
  return merged;
}

Result<EncryptedResult> ShardedPrivateRetrievalServer::Process(
    const EmbellishedQuery& query, const crypto::BenalohPublicKey& pk,
    RetrievalCosts* costs) const {
  const size_t shards = servers_.size();
  std::vector<Result<EncryptedResult>> partial(
      shards, Result<EncryptedResult>(Status::Internal("shard not evaluated")));
  std::vector<RetrievalCosts> shard_costs(shards);

  index::ForEachShard(pool_, shards, [&](size_t s) {
    partial[s] = servers_[s].Process(query, pk, &shard_costs[s]);
  }, max_parallel_);

  std::vector<EncryptedResult> results;
  results.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    EMB_RETURN_NOT_OK(partial[s].status());
    results.push_back(std::move(*partial[s]));
  }
  if (costs != nullptr) {
    for (const RetrievalCosts& c : shard_costs) costs->Add(c);
  }
  return MergeShardResults(std::move(results));
}

ShardedPirRetrievalServer::ShardedPirRetrievalServer(
    const index::ShardedIndex* sharded, const BucketOrganization* buckets,
    const std::vector<storage::StorageLayout>* layouts,
    const storage::DiskModelOptions& disk_options, ThreadPool* pool,
    size_t max_parallel)
    : pool_(pool), max_parallel_(max_parallel) {
  servers_.reserve(sharded->shard_count());
  for (size_t s = 0; s < sharded->shard_count(); ++s) {
    const storage::StorageLayout* layout =
        layouts != nullptr && s < layouts->size() ? &(*layouts)[s] : nullptr;
    servers_.emplace_back(&sharded->shard(s), buckets, layout, disk_options,
                          /*pool=*/nullptr);
  }
}

Result<crypto::PirResponse> ShardedPirRetrievalServer::Answer(
    size_t shard, size_t bucket, const crypto::PirQuery& query,
    RetrievalCosts* costs) const {
  if (shard >= servers_.size()) {
    return Status::OutOfRange(
        StringPrintf("shard %zu out of range (%zu shards)", shard,
                     servers_.size()));
  }
  return servers_[shard].Answer(bucket, query, costs);
}

Result<std::vector<crypto::PirResponse>> ShardedPirRetrievalServer::AnswerAll(
    size_t bucket, const crypto::PirQuery& query,
    RetrievalCosts* costs) const {
  const size_t shards = servers_.size();
  std::vector<Result<crypto::PirResponse>> partial(
      shards,
      Result<crypto::PirResponse>(Status::Internal("shard not evaluated")));
  std::vector<RetrievalCosts> shard_costs(shards);

  // Each task touches only its own shard's server, so the per-shard lazy
  // matrix caches never race.
  index::ForEachShard(pool_, shards, [&](size_t s) {
    partial[s] = servers_[s].Answer(bucket, query, &shard_costs[s]);
  }, max_parallel_);

  std::vector<crypto::PirResponse> out;
  out.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    EMB_RETURN_NOT_OK(partial[s].status());
    out.push_back(std::move(*partial[s]));
  }
  if (costs != nullptr) {
    for (const RetrievalCosts& c : shard_costs) costs->Add(c);
  }
  return out;
}

Result<std::vector<index::Posting>> RetrieveListSharded(
    const PirRetrievalClient& client, const ShardedPirRetrievalServer& server,
    wordnet::TermId term, Rng* rng, RetrievalCosts* costs) {
  EMB_ASSIGN_OR_RETURN(BucketSlot where, client.buckets().Locate(term));
  const size_t cols = client.buckets().bucket(where.bucket).size();

  // One query serves every shard: the bucket organization (and thus the
  // column space) is shared; only the row counts differ per shard.
  CpuStopwatch cpu;
  EMB_ASSIGN_OR_RETURN(crypto::PirQuery query,
                       client.pir_client().BuildQuery(where.slot, cols, rng));
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
    costs->uplink_bytes += query.WireBytes();
  }

  EMB_ASSIGN_OR_RETURN(std::vector<crypto::PirResponse> responses,
                       server.AnswerAll(where.bucket, query, costs));

  cpu.Restart();
  std::vector<std::vector<index::Posting>> fragments;
  fragments.reserve(responses.size());
  for (const crypto::PirResponse& response : responses) {
    if (costs != nullptr) {
      costs->downlink_bytes += response.WireBytes();
    }
    EMB_ASSIGN_OR_RETURN(std::vector<bool> bits,
                         client.pir_client().DecodeResponse(response));
    EMB_ASSIGN_OR_RETURN(std::vector<index::Posting> fragment,
                         PostingsFromColumnBits(bits));
    fragments.push_back(std::move(fragment));
  }
  std::vector<index::Posting> merged = index::MergeShardPostings(fragments);
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
  }
  return merged;
}

Result<std::vector<index::ScoredDoc>> RunQuerySharded(
    const PirRetrievalClient& client, const ShardedPirRetrievalServer& server,
    const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
    RetrievalCosts* costs) {
  return RankRetrievedLists(
      genuine_terms, k, costs, [&](wordnet::TermId term) {
        return RetrieveListSharded(client, server, term, rng, costs);
      });
}

}  // namespace embellish::core
