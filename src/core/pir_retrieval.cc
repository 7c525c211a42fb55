#include "core/pir_retrieval.h"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

namespace {

// Column payload: [4-byte BE length][list bytes][zero padding].
std::vector<uint8_t> EncodeColumn(const std::vector<uint8_t>& list_bytes,
                                  size_t padded_payload) {
  std::vector<uint8_t> out;
  out.reserve(4 + padded_payload);
  uint32_t len = static_cast<uint32_t>(list_bytes.size());
  out.push_back(static_cast<uint8_t>(len >> 24));
  out.push_back(static_cast<uint8_t>(len >> 16));
  out.push_back(static_cast<uint8_t>(len >> 8));
  out.push_back(static_cast<uint8_t>(len));
  out.insert(out.end(), list_bytes.begin(), list_bytes.end());
  out.resize(4 + padded_payload, 0);
  return out;
}

}  // namespace

PirRetrievalServer::PirRetrievalServer(
    const index::InvertedIndex* index, const BucketOrganization* buckets,
    const storage::StorageLayout* layout,
    const storage::DiskModelOptions& disk_options, ThreadPool* pool)
    : index_(index),
      buckets_(buckets),
      layout_(layout),
      disk_options_(disk_options),
      pool_(pool) {}

Result<const crypto::PirDatabase*> PirRetrievalServer::BucketMatrix(
    size_t bucket) const {
  if (bucket >= buckets_->bucket_count()) {
    return Status::OutOfRange(StringPrintf("bucket %zu out of range", bucket));
  }
  // Lazy materialization happens under the lock (a per-epoch warm-up cost);
  // the common case — the matrix already exists — holds it only for the
  // lookup, so concurrent queries never serialize behind each other's
  // compute.
  std::lock_guard<std::mutex> lock(*matrix_mu_);
  auto it = matrix_cache_.find(bucket);
  if (it != matrix_cache_.end()) return it->second.get();

  const std::vector<wordnet::TermId>& members = buckets_->bucket(bucket);
  size_t max_bytes = 0;
  for (wordnet::TermId t : members) {
    max_bytes = std::max(max_bytes, index_->ListBytes(t));
  }
  const size_t rows = (4 + max_bytes) * 8;
  auto matrix =
      std::make_unique<crypto::PirDatabase>(rows, members.size());
  for (size_t col = 0; col < members.size(); ++col) {
    std::vector<uint8_t> column =
        EncodeColumn(index_->SerializeList(members[col]), max_bytes);
    matrix->SetColumnFromBytes(col, column);
  }
  const crypto::PirDatabase* out = matrix.get();
  matrix_cache_.emplace(bucket, std::move(matrix));
  return out;
}

Result<crypto::PirResponse> PirRetrievalServer::Answer(
    size_t bucket, const crypto::PirQuery& query,
    RetrievalCosts* costs) const {
  EMB_ASSIGN_OR_RETURN(const crypto::PirDatabase* matrix,
                       BucketMatrix(bucket));

  // I/O: the protocol touches every list in the bucket ("the generation of
  // the output involves all the terms in the bucket"), one extent fetch.
  if (layout_ != nullptr && costs != nullptr) {
    storage::SimulatedDisk disk(disk_options_);
    EMB_RETURN_NOT_OK(layout_->ChargeGroupRead(bucket, &disk));
    costs->server_io_ms += disk.accumulated_ms();
  }

  // CPU is accounted inside Answer (summed across pool workers when the
  // evaluation is parallel), not with a caller-side stopwatch, which would
  // miss the cycles worker threads burn.
  crypto::PirServer server_impl(
      std::shared_ptr<const crypto::PirDatabase>(matrix, [](auto*) {}), pool_);
  double cpu_ms = 0.0;
  EMB_ASSIGN_OR_RETURN(crypto::PirResponse response,
                       server_impl.Answer(query, nullptr, &cpu_ms));
  if (costs != nullptr) {
    costs->server_cpu_ms += cpu_ms;
  }
  return response;
}

Result<std::vector<crypto::PirResponse>> PirRetrievalServer::AnswerBatch(
    const std::vector<PirBatchItem>& items, RetrievalCosts* costs,
    crypto::PirBatchStats* stats) const {
  std::vector<crypto::PirResponse> responses(items.size());
  if (items.empty()) return responses;

  // Group item indices by bucket (ordered, so evaluation order is
  // deterministic), preserving arrival order within each group.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].query == nullptr) {
      return Status::InvalidArgument("null query in PIR batch item");
    }
    groups[items[i].bucket].push_back(i);
  }

  for (const auto& [bucket, indices] : groups) {
    EMB_ASSIGN_OR_RETURN(const crypto::PirDatabase* matrix,
                         BucketMatrix(bucket));

    // I/O: one bucket fetch per group — the shared sweep touches every list
    // in the bucket once for all of the group's queries.
    if (layout_ != nullptr && costs != nullptr) {
      storage::SimulatedDisk disk(disk_options_);
      EMB_RETURN_NOT_OK(layout_->ChargeGroupRead(bucket, &disk));
      costs->server_io_ms += disk.accumulated_ms();
    }

    std::vector<const crypto::PirQuery*> queries;
    queries.reserve(indices.size());
    for (size_t i : indices) queries.push_back(items[i].query);

    crypto::PirServer server_impl(
        std::shared_ptr<const crypto::PirDatabase>(matrix, [](auto*) {}),
        pool_);
    crypto::PirBatchStats group_stats;
    EMB_ASSIGN_OR_RETURN(
        std::vector<crypto::PirResponse> group,
        server_impl.AnswerBatch(
            std::span<const crypto::PirQuery* const>(queries), &group_stats));
    for (size_t j = 0; j < indices.size(); ++j) {
      responses[indices[j]] = std::move(group[j]);
    }
    if (costs != nullptr) costs->server_cpu_ms += group_stats.cpu_ms;
    if (stats != nullptr) stats->Add(group_stats);
  }
  return responses;
}

PirRetrievalClient::PirRetrievalClient(const BucketOrganization* buckets,
                                       crypto::PirClient pir_client)
    : buckets_(buckets), pir_client_(std::move(pir_client)) {}

Result<PirRetrievalClient> PirRetrievalClient::Create(
    const BucketOrganization* buckets, size_t key_bits, Rng* rng) {
  EMB_ASSIGN_OR_RETURN(crypto::PirClient pir_client,
                       crypto::PirClient::Create(key_bits, rng));
  return PirRetrievalClient(buckets, std::move(pir_client));
}

Result<std::vector<index::Posting>> PostingsFromColumnBits(
    const std::vector<bool>& bits) {
  if (bits.size() < 32 || bits.size() % 8 != 0) {
    return Status::Corruption("PIR response has invalid bit count");
  }
  std::vector<uint8_t> bytes(bits.size() / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) bytes[i / 8] |= static_cast<uint8_t>(1u << (7 - i % 8));
  }
  const uint32_t len = (static_cast<uint32_t>(bytes[0]) << 24) |
                       (static_cast<uint32_t>(bytes[1]) << 16) |
                       (static_cast<uint32_t>(bytes[2]) << 8) |
                       static_cast<uint32_t>(bytes[3]);
  if (len > bytes.size() - 4) {
    return Status::Corruption("PIR column length prefix exceeds payload");
  }
  std::vector<uint8_t> list_bytes(bytes.begin() + 4, bytes.begin() + 4 + len);
  return index::InvertedIndex::DeserializeList(list_bytes);
}

Result<std::vector<index::Posting>> PirRetrievalClient::RetrieveList(
    const PirRetrievalServer& server, wordnet::TermId term, Rng* rng,
    RetrievalCosts* costs) const {
  EMB_ASSIGN_OR_RETURN(BucketSlot where, buckets_->Locate(term));
  const size_t cols = buckets_->bucket(where.bucket).size();

  CpuStopwatch cpu;
  EMB_ASSIGN_OR_RETURN(crypto::PirQuery query,
                       pir_client_.BuildQuery(where.slot, cols, rng));
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
    costs->uplink_bytes += query.WireBytes();
  }

  EMB_ASSIGN_OR_RETURN(crypto::PirResponse response,
                       server.Answer(where.bucket, query, costs));
  if (costs != nullptr) {
    costs->downlink_bytes += response.WireBytes();
  }

  cpu.Restart();
  EMB_ASSIGN_OR_RETURN(std::vector<bool> bits,
                       pir_client_.DecodeResponse(response));
  auto postings = PostingsFromColumnBits(bits);
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
  }
  return postings;
}

Result<std::vector<index::ScoredDoc>> RankRetrievedLists(
    const std::vector<wordnet::TermId>& genuine_terms, size_t k,
    RetrievalCosts* costs,
    const std::function<Result<std::vector<index::Posting>>(wordnet::TermId)>&
        retrieve) {
  if (genuine_terms.empty()) {
    return Status::InvalidArgument("query has no terms");
  }
  // One execution per distinct genuine term ("their inverted lists have to
  // be fetched one at a time").
  std::vector<wordnet::TermId> distinct = genuine_terms;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());

  std::unordered_map<corpus::DocId, uint64_t> acc;
  for (wordnet::TermId term : distinct) {
    EMB_ASSIGN_OR_RETURN(std::vector<index::Posting> list, retrieve(term));
    CpuStopwatch cpu;
    for (const index::Posting& p : list) acc[p.doc] += p.impact;
    if (costs != nullptr) costs->user_cpu_ms += cpu.ElapsedMillis();
  }

  std::vector<index::ScoredDoc> scored;
  scored.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    scored.push_back(index::ScoredDoc{doc, score});
  }
  index::SortByScore(&scored);
  if (scored.size() > k) scored.resize(k);
  return scored;
}

Result<std::vector<index::ScoredDoc>> PirRetrievalClient::RunQuery(
    const PirRetrievalServer& server,
    const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
    RetrievalCosts* costs) const {
  return RankRetrievedLists(
      genuine_terms, k, costs, [&](wordnet::TermId term) {
        return RetrieveList(server, term, rng, costs);
      });
}

}  // namespace embellish::core
