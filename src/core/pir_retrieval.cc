#include "core/pir_retrieval.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

namespace {

// Column header: [u32 BE posting count][u8 doc-id width][u8 impact width].
constexpr size_t kColumnHeaderBytes = 6;

// Bits needed to hold `value`, at least 1.
int WidthOf(uint32_t value) {
  return std::max(1, static_cast<int>(std::bit_width(value)));
}

// Writes the low `width` bits of `value`, MSB-first, at bit `*pos` of `out`.
void PutBits(uint32_t value, int width, size_t* pos,
             std::vector<uint8_t>* out) {
  for (int b = width - 1; b >= 0; --b, ++*pos) {
    if ((value >> b) & 1) {
      (*out)[*pos / 8] |= static_cast<uint8_t>(0x80u >> (*pos % 8));
    }
  }
}

// Reads `width` (<= 32) bits MSB-first from bit `*pos` of `bits`.
uint32_t GetBits(const std::vector<bool>& bits, int width, size_t* pos) {
  uint32_t value = 0;
  for (int b = 0; b < width; ++b) value = (value << 1) | bits[(*pos)++];
  return value;
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

  // Each member is encoded once; the rows are sized by the largest
  // encoding, and the zero matrix pads every shorter column.
  const std::vector<wordnet::TermId>& members = buckets_->bucket(bucket);
  std::vector<std::vector<uint8_t>> columns;
  columns.reserve(members.size());
  size_t max_bytes = 0;
  for (wordnet::TermId t : members) {
    std::span<const index::Posting> list;
    if (const std::vector<index::Posting>* p = index_->postings(t)) list = *p;
    columns.push_back(ColumnBytesFromPostings(list));
    max_bytes = std::max(max_bytes, columns.back().size());
  }
  auto matrix =
      std::make_unique<crypto::PirDatabase>(8 * max_bytes, members.size());
  for (size_t col = 0; col < members.size(); ++col) {
    matrix->SetColumnFromBytes(col, columns[col]);
  }
  const crypto::PirDatabase* out = matrix.get();
  matrix_cache_.emplace(bucket, std::move(matrix));
  return out;
}

Result<crypto::PirResponse> PirRetrievalServer::Answer(
    size_t bucket, const crypto::PirQuery& query, RetrievalCosts* costs,
    crypto::PirBatchStats* stats) const {
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
  uint64_t ops = 0;
  double cpu_ms = 0.0;
  EMB_ASSIGN_OR_RETURN(crypto::PirResponse response,
                       server_impl.Answer(query, &ops, &cpu_ms));
  if (costs != nullptr) {
    costs->server_cpu_ms += cpu_ms;
  }
  if (stats != nullptr) {
    stats->Add({.queries = 1,
                .sweeps = 1,
                .rows_extracted = matrix->rows(),
                .mont_muls = ops,
                .cpu_ms = cpu_ms});
  }
  return response;
}

Result<std::vector<crypto::PirResponse>> PirRetrievalServer::AnswerBatch(
    const std::vector<PirBatchItem>& items, RetrievalCosts* costs,
    crypto::PirBatchStats* stats) const {
  std::vector<crypto::PirResponse> responses;
  responses.reserve(items.size());
  for (const PirBatchItem& item : items) {
    if (item.query == nullptr) {
      return Status::InvalidArgument("null query in PIR batch item");
    }
    EMB_ASSIGN_OR_RETURN(crypto::PirResponse response,
                         Answer(item.bucket, *item.query, costs, stats));
    responses.push_back(std::move(response));
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

std::vector<uint8_t> ColumnBytesFromPostings(
    std::span<const index::Posting> postings) {
  uint32_t max_doc = 0;
  uint32_t max_impact = 0;
  for (const index::Posting& p : postings) {
    max_doc = std::max(max_doc, p.doc);
    max_impact = std::max(max_impact, p.impact);
  }
  assert(max_impact <= 0xFF && "impacts exceed the 8-bit column bound");
  const int doc_width = WidthOf(max_doc);
  const int impact_width = WidthOf(max_impact);
  const size_t count = postings.size();
  std::vector<uint8_t> out(
      kColumnHeaderBytes + (count * (doc_width + impact_width) + 7) / 8, 0);
  size_t pos = 0;
  PutBits(static_cast<uint32_t>(count), 32, &pos, &out);
  PutBits(static_cast<uint32_t>(doc_width), 8, &pos, &out);
  PutBits(static_cast<uint32_t>(impact_width), 8, &pos, &out);
  for (const index::Posting& p : postings) {
    PutBits(p.doc, doc_width, &pos, &out);
    PutBits(p.impact, impact_width, &pos, &out);
  }
  return out;
}

Result<std::vector<index::Posting>> PostingsFromColumnBits(
    const std::vector<bool>& bits) {
  if (bits.size() < kColumnHeaderBytes * 8) {
    return Status::Corruption("PIR column shorter than its 6-byte header");
  }
  size_t pos = 0;
  const uint32_t count = GetBits(bits, 32, &pos);
  const int doc_width = static_cast<int>(GetBits(bits, 8, &pos));
  const int impact_width = static_cast<int>(GetBits(bits, 8, &pos));
  if (doc_width < 1 || doc_width > 32) {
    return Status::Corruption(
        StringPrintf("PIR column doc-id width %d out of [1, 32]", doc_width));
  }
  if (impact_width < 1 || impact_width > 8) {
    return Status::Corruption(
        StringPrintf("PIR column impact width %d out of [1, 8]", impact_width));
  }
  // In 64 bits, so a hostile count cannot wrap past the check.
  if (uint64_t{count} * static_cast<uint64_t>(doc_width + impact_width) >
      bits.size() - pos) {
    return Status::Corruption("PIR column postings exceed its payload");
  }
  std::vector<index::Posting> postings(count);
  for (index::Posting& p : postings) {
    p.doc = GetBits(bits, doc_width, &pos);
    p.impact = GetBits(bits, impact_width, &pos);
  }
  return postings;
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
