#include "core/pir_retrieval.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

namespace {

// Column header: [u32 BE posting count][u8 top impact][u8 Rice parameter k].
constexpr size_t kColumnHeaderBits = 48;
constexpr int kMaxRiceParameter = 31;

// The value posting i's Rice code carries: its doc id where an impact run
// starts, else its gap past the previous doc id, less one.
uint32_t RiceValue(std::span<const index::Posting> postings, size_t i) {
  if (i == 0 || postings[i].impact != postings[i - 1].impact) {
    return postings[i].doc;
  }
  return postings[i].doc - postings[i - 1].doc - 1;
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

// Writes `n` one-bits, then a zero-bit.
void PutUnary(uint32_t n, size_t* pos, std::vector<uint8_t>* out) {
  for (; n > 0; --n) PutBits(1, 1, pos, out);
  ++*pos;
}

// Reads `width` (<= 32) bits MSB-first from bit `*pos` of `bits`.
uint32_t GetBits(const std::vector<bool>& bits, int width, size_t* pos) {
  uint32_t value = 0;
  for (int b = 0; b < width; ++b) value = (value << 1) | bits[(*pos)++];
  return value;
}

// Reads the one-bits before the next zero-bit, consuming both; stops after
// max + 1 ones, which the caller refuses. Corruption when the run reaches
// the column's end.
Result<uint64_t> GetUnary(const std::vector<bool>& bits, uint64_t max,
                          size_t* pos) {
  uint64_t n = 0;
  while (*pos < bits.size()) {
    if (!bits[(*pos)++] || n++ == max) return n;
  }
  return Status::Corruption("PIR column unary run reaches the column's end");
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
  {
    std::lock_guard<std::mutex> lock(*matrix_mu_);
    auto it = matrix_cache_.find(bucket);
    if (it != matrix_cache_.end()) return it->second.get();
  }

  // A missing matrix is built outside the lock, so first touches of
  // different buckets build in parallel and lookups of built buckets never
  // wait behind a build. Threads that first-touch the same bucket at once
  // each build the same bytes; the first insert wins and the others drop
  // their copies. Each member is encoded once; the rows are sized by the
  // largest encoding, and the zero matrix pads every shorter column.
  const std::vector<wordnet::TermId>& members = buckets_->bucket(bucket);
  std::vector<std::vector<uint8_t>> columns;
  columns.reserve(members.size());
  size_t max_bytes = 0;
  for (wordnet::TermId t : members) {
    std::span<const index::Posting> list;
    if (const std::vector<index::Posting>* p = index_->postings(t)) list = *p;
    EMB_ASSIGN_OR_RETURN(std::vector<uint8_t> column,
                         ColumnBytesFromPostings(list));
    max_bytes = std::max(max_bytes, column.size());
    columns.push_back(std::move(column));
  }
  auto matrix =
      std::make_unique<crypto::PirDatabase>(8 * max_bytes, members.size());
  for (size_t col = 0; col < members.size(); ++col) {
    matrix->SetColumnFromBytes(col, columns[col]);
  }
  std::lock_guard<std::mutex> lock(*matrix_mu_);
  return matrix_cache_.try_emplace(bucket, std::move(matrix))
      .first->second.get();
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

Result<std::vector<uint8_t>> ColumnBytesFromPostings(
    std::span<const index::Posting> postings) {
  // Each drop costs drop + 1 bits whatever k is.
  uint64_t drop_bits = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    const index::Posting& p = postings[i];
    if (p.impact == 0) {
      return Status::InvalidArgument(
          StringPrintf("PIR column impact 0 at posting %zu", i));
    }
    if (i > 0 && !index::PostingOrder(postings[i - 1], p)) {
      return Status::InvalidArgument(StringPrintf(
          "PIR column list leaves strict PostingOrder at posting %zu", i));
    }
    drop_bits += (i == 0 ? 0 : postings[i - 1].impact - p.impact) + 1;
  }
  // The value codes cost count x (1 + k) bits plus the quotients. That is
  // convex in k, so the first k whose successor does no better is the
  // smallest k with the fewest bits.
  const uint64_t count = postings.size();
  int k = 0;
  uint64_t value_bits = UINT64_MAX;
  for (int c = 0; c <= kMaxRiceParameter; ++c) {
    uint64_t bits = count * static_cast<uint64_t>(1 + c);
    for (size_t i = 0; i < count; ++i) bits += RiceValue(postings, i) >> c;
    if (bits >= value_bits) break;
    k = c;
    value_bits = bits;
  }

  std::vector<uint8_t> out((kColumnHeaderBits + drop_bits + value_bits + 7) / 8,
                           0);
  size_t pos = 0;
  PutBits(static_cast<uint32_t>(count), 32, &pos, &out);
  PutBits(postings.empty() ? 1 : postings.front().impact, 8, &pos, &out);
  PutBits(static_cast<uint32_t>(k), 8, &pos, &out);
  for (size_t i = 0; i < count; ++i) {
    PutUnary(i == 0 ? 0 : postings[i - 1].impact - postings[i].impact, &pos,
             &out);
    const uint32_t value = RiceValue(postings, i);
    PutUnary(value >> k, &pos, &out);
    PutBits(value, k, &pos, &out);
  }
  return out;
}

Result<std::vector<index::Posting>> PostingsFromColumnBits(
    const std::vector<bool>& bits) {
  if (bits.size() < kColumnHeaderBits) {
    return Status::Corruption("PIR column shorter than its 6-byte header");
  }
  size_t pos = 0;
  const uint32_t count = GetBits(bits, 32, &pos);
  uint32_t impact = GetBits(bits, 8, &pos);
  const int k = static_cast<int>(GetBits(bits, 8, &pos));
  if (impact == 0) return Status::Corruption("PIR column top impact is 0");
  if (k > kMaxRiceParameter) {
    return Status::Corruption(
        StringPrintf("PIR column Rice parameter %d out of [0, 31]", k));
  }
  // Each posting takes at least its two unary zero-bits and k remainder
  // bits. In 64 bits, so a hostile count cannot wrap past the check.
  if (uint64_t{count} * static_cast<uint64_t>(2 + k) > bits.size() - pos) {
    return Status::Corruption("PIR column postings exceed its payload");
  }
  const uint64_t max_quotient = uint64_t{UINT32_MAX} >> k;
  std::vector<index::Posting> postings;
  postings.reserve(count);
  uint64_t doc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    EMB_ASSIGN_OR_RETURN(uint64_t drop, GetUnary(bits, impact - 1, &pos));
    if (drop >= impact) {
      return Status::Corruption("PIR column impact drops below 1");
    }
    EMB_ASSIGN_OR_RETURN(uint64_t quotient,
                         GetUnary(bits, max_quotient, &pos));
    if (quotient > max_quotient) {
      return Status::Corruption("PIR column value passes 2^32 - 1");
    }
    if (bits.size() - pos < static_cast<size_t>(k)) {
      return Status::Corruption("PIR column remainder cut short");
    }
    const uint64_t value = (quotient << k) | GetBits(bits, k, &pos);
    doc = (i == 0 || drop > 0) ? value : doc + 1 + value;
    if (doc > UINT32_MAX) {
      return Status::Corruption("PIR column doc id passes 2^32 - 1");
    }
    impact -= static_cast<uint32_t>(drop);
    // The top impact is an 8-bit field and only drops, so it fits the byte.
    postings.push_back(
        {static_cast<uint32_t>(doc), static_cast<uint8_t>(impact)});
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
