#include "core/pir_retrieval.h"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

namespace {

constexpr int kMaxRiceParameter = 31;

// A PIR column: [u32 BE posting count][u8 top impact][u8 Rice parameter k].
constexpr RiceListFormat kColumnFormat{
    8, 1, "PIR column", "impact", "postings", "column"};

// The value entry i's Rice code carries: its doc id where a value run
// starts, else its gap past the previous doc id, less one.
uint32_t RiceValue(std::span<const RiceEntry> entries, size_t i) {
  if (i == 0 || entries[i].value != entries[i - 1].value) {
    return entries[i].doc;
  }
  return entries[i].doc - entries[i - 1].doc - 1;
}

// A list's Rice parameter and its size in bits, header included.
struct RicePlan {
  int k = 0;
  uint64_t bits = 0;
};

RicePlan PlanRiceList(std::span<const RiceEntry> entries,
                      const RiceListFormat& format) {
  // Each drop costs drop + 1 bits whatever k is.
  uint64_t drop_bits = 0;
  uint64_t value_sum = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    drop_bits += (i == 0 ? 0 : entries[i - 1].value - entries[i].value) + 1;
    value_sum += RiceValue(entries, i);
  }
  // The value codes cost count x (1 + k) bits plus the quotients. Each
  // step up in k saves a value ceil(quotient / 2) bits, which never grows
  // with k, so the cost is convex in k: a walk from the mean value's width,
  // down while no worse and else up while better, ends at the smallest k
  // with the fewest bits.
  const uint64_t count = entries.size();
  const auto value_bits = [&](int c) {
    uint64_t bits = count * static_cast<uint64_t>(1 + c);
    for (size_t i = 0; i < count; ++i) bits += RiceValue(entries, i) >> c;
    return bits;
  };
  RicePlan plan;
  if (count > 0) {
    const int mean_width = static_cast<int>(std::bit_width(value_sum / count));
    plan.k = std::max(0, mean_width - 1);
  }
  uint64_t best = value_bits(plan.k);
  for (int step : {-1, 1}) {
    for (int c = plan.k + step; c >= 0 && c <= kMaxRiceParameter; c += step) {
      const uint64_t bits = value_bits(c);
      if (step < 0 ? bits > best : bits >= best) break;
      plan.k = c;
      best = bits;
    }
  }
  plan.bits = 32 + format.top_bits + 8 + drop_bits + best;
  return plan;
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

// The first `size` bits of a byte string, MSB-first.
struct BitSpan {
  const uint8_t* data;
  size_t size;

  bool operator[](size_t i) const { return (data[i / 8] >> (7 - i % 8)) & 1; }
};

// Reads `width` (<= 32) bits MSB-first from bit `*pos` of `bits`.
uint32_t GetBits(BitSpan bits, int width, size_t* pos) {
  uint32_t value = 0;
  for (int b = 0; b < width; ++b) value = (value << 1) | bits[(*pos)++];
  return value;
}

// Reads the one-bits before the next zero-bit, consuming both; stops after
// max + 1 ones, which the caller refuses. Corruption when the run reaches
// the end of the bits.
Result<uint64_t> GetUnary(BitSpan bits, uint64_t max,
                          const RiceListFormat& format, size_t* pos) {
  uint64_t n = 0;
  while (*pos < bits.size) {
    if (!bits[(*pos)++] || n++ == max) return n;
  }
  return Status::Corruption(StringPrintf("%s unary run reaches the %s's end",
                                         format.name, format.end));
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

Result<std::vector<uint8_t>> EncodeRiceList(std::span<const RiceEntry> entries,
                                            const RiceListFormat& format) {
  for (size_t i = 0; i < entries.size(); ++i) {
    const RiceEntry& e = entries[i];
    if (e.value == 0) {
      return Status::InvalidArgument(StringPrintf(
          "%s %s 0 at entry %zu", format.name, format.value, i));
    }
    if (i > 0 && !(entries[i - 1].value > e.value ||
                   (entries[i - 1].value == e.value &&
                    entries[i - 1].doc < e.doc))) {
      return Status::InvalidArgument(
          StringPrintf("%s leaves strict (%s desc, doc asc) order at entry %zu",
                       format.name, format.value, i));
    }
  }
  const uint32_t top = entries.empty() ? format.empty_top : entries[0].value;
  if (format.top_bits < 32 && (top >> format.top_bits) != 0) {
    return Status::InvalidArgument(StringPrintf(
        "%s top %s %u exceeds %d bits", format.name, format.value, top,
        format.top_bits));
  }

  const RicePlan plan = PlanRiceList(entries, format);
  std::vector<uint8_t> out((plan.bits + 7) / 8, 0);
  size_t pos = 0;
  PutBits(static_cast<uint32_t>(entries.size()), 32, &pos, &out);
  PutBits(top, format.top_bits, &pos, &out);
  PutBits(static_cast<uint32_t>(plan.k), 8, &pos, &out);
  for (size_t i = 0; i < entries.size(); ++i) {
    PutUnary(i == 0 ? 0 : entries[i - 1].value - entries[i].value, &pos, &out);
    const uint32_t value = RiceValue(entries, i);
    PutUnary(value >> plan.k, &pos, &out);
    PutBits(value, plan.k, &pos, &out);
  }
  return out;
}

size_t RiceListBytes(std::span<const RiceEntry> entries,
                     const RiceListFormat& format) {
  return (PlanRiceList(entries, format).bits + 7) / 8;
}

Result<std::vector<RiceEntry>> DecodeRiceList(std::span<const uint8_t> bytes,
                                              size_t bit_count,
                                              const RiceListFormat& format,
                                              size_t* end_bit) {
  const BitSpan bits{bytes.data(), std::min(bit_count, 8 * bytes.size())};
  const size_t header_bits = 32 + static_cast<size_t>(format.top_bits) + 8;
  if (bits.size < header_bits) {
    return Status::Corruption(
        StringPrintf("%s shorter than its %zu-byte header", format.name,
                     header_bits / 8));
  }
  size_t pos = 0;
  const uint32_t count = GetBits(bits, 32, &pos);
  uint32_t value = GetBits(bits, format.top_bits, &pos);
  const int k = static_cast<int>(GetBits(bits, 8, &pos));
  if (value == 0 && (count > 0 || format.empty_top != 0)) {
    return Status::Corruption(
        StringPrintf("%s top %s is 0", format.name, format.value));
  }
  if (count == 0 && value != format.empty_top) {
    return Status::Corruption(StringPrintf("%s top %s %u with no %s",
                                           format.name, format.value, value,
                                           format.entries));
  }
  if (k > kMaxRiceParameter) {
    return Status::Corruption(StringPrintf(
        "%s Rice parameter %d out of [0, 31]", format.name, k));
  }
  // Each entry takes at least its two unary zero-bits and k remainder
  // bits. In 64 bits, so a hostile count cannot wrap past the check.
  if (uint64_t{count} * static_cast<uint64_t>(2 + k) > bits.size - pos) {
    return Status::Corruption(
        StringPrintf("%s %s exceed its payload", format.name, format.entries));
  }
  const uint64_t max_quotient = uint64_t{UINT32_MAX} >> k;
  std::vector<RiceEntry> entries;
  entries.reserve(count);
  uint64_t doc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    EMB_ASSIGN_OR_RETURN(uint64_t drop,
                         GetUnary(bits, value - 1, format, &pos));
    if (drop >= value) {
      return Status::Corruption(
          StringPrintf("%s %s drops below 1", format.name, format.value));
    }
    EMB_ASSIGN_OR_RETURN(uint64_t quotient,
                         GetUnary(bits, max_quotient, format, &pos));
    if (quotient > max_quotient) {
      return Status::Corruption(
          StringPrintf("%s value passes 2^32 - 1", format.name));
    }
    if (bits.size - pos < static_cast<size_t>(k)) {
      return Status::Corruption(
          StringPrintf("%s remainder cut short", format.name));
    }
    const uint64_t rice = (quotient << k) | GetBits(bits, k, &pos);
    doc = (i == 0 || drop > 0) ? rice : doc + 1 + rice;
    if (doc > UINT32_MAX) {
      return Status::Corruption(
          StringPrintf("%s doc id passes 2^32 - 1", format.name));
    }
    value -= static_cast<uint32_t>(drop);
    entries.push_back({value, static_cast<uint32_t>(doc)});
  }
  if (end_bit != nullptr) *end_bit = pos;
  return entries;
}

Result<std::vector<uint8_t>> ColumnBytesFromPostings(
    std::span<const index::Posting> postings) {
  std::vector<RiceEntry> entries;
  entries.reserve(postings.size());
  for (const index::Posting& p : postings) entries.push_back({p.impact, p.doc});
  return EncodeRiceList(entries, kColumnFormat);
}

Result<std::vector<index::Posting>> PostingsFromColumnBits(
    const std::vector<bool>& bits) {
  std::vector<uint8_t> packed((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) packed[i / 8] |= static_cast<uint8_t>(0x80u >> (i % 8));
  }
  EMB_ASSIGN_OR_RETURN(std::vector<RiceEntry> entries,
                       DecodeRiceList(packed, bits.size(), kColumnFormat));
  std::vector<index::Posting> postings;
  postings.reserve(entries.size());
  // The top impact is an 8-bit field and only drops, so it fits the byte.
  for (const RiceEntry& e : entries) {
    postings.push_back({e.doc, static_cast<uint8_t>(e.value)});
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
