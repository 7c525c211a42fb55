// The "Alternate Retrieval Method" of Section 4: Kushilevitz-Ostrovsky PIR
// over buckets, benchmarked against PR in Section 5.2.
//
// Each bucket is treated as a private database matrix whose columns are the
// bucket's inverted lists, padded to a common length; the i-th row stores
// the i-th bit of the lists. One protocol execution retrieves one column
// (one term's list), so a query with g genuine terms performs g executions.
// The client then scores documents locally from the retrieved lists.
//
// Column layout inside the matrix (owned by this module alone), MSB-first
// and zero-padded to the bucket's largest column: a 4-byte big-endian
// posting count, a 1-byte top impact (the first posting's; 1 for an empty
// list) and a 1-byte Rice parameter k, then every posting in the list's
// stored order (impact descending, doc id ascending) as two codes. First
// its impact drop from the previous posting (from the top impact for the
// first) in unary: `drop` one-bits, then a zero-bit. Then a value v,
// Rice-coded: v >> k one-bits, a zero-bit, and v's low k bits. v is the
// doc id itself where an impact run starts (the first posting, or
// drop > 0), and doc - previous doc - 1 inside a run. The encoder picks the
// smallest k in [0, 31] that gives the list the fewest bits. A bucket's row
// count, 8 x its largest encoded column, depends on that bucket's lists
// alone; the count and k travel inside the column, where only the client
// decodes them.
//
// This module also owns that list codec, a "Rice list": any list of
// (value, doc) entries in strict (value desc, doc asc) order, behind a
// header [u32 count][top value][u8 k]. A PIR column is a Rice list of
// (impact, doc) with an 8-bit top value; a PR answer (core/wire_format)
// carries its candidates as a Rice list of (bound, doc) with a 32-bit one.

#ifndef EMBELLISH_CORE_PIR_RETRIEVAL_H_
#define EMBELLISH_CORE_PIR_RETRIEVAL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/bucket_organization.h"
#include "core/private_retrieval.h"
#include "crypto/pir.h"
#include "index/inverted_index.h"
#include "index/topk.h"
#include "storage/block_device.h"
#include "storage/layout.h"

namespace embellish::core {

/// \brief One item of AnswerBatch: the bucket it addresses and the decoded
///        query it carries (not owned; must outlive the call).
struct PirBatchItem {
  size_t bucket = 0;
  const crypto::PirQuery* query = nullptr;
};

/// \brief Search-engine side: answers per-bucket PIR executions.
///
/// Answer and AnswerBatch are safe to call concurrently: bucket matrices are
/// materialized lazily, built outside an internal mutex that guards only the
/// cache lookup and insert, matrices are immutable once built, and the
/// protocol evaluation fans out over `pool` when supplied.
class PirRetrievalServer {
 public:
  /// \brief `pool` may be null (serial evaluation) and must outlive the
  ///        server; it parallelizes each query's row products.
  PirRetrievalServer(const index::InvertedIndex* index,
                     const BucketOrganization* buckets,
                     const storage::StorageLayout* layout,
                     const storage::DiskModelOptions& disk_options = {},
                     ThreadPool* pool = nullptr);

  /// \brief Runs one PIR execution against bucket `bucket`. Charges one
  ///        bucket fetch of I/O plus the protocol CPU to `costs`, and adds
  ///        one query, one sweep, the matrix's rows, the multiplications and
  ///        the CPU to `stats` when non-null.
  Result<crypto::PirResponse> Answer(size_t bucket,
                                     const crypto::PirQuery& query,
                                     RetrievalCosts* costs,
                                     crypto::PirBatchStats* stats = nullptr)
      const;

  /// \brief Answer for each item in turn; response i corresponds to
  ///        items[i]. Stops at the first failing item. Only perfbench's
  ///        replay calls it, until that replay moves onto Answer.
  Result<std::vector<crypto::PirResponse>> AnswerBatch(
      const std::vector<PirBatchItem>& items, RetrievalCosts* costs,
      crypto::PirBatchStats* stats = nullptr) const;

  /// \brief The (lazily built) matrix for a bucket. Thread-safe: callers
  ///        that first-touch one bucket at once may each build it, and all
  ///        get the one matrix inserted first. The returned matrix is
  ///        immutable and lives as long as the server.
  Result<const crypto::PirDatabase*> BucketMatrix(size_t bucket) const;

 private:
  const index::InvertedIndex* index_;
  const BucketOrganization* buckets_;
  const storage::StorageLayout* layout_;
  storage::DiskModelOptions disk_options_;
  ThreadPool* pool_;  // not owned; null => serial
  // Guards matrix_cache_'s lookups and inserts (matrices are built outside
  // it); matrices themselves are immutable after insertion and entries are
  // never evicted, so pointers handed out remain valid without the lock.
  mutable std::mutex matrix_mu_;
  mutable std::unordered_map<size_t, std::unique_ptr<crypto::PirDatabase>>
      matrix_cache_;
};

/// \brief User side: builds queries, decodes responses, scores locally.
class PirRetrievalClient {
 public:
  /// \brief Generates the client's QR trapdoor key (n = p1*p2).
  static Result<PirRetrievalClient> Create(const BucketOrganization* buckets,
                                           size_t key_bits, Rng* rng);

  /// \brief End-to-end private query: one PIR execution per distinct
  ///        genuine term, local scoring, top-k ranking.
  Result<std::vector<index::ScoredDoc>> RunQuery(
      const PirRetrievalServer& server,
      const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
      RetrievalCosts* costs) const;

  /// \brief Retrieves a single term's inverted list privately.
  Result<std::vector<index::Posting>> RetrieveList(
      const PirRetrievalServer& server, wordnet::TermId term, Rng* rng,
      RetrievalCosts* costs) const;

  /// \brief The underlying KO-PIR client (the sharded retrieval path reuses
  ///        its query builder and response decoder per shard).
  const crypto::PirClient& pir_client() const { return pir_client_; }

  const BucketOrganization& buckets() const { return *buckets_; }

 private:
  PirRetrievalClient(const BucketOrganization* buckets,
                     crypto::PirClient pir_client);

  const BucketOrganization* buckets_;
  crypto::PirClient pir_client_;
};

/// \brief One entry of a Rice list: a posting's impact and doc id in a PIR
///        column, a candidate's bound and doc id in a PR answer.
struct RiceEntry {
  uint32_t value = 0;
  uint32_t doc = 0;
};

/// \brief One Rice list layout: the width of its header's top value, the
///        top value an empty list carries, and the words its codec's
///        messages use ("PIR column", "impact", "postings", "column").
struct RiceListFormat {
  int top_bits;
  uint32_t empty_top;
  const char* name;
  const char* value;
  const char* entries;
  const char* end;  ///< what a unary run must not reach the end of
};

/// \brief Encodes `entries` as a Rice list: the header, then every entry as
///        a unary value drop and a Rice-coded value, zero-filled to a byte
///        boundary. InvalidArgument unless the entries are in strict (value
///        desc, doc asc) order, every value is at least 1 and the first fits
///        the top field.
Result<std::vector<uint8_t>> EncodeRiceList(std::span<const RiceEntry> entries,
                                            const RiceListFormat& format);

/// \brief The bytes EncodeRiceList gives `entries`, which must be valid for
///        it.
size_t RiceListBytes(std::span<const RiceEntry> entries,
                     const RiceListFormat& format);

/// \brief Decodes a Rice list from the first `bit_count` bits of `bytes`
///        (MSB-first); bits past the last entry are left unread, and
///        `*end_bit`, when non-null, is set to the first of them. Corruption
///        when the bits are shorter than the header; the top value is 0
///        while there are entries or the format's empty top is not 0; an
///        empty list's top is not the format's empty top; k exceeds 31;
///        count x (2 + k) bits exceed the bits after the header (counted in
///        64 bits, before anything is allocated); a unary run reaches the
///        end; a drop takes the value below 1; a value or doc id passes
///        2^32 - 1; or a remainder is cut short. The messages use the
///        format's words, e.g. "PIR column impact drops below 1".
Result<std::vector<RiceEntry>> DecodeRiceList(std::span<const uint8_t> bytes,
                                              size_t bit_count,
                                              const RiceListFormat& format,
                                              size_t* end_bit = nullptr);

/// \brief Encodes one inverted list as a PIR column in the layout above,
///        zero-filled only to a byte boundary (the bucket matrix pads it).
///        InvalidArgument unless the list is strictly in index::PostingOrder
///        with no impact 0 (a posting's impact byte bounds it by 255).
Result<std::vector<uint8_t>> ColumnBytesFromPostings(
    std::span<const index::Posting> postings);

/// \brief Parses one decoded PIR column (the bit vector a protocol execution
///        retrieves, padding included) into postings, in stored order: the
///        inverse of ColumnBytesFromPostings. Corruption as DecodeRiceList
///        gives it. Shared by every PIR retrieval path.
Result<std::vector<index::Posting>> PostingsFromColumnBits(
    const std::vector<bool>& bits);

/// \brief Client-side scoring shared by the monolithic and sharded PIR
///        query paths: deduplicates `genuine_terms`, retrieves each term's
///        list via `retrieve`, accumulates impacts per document, and
///        returns the canonical top `k`. Scoring CPU is charged to `costs`;
///        `retrieve` charges its own protocol costs.
Result<std::vector<index::ScoredDoc>> RankRetrievedLists(
    const std::vector<wordnet::TermId>& genuine_terms, size_t k,
    RetrievalCosts* costs,
    const std::function<Result<std::vector<index::Posting>>(wordnet::TermId)>&
        retrieve);

}  // namespace embellish::core

#endif  // EMBELLISH_CORE_PIR_RETRIEVAL_H_
