// Kushilevitz–Ostrovsky computationally-private information retrieval
// (FOCS 1997), as specified in the paper's Appendix A.1 and used as the
// baseline "Alternate Retrieval Method" in Section 4 / Section 5.2.
//
// The server holds a private database organized as an r x c matrix of bits.
// To fetch column y privately, the user sends c numbers q_1..q_c in Z*_n
// where q_y is a quadratic non-residue (with Jacobi symbol +1) and all other
// q_j are quadratic residues. For every row i the server returns
//   gamma_i = prod_j v_ij,  v_ij = q_j^2 if b_ij = 0 else q_j.
// gamma_i is a QR iff b_iy = 0, which the user tests with the factorization
// of n. One protocol execution therefore retrieves one whole column — in the
// paper's usage, one term's padded inverted list out of a bucket.

#ifndef EMBELLISH_CRYPTO_PIR_H_
#define EMBELLISH_CRYPTO_PIR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace embellish::crypto {

/// \brief The bit-matrix "database" the PIR server answers over.
///
/// Rows are bit positions, columns are items (inverted lists in the paper's
/// usage). Bits are stored packed, row-major.
class PirDatabase {
 public:
  /// \brief Creates an all-zero matrix of `rows` x `cols` bits.
  PirDatabase(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  void SetBit(size_t row, size_t col, bool value);
  bool GetBit(size_t row, size_t col) const;

  /// \brief Number of 64-bit words ExtractRow writes per row.
  size_t RowWords() const { return (cols_ + 63) / 64; }

  /// \brief Copies row `row` into `words` (little-endian bit order: column j
  ///        of the row is `(words[j / 64] >> (j % 64)) & 1`). `words` must
  ///        hold RowWords() entries. This is the hot-path accessor: the PIR
  ///        answer kernel reads whole words instead of calling GetBit per
  ///        (row, column) pair.
  void ExtractRow(size_t row, uint64_t* words) const;

  /// \brief Loads column `col` from bytes (MSB-first within each byte).
  void SetColumnFromBytes(size_t col, const std::vector<uint8_t>& bytes);

  /// \brief Size of the database in bytes (for storage accounting).
  size_t SizeBytes() const { return bits_.size(); }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<uint8_t> bits_;  // packed, row-major, 8 bits per byte
};

/// \brief PIR query: the modulus and one residue per database column.
struct PirQuery {
  bignum::BigInt n;
  std::vector<bignum::BigInt> q;  // size = cols

  /// \brief Wire size in bytes: (1 + cols) values of KeyLen bits.
  size_t WireBytes() const;
};

/// \brief PIR response: one residue gamma_i per database row, stored flat.
///
/// `values` holds rows * value_size bytes, row-major, each residue
/// big-endian and zero-padded to `value_size` = ceil(bits(n) / 8) bytes —
/// exactly the bytes the wire carries after the response header. The answer
/// sweep writes every residue straight into this buffer, so a response is
/// one allocation however many rows it has.
struct PirResponse {
  size_t value_size = 0;        ///< bytes per residue
  std::vector<uint8_t> values;  ///< rows() * value_size bytes

  /// \brief Number of residues; 0 when value_size is 0.
  size_t rows() const {
    return value_size == 0 ? 0 : values.size() / value_size;
  }

  /// \brief Residue `row` as an integer; `row` must be below rows().
  bignum::BigInt Value(size_t row) const;

  /// \brief Wire size in bytes of the residues (KeyLen bits per row).
  size_t WireBytes() const { return values.size(); }
};

/// \brief Client side: key state, query generation, response decoding.
class PirClient {
 public:
  /// \brief Generates a fresh n = p1*p2 of `key_bits` bits.
  static Result<PirClient> Create(size_t key_bits, Rng* rng);

  /// \brief Builds a query for column `target_col` of a `cols`-wide database.
  Result<PirQuery> BuildQuery(size_t target_col, size_t cols, Rng* rng) const;

  /// \brief Decodes the response into the target column's bits. Corruption
  ///        when a residue lies outside (0, n), or when the buffer is not a
  ///        whole number of `value_size`-byte residues.
  Result<std::vector<bool>> DecodeResponse(const PirResponse& response) const;

  size_t key_bytes() const { return (n_.BitLength() + 7) / 8; }
  const bignum::BigInt& n() const { return n_; }

  /// \brief True iff `v` is a quadratic residue mod n (uses the trapdoor).
  bool IsQuadraticResidue(const bignum::BigInt& v) const;

 private:
  PirClient() = default;

  bignum::BigInt p1_;
  bignum::BigInt p2_;
  bignum::BigInt n_;
  bignum::BigInt p1_half_;  // (p1-1)/2
  bignum::BigInt p2_half_;  // (p2-1)/2
  std::shared_ptr<bignum::MontgomeryContext> mont_p1_;
  std::shared_ptr<bignum::MontgomeryContext> mont_p2_;
};

/// \brief Operation counters for one Answer/AnswerBatch evaluation.
///
/// The accounting keeps the batch amortization claim truthful: work shared
/// across the queries of a sweep (row extraction) is counted once per sweep,
/// work owned by a query (its table build, its per-row MontMuls) is counted
/// per query. `mont_muls` for a single query equals exactly what `Answer`
/// reports through `ops_out`, so batch-vs-serial op comparisons are
/// apples-to-apples.
struct PirBatchStats {
  uint64_t queries = 0;       ///< queries answered
  uint64_t sweeps = 0;        ///< passes over the bit matrix (sub-batches)
  uint64_t budget_splits = 0; ///< extra sweeps forced by the table budget
  uint64_t rows_extracted = 0;   ///< rows pulled from the matrix, shared per sweep
  uint64_t mont_muls = 0;        ///< modular multiplications, summed over queries
  uint64_t table_build_muls = 0; ///< subset of mont_muls spent building tables
  uint64_t table_queries = 0;    ///< queries on the subset-product (table) path
  double cpu_ms = 0.0;           ///< thread-CPU ms summed across workers

  /// \brief Always 0. The SIMD lane engine this reported the occupancy of
  ///        was deleted because no measured workload filled its lanes; the
  ///        accessor stays so the benchmark's `pir.simd_fill` metric keeps
  ///        its name and reads 0 rather than disappearing.
  double simd_fill() const { return 0.0; }

  void Add(const PirBatchStats& other);
};

/// \brief Server side: evaluates queries against a PirDatabase.
///
/// Each row's gamma is an independent product, so Answer parallelizes across
/// rows when a thread pool is supplied: every worker owns a Montgomery
/// scratch, a row-word buffer and an accumulator, and the inner column loop
/// performs zero heap allocations per modular multiplication. Each finished
/// row is stored once, big-endian, into the response's flat buffer.
///
/// AnswerBatch answers Q queries in one matrix x matrix sweep: each row of
/// the bit matrix is extracted once and every query's per-column state
/// (subset-product tables or factor chain) is consulted against it, turning
/// Q passes over the database into one. Per query the factor multiset and
/// multiplication order are identical to Answer, so the responses are
/// bit-identical to Q serial Answer calls. Each member of a sweep folds the
/// row into its own accumulator on the scalar Montgomery kernel, under its
/// own modulus; only the row extraction is shared.
class PirServer {
 public:
  /// \brief Default batch-wide budget for the subset-product tables. A batch
  ///        holds at most this many table bytes live at once; wider batches
  ///        degrade to consecutive sub-batch sweeps, never to the naive path.
  static constexpr size_t kDefaultTableBudgetBytes = size_t{4} << 20;

  /// \brief `pool` may be null (serial) and must outlive the server.
  explicit PirServer(std::shared_ptr<const PirDatabase> database,
                     ThreadPool* pool = nullptr);

  /// \brief Computes gamma_i for every row (the whole-column answer).
  ///        `ops_out`, if non-null, receives the number of modular
  ///        multiplications actually performed by the row-product evaluation
  ///        (the subset-product tables need far fewer than the naive
  ///        rows*cols; conversions are not counted), and `cpu_ms_out`, if
  ///        non-null, the thread-CPU milliseconds consumed summed across all
  ///        participating workers.
  Result<PirResponse> Answer(const PirQuery& query,
                             uint64_t* ops_out = nullptr,
                             double* cpu_ms_out = nullptr) const;

  /// \brief Answers all `queries` with shared row extraction (see class
  ///        comment). All-or-nothing: the first invalid query fails the whole
  ///        call. Response i corresponds to queries[i]; counters are added
  ///        into `stats` when non-null.
  Result<std::vector<PirResponse>> AnswerBatch(
      std::span<const PirQuery> queries,
      PirBatchStats* stats = nullptr) const;

  /// \brief Pointer form for callers whose queries are not contiguous (the
  ///        retrieval layer batches decoded frames without copying them).
  Result<std::vector<PirResponse>> AnswerBatch(
      std::span<const PirQuery* const> queries,
      PirBatchStats* stats = nullptr) const;

  /// \brief Overrides the batch-wide table budget (tests and tuning).
  void set_table_budget_bytes(size_t bytes) { table_budget_bytes_ = bytes; }
  size_t table_budget_bytes() const { return table_budget_bytes_; }

 private:
  std::shared_ptr<const PirDatabase> database_;
  ThreadPool* pool_;  // not owned; null => serial
  size_t table_budget_bytes_ = kDefaultTableBudgetBytes;
};

}  // namespace embellish::crypto

#endif  // EMBELLISH_CRYPTO_PIR_H_
