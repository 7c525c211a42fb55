#include "crypto/pir.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "bignum/modmath.h"
#include "bignum/prime.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::crypto {

using bignum::BigInt;

PirDatabase::PirDatabase(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), bits_((rows * cols + 7) / 8, 0) {}

void PirDatabase::SetBit(size_t row, size_t col, bool value) {
  assert(row < rows_ && col < cols_);
  size_t idx = row * cols_ + col;
  if (value) {
    bits_[idx / 8] |= static_cast<uint8_t>(1u << (idx % 8));
  } else {
    bits_[idx / 8] &= static_cast<uint8_t>(~(1u << (idx % 8)));
  }
}

bool PirDatabase::GetBit(size_t row, size_t col) const {
  assert(row < rows_ && col < cols_);
  size_t idx = row * cols_ + col;
  return (bits_[idx / 8] >> (idx % 8)) & 1;
}

void PirDatabase::ExtractRow(size_t row, uint64_t* words) const {
  assert(row < rows_);
  const size_t bit_base = row * cols_;
  const size_t nwords = RowWords();
  for (size_t w = 0; w < nwords; ++w) {
    const size_t bitpos = bit_base + 64 * w;
    const size_t byte = bitpos >> 3;
    const unsigned shift = static_cast<unsigned>(bitpos & 7);
    // Assemble 64 bits from up to 9 consecutive packed bytes.
    uint64_t lo = 0;
    const size_t avail = bits_.size() - byte;
    const size_t take = std::min<size_t>(8, avail);
    for (size_t b = 0; b < take; ++b) {
      lo |= static_cast<uint64_t>(bits_[byte + b]) << (8 * b);
    }
    uint64_t v = lo >> shift;
    if (shift != 0 && avail > 8) {
      v |= static_cast<uint64_t>(bits_[byte + 8]) << (64 - shift);
    }
    const size_t remaining = cols_ - 64 * w;
    if (remaining < 64) v &= (uint64_t{1} << remaining) - 1;
    words[w] = v;
  }
}

void PirDatabase::SetColumnFromBytes(size_t col,
                                     const std::vector<uint8_t>& bytes) {
  assert(bytes.size() * 8 <= rows_ && "column data exceeds matrix height");
  for (size_t b = 0; b < bytes.size(); ++b) {
    for (int bit = 0; bit < 8; ++bit) {
      bool v = (bytes[b] >> (7 - bit)) & 1;
      SetBit(b * 8 + static_cast<size_t>(bit), col, v);
    }
  }
}

size_t PirQuery::WireBytes() const {
  size_t key_bytes = (n.BitLength() + 7) / 8;
  return (1 + q.size()) * key_bytes;
}

BigInt PirResponse::Value(size_t row) const {
  assert(row < rows());
  const uint8_t* bytes = values.data() + row * value_size;
  std::vector<uint64_t> limbs((value_size + 7) / 8, 0);
  for (size_t i = 0; i < value_size; ++i) {
    const size_t pos = value_size - 1 - i;  // significance of bytes[i]
    limbs[pos / 8] |= static_cast<uint64_t>(bytes[i]) << (8 * (pos % 8));
  }
  return BigInt::FromLimbs(std::move(limbs));
}

Result<PirClient> PirClient::Create(size_t key_bits, Rng* rng) {
  if (key_bits < 128 || key_bits > kMaxPirModulusBits) {
    return Status::InvalidArgument("key_bits out of supported range");
  }
  PirClient client;
  const size_t half = key_bits / 2;
  client.p1_ = bignum::RandomPrime(half, rng);
  do {
    client.p2_ = bignum::RandomPrime(key_bits - half, rng);
  } while (client.p2_ == client.p1_);
  client.n_ = client.p1_ * client.p2_;
  client.p1_half_ = (client.p1_ - BigInt(1)) >> 1;
  client.p2_half_ = (client.p2_ - BigInt(1)) >> 1;
  auto m1 = bignum::MontgomeryContext::Create(client.p1_);
  auto m2 = bignum::MontgomeryContext::Create(client.p2_);
  if (!m1.ok()) return m1.status();
  if (!m2.ok()) return m2.status();
  client.mont_p1_ =
      std::make_shared<bignum::MontgomeryContext>(std::move(m1).value());
  client.mont_p2_ =
      std::make_shared<bignum::MontgomeryContext>(std::move(m2).value());
  return client;
}

bool PirClient::IsQuadraticResidue(const BigInt& v) const {
  // Euler's criterion modulo each prime factor.
  BigInt e1 = mont_p1_->ModExp(v, p1_half_);
  if (!e1.IsOne()) return false;
  BigInt e2 = mont_p2_->ModExp(v, p2_half_);
  return e2.IsOne();
}

Result<PirQuery> PirClient::BuildQuery(size_t target_col, size_t cols,
                                       Rng* rng) const {
  if (cols == 0) {
    return Status::InvalidArgument("database must have at least one column");
  }
  if (target_col >= cols) {
    return Status::OutOfRange(
        StringPrintf("target column %zu out of range [0, %zu)", target_col,
                     cols));
  }
  PirQuery query;
  query.n = n_;
  query.q.reserve(cols);
  for (size_t j = 0; j < cols; ++j) {
    if (j == target_col) {
      // QNR with Jacobi symbol +1: non-residue modulo both prime factors,
      // so it is indistinguishable from a QR without the trapdoor.
      while (true) {
        BigInt z = bignum::RandomUnit(n_, rng);
        BigInt e1 = mont_p1_->ModExp(z, p1_half_);
        if (e1.IsOne()) continue;  // QR mod p1
        BigInt e2 = mont_p2_->ModExp(z, p2_half_);
        if (e2.IsOne()) continue;  // QR mod p2
        query.q.push_back(std::move(z));
        break;
      }
    } else {
      // Random QR: the square of a random unit (already reduced mod n).
      BigInt w = bignum::RandomUnit(n_, rng);
      query.q.push_back(bignum::ModMulReduced(w, w, n_));
    }
  }
  return query;
}

Result<std::vector<bool>> PirClient::DecodeResponse(
    const PirResponse& response) const {
  if (response.value_size == 0 ||
      response.values.size() % response.value_size != 0) {
    return Status::Corruption(
        "PIR response is not a whole number of residues");
  }
  const size_t rows = response.rows();
  std::vector<bool> bits;
  bits.reserve(rows);
  // BuildQuery makes the target residue a non-residue modulo both p1 and p2
  // and every other residue a square, so an honest gamma is a residue modulo
  // both primes (bit 0) or a non-residue modulo both (bit 1): Euler's
  // criterion modulo p1 alone decides the bit. It runs on the scratch tier
  // and compares against Montgomery one, skipping the conversion back.
  const bignum::MontgomeryContext& mont = *mont_p1_;
  const size_t k = mont.limb_count();
  bignum::MontgomeryContext::Scratch scratch(mont);
  std::vector<uint64_t> base(k);
  std::vector<uint64_t> euler(k);
  for (size_t i = 0; i < rows; ++i) {
    const BigInt g = response.Value(i);
    if (g.IsZero() || g >= n_) {
      return Status::Corruption("PIR response value outside Z*_n");
    }
    mont.ToMontgomeryInto(g, base.data(), &scratch);
    mont.ModExpInto(base.data(), p1_half_, euler.data(), &scratch);
    // Euler's criterion: g^((p1-1)/2) == 1 iff g is a QR mod p1.
    bits.push_back(!std::equal(euler.begin(), euler.end(),
                               mont.One().begin()));
  }
  return bits;
}

void PirBatchStats::Add(const PirBatchStats& other) {
  queries += other.queries;
  sweeps += other.sweeps;
  rows_extracted += other.rows_extracted;
  mont_muls += other.mont_muls;
  cpu_ms += other.cpu_ms;
}

PirServer::PirServer(std::shared_ptr<const PirDatabase> database,
                     ThreadPool* pool)
    : database_(std::move(database)), pool_(pool) {
  assert(database_ != nullptr);
}

namespace {

constexpr size_t kGroupBits = 8;
constexpr size_t kTableEntries = size_t{1} << kGroupBits;

// Cap on one query's subset-table bytes. The modulus is the client's, so
// without a cap a wide one would size the tables; past it the query takes
// the naive chain.
constexpr size_t kMaxTableBytes = size_t{4} << 20;

// One query's evaluation state: the Montgomery context, the interleaved
// column factors, the table-path decision from the amortization cost model,
// and the subset tables when that path is taken.
struct QueryPlan {
  explicit QueryPlan(bignum::MontgomeryContext m) : mont(std::move(m)) {}

  bignum::MontgomeryContext mont;
  size_t k = 0;  // limb width of the modulus
  // Montgomery forms of q_j and q_j^2, interleaved per column — slot
  // (2j + bit) holds the factor for b_ij == bit — so the inner loop indexes
  // adjacent cache lines whichever way the bit falls (Section 5.2: the row
  // loop is then pure MontMul, which dominates server CPU).
  std::vector<uint64_t> factors;
  size_t ngroups = 0;
  bool use_tables = false;
  uint64_t muls = 0;  // MontMuls the answer performs, table build included
  // Subset-product tables, layout [group][s1/s2][pattern][limb]; empty on
  // the naive path.
  std::vector<uint64_t> tables;
};

Result<QueryPlan> PlanQuery(const PirQuery& query, size_t rows, size_t cols) {
  if (query.q.size() != cols) {
    return Status::InvalidArgument(
        StringPrintf("query width %zu != database width %zu", query.q.size(),
                     cols));
  }
  if (query.n.IsZero() || !query.n.IsOdd()) {
    return Status::InvalidArgument("query modulus must be odd and nonzero");
  }
  auto mont_res = bignum::MontgomeryContext::Create(query.n);
  if (!mont_res.ok()) return mont_res.status();
  QueryPlan plan(std::move(mont_res).value());
  plan.k = plan.mont.limb_count();

  plan.factors.resize(2 * cols * plan.k);
  {
    bignum::MontgomeryContext::Scratch scratch(plan.mont);
    for (size_t j = 0; j < cols; ++j) {
      uint64_t* q_slot = plan.factors.data() + (2 * j + 1) * plan.k;
      uint64_t* q2_slot = plan.factors.data() + (2 * j) * plan.k;
      plan.mont.ToMontgomeryInto(query.q[j], q_slot, &scratch);
      plan.mont.MontMulInto(q_slot, q_slot, q2_slot, &scratch);
    }
  }

  plan.ngroups = (cols + kGroupBits - 1) / kGroupBits;
  const size_t table_bytes =
      plan.ngroups * 2 * kTableEntries * plan.k * sizeof(uint64_t);
  uint64_t build_muls = 0;
  for (size_t group = 0; group < plan.ngroups; ++group) {
    const size_t width = std::min(kGroupBits, cols - group * kGroupBits);
    build_muls += 2 * ((uint64_t{1} << width) - width - 1);
  }

  // Amortization-aware gate (replaces the old `rows >= 128` cliff, which
  // silently dropped small post-reshard slices onto the naive path): take
  // the subset-product tables exactly when they strictly reduce the MontMul
  // count — build cost plus (2g - 1) muls per row versus the naive cols muls
  // per row — and they fit the cap.
  const uint64_t row_muls_tables =
      static_cast<uint64_t>(rows) * (2 * plan.ngroups - 1);
  const uint64_t row_muls_naive = static_cast<uint64_t>(rows) * cols;
  plan.use_tables = cols >= 4 &&
                    build_muls + row_muls_tables < row_muls_naive &&
                    table_bytes <= kMaxTableBytes;
  plan.muls =
      plan.use_tables ? build_muls + row_muls_tables : row_muls_naive;
  return plan;
}

// Subset-product tables ("four Russians" over the bit matrix): split the
// columns into groups of up to 8. For a group of width w, a row's partial
// product  prod_i (bit_i ? q_i : q_i^2)  takes one of 2^w values, and the
// 2^w subset products of {q_i} (table S1) and {q_i^2} (table S2) can each
// be built with one MontMul per entry. A row then costs
//   MontMul(S1[v], S2[~v])            per group (v = the row's w bits)
// plus one combining MontMul per extra group — ~2 multiplications per 8
// columns instead of 8. The multiset of factors is unchanged, so the gamma
// values are bit-identical to the naive chain. Tables are built once per
// query (serial setup) and shared read-only across workers.
void BuildTables(QueryPlan* plan, size_t cols) {
  const bignum::MontgomeryContext& mont = plan->mont;
  const size_t k = plan->k;
  bignum::MontgomeryContext::Scratch scratch(mont);
  plan->tables.resize(plan->ngroups * 2 * kTableEntries * k);
  for (size_t group = 0; group < plan->ngroups; ++group) {
    const size_t col0 = group * kGroupBits;
    const size_t width = std::min(kGroupBits, cols - col0);
    for (size_t half = 0; half < 2; ++half) {
      // half 0: S1 over q_j (selector bit 1); half 1: S2 over q_j^2.
      uint64_t* table =
          plan->tables.data() + (group * 2 + half) * kTableEntries * k;
      std::memcpy(table, mont.One().data(), k * sizeof(uint64_t));
      for (size_t v = 1; v < (size_t{1} << width); ++v) {
        const size_t low = v & (0 - v);
        const size_t col = col0 + std::countr_zero(low);
        const uint64_t* base =
            plan->factors.data() + (2 * col + (half == 0 ? 1 : 0)) * k;
        uint64_t* dst = table + v * k;
        if (v == low) {
          std::memcpy(dst, base, k * sizeof(uint64_t));
        } else {
          mont.MontMulInto(table + (v ^ low) * k, base, dst, &scratch);
        }
      }
    }
  }
}

// Stores row `row`'s residue, `plain` as little-endian limbs, into the
// response's flat buffer as value_size big-endian bytes. The residue is below
// the modulus, so value_size = ceil(bits(n) / 8) bytes hold it exactly: the
// bytes BigInt::ToBigEndianBytesPadded(value_size) would produce.
void StoreRow(const uint64_t* plain, size_t row, PirResponse* response) {
  const size_t width = response->value_size;
  const size_t whole = width / 8;  // limbs stored in full
  uint8_t* out = response->values.data() + row * width;
  // The bytes of a partial top limb first, then whole limbs, most
  // significant first (the byte loop compiles to a swap and one store).
  for (size_t pos = width; pos > 8 * whole;) {
    --pos;
    *out++ = static_cast<uint8_t>(plain[pos / 8] >> (8 * (pos % 8)));
  }
  for (size_t l = whole; l-- > 0; out += 8) {
    for (int b = 0; b < 8; ++b) {
      out[b] = static_cast<uint8_t>(plain[l] >> (56 - 8 * b));
    }
  }
}

// One pass over the bit matrix for one query: each row is extracted and
// folded under the query's subset tables or factor chain. Rows are the
// parallel axis; all per-multiplication state lives in worker-owned scratch
// and buffers, and the column loops perform zero heap allocations. Returns
// worker CPU ms.
double SweepRows(const PirDatabase& db, ThreadPool* pool,
                 const QueryPlan& plan, PirResponse* response) {
  const size_t cols = db.cols();
  const bignum::MontgomeryContext& mont = plan.mont;
  const size_t k = plan.k;
  auto answer_rows = [&](size_t row_begin, size_t row_end) {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::vector<uint64_t> row_words(db.RowWords());
    std::vector<uint64_t> acc(k);
    std::vector<uint64_t> part(k);
    std::vector<uint64_t> plain(k);
    for (size_t i = row_begin; i < row_end; ++i) {
      db.ExtractRow(i, row_words.data());
      if (plan.use_tables) {
        for (size_t group = 0; group < plan.ngroups; ++group) {
          const size_t col0 = group * kGroupBits;
          const size_t width = std::min(kGroupBits, cols - col0);
          const uint64_t mask = (uint64_t{1} << width) - 1;
          // Groups are byte-aligned, so a group never straddles a word.
          const uint64_t v = (row_words[col0 / 64] >> (col0 % 64)) & mask;
          const uint64_t* s1 =
              plan.tables.data() + (group * 2 + 0) * kTableEntries * k + v * k;
          const uint64_t* s2 = plan.tables.data() +
                               (group * 2 + 1) * kTableEntries * k +
                               ((~v) & mask) * k;
          if (group == 0) {
            mont.MontMulInto(s1, s2, acc.data(), &scratch);
          } else {
            mont.MontMulInto(s1, s2, part.data(), &scratch);
            mont.MontMulInto(acc.data(), part.data(), acc.data(), &scratch);
          }
        }
      } else {
        std::memcpy(acc.data(), mont.One().data(), k * sizeof(uint64_t));
        mont.MontMulSelectInto(plan.factors.data(), row_words.data(), cols,
                               acc.data(), &scratch);
      }
      mont.FromMontgomeryInto(acc.data(), plain.data(), &scratch);
      StoreRow(plain.data(), i, response);
    }
  };

  if (pool != nullptr) {
    return pool->ParallelFor(0, db.rows(), /*min_grain=*/4, answer_rows);
  }
  CpuStopwatch cpu;
  answer_rows(0, db.rows());
  return cpu.ElapsedMillis();
}

}  // namespace

Result<PirResponse> PirServer::Answer(const PirQuery& query,
                                      uint64_t* ops_out,
                                      double* cpu_ms_out) const {
  const size_t rows = database_->rows();
  const size_t cols = database_->cols();
  CpuStopwatch setup_cpu;  // caller-thread CPU: context, factors, tables
  EMB_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(query, rows, cols));
  if (plan.use_tables) BuildTables(&plan, cols);
  double cpu_ms = setup_cpu.ElapsedMillis();

  PirResponse response;
  response.value_size = (query.n.BitLength() + 7) / 8;
  response.values.resize(rows * response.value_size);
  cpu_ms += SweepRows(*database_, pool_, plan, &response);

  if (ops_out != nullptr) *ops_out = plan.muls;
  if (cpu_ms_out != nullptr) *cpu_ms_out = cpu_ms;
  return response;
}

}  // namespace embellish::crypto
