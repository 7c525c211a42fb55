#include "crypto/pir.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <optional>

#include "bignum/modmath.h"
#include "bignum/montgomery_lanes.h"
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
  if (key_bits < 128 || key_bits > 4096) {
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
  budget_splits += other.budget_splits;
  rows_extracted += other.rows_extracted;
  mont_muls += other.mont_muls;
  table_build_muls += other.table_build_muls;
  table_queries += other.table_queries;
  simd_lane_muls += other.simd_lane_muls;
  simd_active_lanes += other.simd_active_lanes;
  cpu_ms += other.cpu_ms;
}

double PirBatchStats::simd_fill() const {
  if (simd_lane_muls == 0) return 0.0;
  return static_cast<double>(simd_active_lanes) /
         (static_cast<double>(bignum::MontgomeryLaneContext::kMaxLanes) *
          static_cast<double>(simd_lane_muls));
}

PirServer::PirServer(std::shared_ptr<const PirDatabase> database,
                     ThreadPool* pool)
    : database_(std::move(database)), pool_(pool) {
  assert(database_ != nullptr);
}

namespace {

constexpr size_t kGroupBits = 8;
constexpr size_t kTableEntries = size_t{1} << kGroupBits;

// Per-query evaluation state shared by Answer and AnswerBatch: the Montgomery
// context, the interleaved column factors, and the table-path decision from
// the amortization cost model. The subset tables themselves are built per
// sweep (BuildTables) and released afterwards, so a batch never holds more
// than one sub-batch's tables live.
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
  size_t table_bytes = 0;         // footprint of the subset tables if built
  uint64_t table_build_muls = 0;  // MontMuls to build them
  // Subset-product tables, layout [group][s1/s2][pattern][limb]; empty until
  // BuildTables and after ReleaseTables.
  std::vector<uint64_t> tables;
};

Result<QueryPlan> PlanQuery(const PirQuery& query, size_t rows, size_t cols,
                            size_t table_budget_bytes) {
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
  plan.table_bytes =
      plan.ngroups * 2 * kTableEntries * plan.k * sizeof(uint64_t);
  for (size_t group = 0; group < plan.ngroups; ++group) {
    const size_t width = std::min(kGroupBits, cols - group * kGroupBits);
    plan.table_build_muls += 2 * ((uint64_t{1} << width) - width - 1);
  }

  // Amortization-aware gate (replaces the old `rows >= 128` cliff, which
  // silently dropped small post-reshard slices onto the naive path): take
  // the subset-product tables exactly when they strictly reduce the MontMul
  // count — build cost plus (2g - 1) muls per row versus the naive cols muls
  // per row — and this query's tables alone fit the budget. Batch width
  // never flips this decision; budget pressure across a batch splits the
  // sweep instead (see AnswerBatch).
  const uint64_t row_muls_tables =
      static_cast<uint64_t>(rows) * (2 * plan.ngroups - 1);
  const uint64_t row_muls_naive = static_cast<uint64_t>(rows) * cols;
  plan.use_tables = cols >= 4 &&
                    plan.table_build_muls + row_muls_tables < row_muls_naive &&
                    plan.table_bytes <= table_budget_bytes;
  return plan;
}

// MontMuls charged to one query's row sweep (excludes the table build).
uint64_t RowMuls(const QueryPlan& plan, size_t rows, size_t cols) {
  return plan.use_tables
             ? static_cast<uint64_t>(rows) * (2 * plan.ngroups - 1)
             : static_cast<uint64_t>(rows) * cols;
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
// query per sweep (serial setup) and shared read-only across workers.
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

void ReleaseTables(QueryPlan* plan) {
  std::vector<uint64_t>().swap(plan->tables);
}

using LaneCtx = bignum::MontgomeryLaneContext;

// Up to kMaxLanes same-width members of one sweep advancing through the
// vector Montgomery engine together. Each lane carries its own modulus; the
// row bits (and hence every table index v) are shared by construction, so a
// single kernel call folds the row into every member's accumulator. Members
// in a lane group do not build scalar tables — their subset products live in
// lane form here. Lane-form entries occupy the internal radix (<= 2x the
// scalar bytes on avx2, ~1.23x on ifma), a bounded constant over the scalar
// tables they replace; the sweep budget keeps using the scalar accounting.
struct LaneGroup {
  std::vector<size_t> members;  // plan indices, 2..kMaxLanes of equal k
  std::optional<LaneCtx> lane;
  // Naive path: slot (2j + bit) mirrors QueryPlan::factors, lane-packed.
  // Table path: consumed by BuildLaneTables, then released.
  std::vector<LaneCtx::Block> factor_blocks;
  // Table path: layout [group][s1/s2][pattern], one Block per entry.
  std::vector<LaneCtx::Block> table_blocks;
  bool use_tables = false;
  size_t ngroups = 0;
};

// Splits a sub-batch into lane groups of 2..kMaxLanes members sharing a limb
// width (the table-path decision is width-determined, so equal k implies an
// identical path) and appends everyone else — singletons, or every member
// when the CPU lacks a vector tier — to `scalar_members`. Scalar-tier builds
// take the untouched per-member path, so disabling the engine costs nothing.
void FormLaneGroups(const std::vector<QueryPlan>& plans,
                    const std::vector<size_t>& members,
                    std::vector<LaneGroup>* groups,
                    std::vector<size_t>* scalar_members) {
  std::vector<std::pair<size_t, std::vector<size_t>>> buckets;
  for (size_t m : members) {
    auto it = std::find_if(buckets.begin(), buckets.end(),
                           [&](const auto& b) { return b.first == plans[m].k; });
    if (it == buckets.end()) {
      buckets.emplace_back(plans[m].k, std::vector<size_t>{});
      it = buckets.end() - 1;
    }
    it->second.push_back(m);
  }
  for (auto& [k, bucket] : buckets) {
    size_t i = 0;
    while (bucket.size() - i >= 2) {
      const size_t take = std::min(LaneCtx::kMaxLanes, bucket.size() - i);
      std::vector<const bignum::MontgomeryContext*> ptrs;
      ptrs.reserve(take);
      for (size_t j = i; j < i + take; ++j) {
        ptrs.push_back(&plans[bucket[j]].mont);
      }
      auto lane = LaneCtx::Create(ptrs);
      if (!lane.ok() || !lane->vectorized()) break;  // whole bucket scalar
      LaneGroup group;
      group.members.assign(bucket.begin() + static_cast<ptrdiff_t>(i),
                           bucket.begin() + static_cast<ptrdiff_t>(i + take));
      group.lane.emplace(std::move(*lane));
      group.use_tables = plans[bucket[i]].use_tables;
      group.ngroups = plans[bucket[i]].ngroups;
      groups->push_back(std::move(group));
      i += take;
    }
    for (; i < bucket.size(); ++i) scalar_members->push_back(bucket[i]);
  }
}

// Lane-packs every member's column factors (slot layout unchanged). Pack is a
// domain conversion, not a logical multiplication, so it is not charged to
// mont_muls — same rule as the scalar ToMontgomery conversions in PlanQuery.
void PackLaneFactors(const std::vector<QueryPlan>& plans, size_t cols,
                     LaneGroup* group) {
  const LaneCtx& lane = *group->lane;
  LaneCtx::Scratch scratch(lane);
  const size_t k = plans[group->members[0]].k;
  group->factor_blocks.resize(2 * cols);
  const uint64_t* ptrs[LaneCtx::kMaxLanes];
  for (size_t slot = 0; slot < 2 * cols; ++slot) {
    for (size_t l = 0; l < group->members.size(); ++l) {
      ptrs[l] = plans[group->members[l]].factors.data() + slot * k;
    }
    group->factor_blocks[slot] = lane.MakeBlock();
    lane.Pack(ptrs, &group->factor_blocks[slot], &scratch);
  }
}

// The four-Russians build in lane form: identical v-chain to the scalar
// BuildTables — table[v] = table[v ^ lowbit] * factor[lowest set column] —
// executed once for the whole group instead of once per member, every lane
// building its own modulus's subset products. Per member the chain performs
// exactly QueryPlan::table_build_muls logical multiplications, which is what
// keeps the pinned mont_muls formula untouched.
void BuildLaneTables(size_t cols, LaneGroup* group) {
  const LaneCtx& lane = *group->lane;
  LaneCtx::Scratch scratch(lane);
  group->table_blocks.resize(group->ngroups * 2 * kTableEntries);
  for (size_t g = 0; g < group->ngroups; ++g) {
    const size_t col0 = g * kGroupBits;
    const size_t width = std::min(kGroupBits, cols - col0);
    for (size_t half = 0; half < 2; ++half) {
      LaneCtx::Block* table =
          group->table_blocks.data() + (g * 2 + half) * kTableEntries;
      table[0] = lane.One();
      for (size_t v = 1; v < (size_t{1} << width); ++v) {
        const size_t low = v & (0 - v);
        const size_t col = col0 + static_cast<size_t>(std::countr_zero(low));
        const LaneCtx::Block& base =
            group->factor_blocks[2 * col + (half == 0 ? 1 : 0)];
        if (v == low) {
          table[v] = base;
        } else {
          table[v] = lane.MakeBlock();
          lane.Mul(table[v ^ low], base, &table[v], &scratch);
        }
      }
    }
  }
  // The packed factors only feed the build; the sweep reads the tables.
  std::vector<LaneCtx::Block>().swap(group->factor_blocks);
}

// Worker-owned lane-path state: one Scratch and accumulator pair per lane
// group (blocks are group-width-bound), plus a flat per-lane plain-limb
// staging buffer for FromMontgomery.
struct LaneSweepState {
  LaneSweepState(const LaneGroup& group, size_t k)
      : scratch(*group.lane),
        acc(group.lane->MakeBlock()),
        part(group.lane->MakeBlock()),
        plain(LaneCtx::kMaxLanes * k) {}

  LaneCtx::Scratch scratch;
  LaneCtx::Block acc;
  LaneCtx::Block part;
  std::vector<uint64_t> plain;
};

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

// One pass over the bit matrix answering every member query: each row is
// extracted exactly once and each member's per-query state (subset tables or
// factor chain) is consulted against it. Rows are the parallel axis; all
// per-multiplication state lives in worker-owned scratch/buffers and the
// column loops perform zero heap allocations. Per query, the factor multiset
// and multiplication order match the single-query kernel exactly, so the
// gammas are bit-identical to serial Answer calls.
//
// Members arrive in two populations: `groups` (lane groups — one vector
// kernel call advances every member of a group at once, indices shared
// because the row bits are) and `members` (per-query scalar path). The lane
// path issues the same logical multiplications in the same order as the
// scalar path — acc = S1[v] * S2[~v], then one combine per extra group, or
// the One-seeded naive chain — and the lane engine reduces fully, so lane
// gammas are bit-identical too. Returns worker CPU ms.
double SweepRows(const PirDatabase& db, ThreadPool* pool, size_t cols,
                 std::vector<QueryPlan>& plans,
                 const std::vector<size_t>& members,
                 const std::vector<LaneGroup>& groups,
                 std::vector<PirResponse>& responses) {
  const size_t rows = db.rows();
  auto answer_rows = [&](size_t row_begin, size_t row_end) {
    // Worker-owned state: one Scratch per distinct limb width (a Scratch is
    // width-bound and reusable across contexts of the same width), one
    // row-word buffer shared by all members, max-width accumulators.
    std::vector<size_t> widths;
    std::vector<bignum::MontgomeryContext::Scratch> scratches;
    std::vector<size_t> scratch_of(members.size());
    size_t max_k = 1;
    for (size_t mi = 0; mi < members.size(); ++mi) {
      const QueryPlan& plan = plans[members[mi]];
      max_k = std::max(max_k, plan.k);
      auto it = std::find(widths.begin(), widths.end(), plan.k);
      if (it == widths.end()) {
        widths.push_back(plan.k);
        scratches.emplace_back(plan.mont);
        it = widths.end() - 1;
      }
      scratch_of[mi] = static_cast<size_t>(it - widths.begin());
    }
    std::vector<LaneSweepState> lane_state;
    lane_state.reserve(groups.size());
    for (const LaneGroup& group : groups) {
      lane_state.emplace_back(group, plans[group.members[0]].k);
    }
    std::vector<uint64_t> row_words(db.RowWords());
    std::vector<uint64_t> acc(max_k);
    std::vector<uint64_t> part(max_k);
    std::vector<uint64_t> plain(max_k);
    for (size_t i = row_begin; i < row_end; ++i) {
      db.ExtractRow(i, row_words.data());
      for (size_t gi = 0; gi < groups.size(); ++gi) {
        const LaneGroup& group = groups[gi];
        LaneSweepState& st = lane_state[gi];
        const LaneCtx& lane = *group.lane;
        const size_t k = plans[group.members[0]].k;
        if (group.use_tables) {
          for (size_t g = 0; g < group.ngroups; ++g) {
            const size_t col0 = g * kGroupBits;
            const size_t width = std::min(kGroupBits, cols - col0);
            const uint64_t mask = (uint64_t{1} << width) - 1;
            const uint64_t v = (row_words[col0 / 64] >> (col0 % 64)) & mask;
            const LaneCtx::Block& s1 =
                group.table_blocks[(g * 2 + 0) * kTableEntries + v];
            const LaneCtx::Block& s2 =
                group.table_blocks[(g * 2 + 1) * kTableEntries +
                                   ((~v) & mask)];
            if (g == 0) {
              lane.Mul(s1, s2, &st.acc, &st.scratch);
            } else {
              lane.Mul(s1, s2, &st.part, &st.scratch);
              lane.Mul(st.acc, st.part, &st.acc, &st.scratch);
            }
          }
        } else {
          st.acc = lane.One();
          for (size_t j = 0; j < cols; ++j) {
            const uint64_t bit = (row_words[j / 64] >> (j % 64)) & 1;
            lane.Mul(st.acc, group.factor_blocks[2 * j + bit], &st.acc,
                     &st.scratch);
          }
        }
        uint64_t* outp[LaneCtx::kMaxLanes];
        for (size_t l = 0; l < group.members.size(); ++l) {
          outp[l] = st.plain.data() + l * k;
        }
        lane.FromMontgomery(st.acc, outp, &st.scratch);
        for (size_t l = 0; l < group.members.size(); ++l) {
          StoreRow(outp[l], i, &responses[group.members[l]]);
        }
      }
      for (size_t mi = 0; mi < members.size(); ++mi) {
        QueryPlan& plan = plans[members[mi]];
        const bignum::MontgomeryContext& mont = plan.mont;
        const size_t k = plan.k;
        bignum::MontgomeryContext::Scratch* scratch = &scratches[scratch_of[mi]];
        if (plan.use_tables) {
          for (size_t group = 0; group < plan.ngroups; ++group) {
            const size_t col0 = group * kGroupBits;
            const size_t width = std::min(kGroupBits, cols - col0);
            const uint64_t mask = (uint64_t{1} << width) - 1;
            // Groups are byte-aligned, so a group never straddles a word.
            const uint64_t v = (row_words[col0 / 64] >> (col0 % 64)) & mask;
            const uint64_t* s1 =
                plan.tables.data() + (group * 2 + 0) * kTableEntries * k +
                v * k;
            const uint64_t* s2 =
                plan.tables.data() + (group * 2 + 1) * kTableEntries * k +
                ((~v) & mask) * k;
            if (group == 0) {
              mont.MontMulInto(s1, s2, acc.data(), scratch);
            } else {
              mont.MontMulInto(s1, s2, part.data(), scratch);
              mont.MontMulInto(acc.data(), part.data(), acc.data(), scratch);
            }
          }
        } else {
          std::memcpy(acc.data(), mont.One().data(), k * sizeof(uint64_t));
          mont.MontMulSelectInto(plan.factors.data(), row_words.data(), cols,
                                 acc.data(), scratch);
        }
        mont.FromMontgomeryInto(acc.data(), plain.data(), scratch);
        StoreRow(plain.data(), i, &responses[members[mi]]);
      }
    }
  };

  if (pool != nullptr) {
    return pool->ParallelFor(0, rows, /*min_grain=*/4, answer_rows);
  }
  CpuStopwatch cpu;
  answer_rows(0, rows);
  return cpu.ElapsedMillis();
}

}  // namespace

Result<PirResponse> PirServer::Answer(const PirQuery& query,
                                      uint64_t* ops_out,
                                      double* cpu_ms_out) const {
  // The single-query answer is exactly the Q=1 batch: one shared code path
  // is what makes the batch-vs-serial bit-identity claim structural.
  PirBatchStats stats;
  const PirQuery* ptr = &query;
  auto batch = AnswerBatch(std::span<const PirQuery* const>(&ptr, 1), &stats);
  if (!batch.ok()) return batch.status();
  if (ops_out != nullptr) *ops_out = stats.mont_muls;
  if (cpu_ms_out != nullptr) *cpu_ms_out = stats.cpu_ms;
  std::vector<PirResponse> responses = std::move(batch).value();
  return std::move(responses[0]);
}

Result<std::vector<PirResponse>> PirServer::AnswerBatch(
    std::span<const PirQuery> queries, PirBatchStats* stats) const {
  std::vector<const PirQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const PirQuery& query : queries) ptrs.push_back(&query);
  return AnswerBatch(std::span<const PirQuery* const>(ptrs), stats);
}

Result<std::vector<PirResponse>> PirServer::AnswerBatch(
    std::span<const PirQuery* const> queries, PirBatchStats* stats) const {
  const size_t rows = database_->rows();
  const size_t cols = database_->cols();
  std::vector<PirResponse> responses(queries.size());
  if (queries.empty()) return responses;

  CpuStopwatch setup_cpu;  // caller-thread CPU: contexts + factor setup
  std::vector<QueryPlan> plans;
  plans.reserve(queries.size());
  for (const PirQuery* query : queries) {
    if (query == nullptr) {
      return Status::InvalidArgument("null PIR query in batch");
    }
    auto plan = PlanQuery(*query, rows, cols, table_budget_bytes_);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(plan).value());
  }

  PirBatchStats local;
  local.queries = queries.size();
  local.cpu_ms = setup_cpu.ElapsedMillis();

  // Partition the batch into consecutive sub-batches whose combined table
  // footprint fits the batch-wide budget. The gate already degraded any
  // query whose tables alone exceed the budget to the naive path, so every
  // table query fits in some sub-batch: budget pressure splits the sweep, it
  // never silently inflates a query onto the naive path.
  size_t begin = 0;
  while (begin < plans.size()) {
    size_t end = begin;
    size_t live_bytes = 0;
    while (end < plans.size()) {
      const size_t bytes = plans[end].use_tables ? plans[end].table_bytes : 0;
      if (end > begin && live_bytes + bytes > table_budget_bytes_) break;
      live_bytes += bytes;
      ++end;
    }
    std::vector<size_t> members;
    members.reserve(end - begin);
    for (size_t m = begin; m < end; ++m) {
      members.push_back(m);
      responses[m].value_size = (queries[m]->n.BitLength() + 7) / 8;
      responses[m].values.resize(rows * responses[m].value_size);
    }

    // Same-width members pair up into SIMD lane groups; leftovers (and every
    // member on a scalar-tier build) stay on the per-query scalar path.
    std::vector<LaneGroup> groups;
    std::vector<size_t> scalar_members;
    FormLaneGroups(plans, members, &groups, &scalar_members);

    CpuStopwatch build_cpu;
    for (LaneGroup& group : groups) {
      PackLaneFactors(plans, cols, &group);
      if (group.use_tables) BuildLaneTables(cols, &group);
    }
    for (size_t m : scalar_members) {
      if (plans[m].use_tables) BuildTables(&plans[m], cols);
    }
    local.cpu_ms += build_cpu.ElapsedMillis();
    local.cpu_ms += SweepRows(*database_, pool_, cols, plans, scalar_members,
                              groups, responses);
    for (size_t m : scalar_members) ReleaseTables(&plans[m]);

    // Lane occupancy, counted arithmetically (the sweep is deterministic):
    // per row a table group issues 2g - 1 vector muls and a naive group
    // issues cols; the lane table build issues one member's worth of chain
    // muls for the whole group. Conversions are excluded, as in mont_muls.
    for (const LaneGroup& group : groups) {
      const QueryPlan& p0 = plans[group.members[0]];
      const uint64_t invocations =
          group.use_tables
              ? static_cast<uint64_t>(rows) * (2 * group.ngroups - 1) +
                    p0.table_build_muls
              : static_cast<uint64_t>(rows) * cols;
      local.simd_lane_muls += invocations;
      local.simd_active_lanes += invocations * group.members.size();
    }
    ++local.sweeps;
    local.rows_extracted += rows;  // shared: each row read once per sweep
    begin = end;
  }
  local.budget_splits = local.sweeps - 1;

  for (const QueryPlan& plan : plans) {
    // Per-query MontMuls are charged per query — nothing about the modular
    // arithmetic is shared across moduli — matching Answer's ops_out exactly.
    local.mont_muls += RowMuls(plan, rows, cols);
    if (plan.use_tables) {
      local.mont_muls += plan.table_build_muls;
      local.table_build_muls += plan.table_build_muls;
      ++local.table_queries;
    }
  }

  if (stats != nullptr) stats->Add(local);
  return responses;
}

}  // namespace embellish::crypto
