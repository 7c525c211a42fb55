// PIR answer-engine scaling: seed-style serial evaluation (per-bit GetBit,
// allocating MontMul per multiplication — the code path this repo shipped
// with) versus the zero-allocation kernel at 1..N threads.
//
// This bench starts the repo's perf trajectory: it emits a machine-readable
// BENCH_pir.json next to the human-readable table so successive PRs can be
// compared. Throughput is wall-clock modular multiplications per second for
// one whole PirServer::Answer call (including per-query setup).
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_KEYLEN   modulus bits                (default 256)
//   EMBELLISH_BENCH_ROWS     database rows               (default 4096)
//   EMBELLISH_BENCH_COLS     database columns            (default 16)
//   EMBELLISH_BENCH_TRIALS   timed repetitions per point (default 3)
//   EMBELLISH_BENCH_THREADS  max pool width, powers of 2 (default 8)
//   EMBELLISH_BENCH_JSON     output path                 (default BENCH_pir.json)

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cpuinfo.h"
#include "crypto/benaloh.h"

namespace {

using namespace embellish;
using bignum::BigInt;

// The Montgomery context exactly as the seed shipped it (commit aac5e1c):
// a generic limb loop with a freshly allocated accumulator and output vector
// per multiplication. Embedded here verbatim so the baseline stays pinned to
// the seed's behaviour no matter how the library kernel evolves.
class SeedMontgomery {
 public:
  explicit SeedMontgomery(const BigInt& modulus) : modulus_(modulus) {
    n_limbs_ = modulus.limbs();
    k_ = n_limbs_.size();
    uint64_t inv = n_limbs_[0];  // Newton iteration, correct mod 2^3
    for (int i = 0; i < 5; ++i) inv *= 2 - n_limbs_[0] * inv;
    n_prime_ = ~inv + 1;
    BigInt r = BigInt::PowerOfTwo(64 * k_);
    BigInt r_mod = r % modulus;
    r_mod_n_ = r_mod.limbs();
    r_mod_n_.resize(k_, 0);
    r2_mod_n_ = r_mod * r_mod % modulus;
  }

  const std::vector<uint64_t>& One() const { return r_mod_n_; }

  std::vector<uint64_t> MontMul(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) const {
    using u128 = unsigned __int128;
    const size_t k = k_;
    std::vector<uint64_t> t(k + 2, 0);
    for (size_t i = 0; i < k; ++i) {
      uint64_t ai = a[i];
      u128 carry = 0;
      for (size_t j = 0; j < k; ++j) {
        u128 cur =
            static_cast<u128>(ai) * b[j] + t[j] + static_cast<uint64_t>(carry);
        t[j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      u128 cur = static_cast<u128>(t[k]) + static_cast<uint64_t>(carry);
      t[k] = static_cast<uint64_t>(cur);
      t[k + 1] = static_cast<uint64_t>(cur >> 64);

      uint64_t m_val = t[0] * n_prime_;
      u128 acc = static_cast<u128>(m_val) * n_limbs_[0] + t[0];
      carry = acc >> 64;
      for (size_t j = 1; j < k; ++j) {
        acc = static_cast<u128>(m_val) * n_limbs_[j] + t[j] +
              static_cast<uint64_t>(carry);
        t[j - 1] = static_cast<uint64_t>(acc);
        carry = acc >> 64;
      }
      acc = static_cast<u128>(t[k]) + static_cast<uint64_t>(carry);
      t[k - 1] = static_cast<uint64_t>(acc);
      t[k] = t[k + 1] + static_cast<uint64_t>(acc >> 64);
      t[k + 1] = 0;
    }
    bool geq = t[k] != 0;
    if (!geq) {
      geq = true;
      for (size_t i = k; i-- > 0;) {
        if (t[i] != n_limbs_[i]) {
          geq = t[i] > n_limbs_[i];
          break;
        }
      }
    }
    std::vector<uint64_t> out(t.begin(), t.begin() + k);
    if (geq) {
      u128 borrow = 0;
      for (size_t i = 0; i < k; ++i) {
        u128 diff = static_cast<u128>(out[i]) - n_limbs_[i] -
                    static_cast<uint64_t>(borrow);
        out[i] = static_cast<uint64_t>(diff);
        borrow = (diff >> 64) != 0 ? 1 : 0;
      }
    }
    return out;
  }

  std::vector<uint64_t> ToMontgomery(const BigInt& a) const {
    BigInt reduced = a % modulus_;
    std::vector<uint64_t> limbs = reduced.limbs();
    limbs.resize(k_, 0);
    std::vector<uint64_t> r2 = r2_mod_n_.limbs();
    r2.resize(k_, 0);
    return MontMul(limbs, r2);
  }

  BigInt FromMontgomery(const std::vector<uint64_t>& a) const {
    std::vector<uint64_t> one(k_, 0);
    one[0] = 1;
    return BigInt::FromLimbs(MontMul(a, one));
  }

 private:
  BigInt modulus_;
  std::vector<uint64_t> n_limbs_;
  std::vector<uint64_t> r_mod_n_;
  BigInt r2_mod_n_;
  uint64_t n_prime_ = 0;
  size_t k_ = 0;
};

// The seed implementation of PirServer::Answer: one GetBit and one fully
// allocating MontMul per (row, column) pair, one BigInt per row. It is also
// the reference every engine answer is checked against, row by row.
std::vector<BigInt> SeedStyleAnswer(const crypto::PirDatabase& db,
                                    const crypto::PirQuery& query) {
  SeedMontgomery mont(query.n);
  const size_t cols = db.cols();
  std::vector<std::vector<uint64_t>> q_mont(cols);
  std::vector<std::vector<uint64_t>> q2_mont(cols);
  for (size_t j = 0; j < cols; ++j) {
    q_mont[j] = mont.ToMontgomery(query.q[j]);
    q2_mont[j] = mont.MontMul(q_mont[j], q_mont[j]);
  }
  std::vector<BigInt> gammas;
  gammas.reserve(db.rows());
  for (size_t i = 0; i < db.rows(); ++i) {
    std::vector<uint64_t> acc = mont.One();
    for (size_t j = 0; j < cols; ++j) {
      acc = mont.MontMul(acc, db.GetBit(i, j) ? q_mont[j] : q2_mont[j]);
    }
    gammas.push_back(mont.FromMontgomery(acc));
  }
  return gammas;
}

// True when the flat answer holds exactly the reference residues, row by
// row, at the modulus's byte width.
bool MatchesReference(const crypto::PirResponse& response,
                      const std::vector<BigInt>& reference,
                      const crypto::PirQuery& query) {
  if (response.value_size != (query.n.BitLength() + 7) / 8 ||
      response.rows() != reference.size()) {
    return false;
  }
  for (size_t i = 0; i < reference.size(); ++i) {
    if (response.Value(i) != reference[i]) return false;
  }
  return true;
}

struct Measurement {
  std::string label;
  size_t threads = 1;
  double ms = 0.0;          // best-of-trials wall ms per Answer call
  double mops_per_sec = 0;  // modular multiplications per second / 1e6
};

double OpsPerSec(uint64_t ops, double ms) { return 1000.0 * ops / ms; }

}  // namespace

int main() {
  const size_t key_bits = bench::EnvSize("EMBELLISH_BENCH_KEYLEN", 256);
  const size_t rows = bench::EnvSize("EMBELLISH_BENCH_ROWS", 4096);
  // 8 columns = BktSz 8, the midpoint of the paper's Figure 7 sweep and the
  // width micro_crypto's BM_PirServerAnswer has always used.
  const size_t cols = bench::EnvSize("EMBELLISH_BENCH_COLS", 8);
  const size_t trials = bench::EnvSize("EMBELLISH_BENCH_TRIALS", 3);
  const size_t max_threads = bench::EnvSize("EMBELLISH_BENCH_THREADS", 8);
  const char* json_path_env = std::getenv("EMBELLISH_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0') ? json_path_env
                                                           : "BENCH_pir.json";

  // The dispatched tier, before the kernel sweep below overrides it.
  const char* kernel_tier = KernelName(SelectedKernel());
  std::printf("== Figure 9: PIR answer engine scaling ==\n");
  std::printf("KeyLen %zu bits, matrix %zu x %zu (%llu modmuls/query), "
              "%zu trials, hardware threads %u, kernel %s, %s build\n\n",
              key_bits, rows, cols,
              static_cast<unsigned long long>(rows) * cols, trials,
              std::thread::hardware_concurrency(), kernel_tier,
              EMBELLISH_BUILD_TYPE);

  Rng rng(2026);
  auto db = std::make_shared<crypto::PirDatabase>(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  auto client = crypto::PirClient::Create(key_bits, &rng);
  if (!client.ok()) {
    std::fprintf(stderr, "client keygen failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto query = client->BuildQuery(cols / 2, cols, &rng);
  if (!query.ok()) {
    std::fprintf(stderr, "query build failed: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  const uint64_t ops = static_cast<uint64_t>(rows) * cols;

  std::vector<Measurement> results;

  // -- Seed-style serial baseline. --
  std::vector<BigInt> seed_gammas;
  {
    Measurement m{"seed-serial", 1, 1e300, 0};
    for (size_t t = 0; t < trials; ++t) {
      Stopwatch sw;
      seed_gammas = SeedStyleAnswer(*db, *query);
      m.ms = std::min(m.ms, sw.ElapsedMillis());
    }
    m.mops_per_sec = OpsPerSec(ops, m.ms) / 1e6;
    results.push_back(m);
  }

  const double seed_ms = results[0].ms;

  // -- Zero-allocation engine at 1, 2, 4, ... max_threads. --
  std::vector<size_t> widths{1};
  for (size_t w = 2; w <= max_threads; w *= 2) widths.push_back(w);
  bool all_match = true;
  for (size_t width : widths) {
    ThreadPool pool(width);
    crypto::PirServer server(db, width > 1 ? &pool : nullptr);
    Measurement m{"engine", width, 1e300, 0};
    for (size_t t = 0; t < trials; ++t) {
      Stopwatch sw;
      auto response = server.Answer(*query);
      m.ms = std::min(m.ms, sw.ElapsedMillis());
      if (!response.ok()) {
        std::fprintf(stderr, "Answer failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      // Sanity: every configuration must hold the seed path's residues and
      // decode to the target column's actual bits — a wrong-but-well-formed
      // response fails here.
      if (!MatchesReference(*response, seed_gammas, *query)) {
        all_match = false;
      }
      auto bits = client->DecodeResponse(*response);
      if (!bits.ok() || bits->size() != rows) {
        all_match = false;
        continue;
      }
      for (size_t i = 0; i < rows; ++i) {
        if ((*bits)[i] != db->GetBit(i, cols / 2)) all_match = false;
      }
    }
    m.mops_per_sec = OpsPerSec(ops, m.ms) / 1e6;
    results.push_back(m);
  }

  // -- Table. --
  std::vector<std::vector<std::string>> table_rows;
  for (const Measurement& m : results) {
    table_rows.push_back(
        {m.label, std::to_string(m.threads),
         StringPrintf("%.2f", m.ms), StringPrintf("%.3f", m.mops_per_sec),
         StringPrintf("%.2fx", seed_ms / m.ms)});
  }
  bench::PrintTable(
      {"path", "threads", "answer ms", "Mmul/s", "vs seed"}, table_rows);

  const Measurement& serial_engine = results[1];
  const Measurement& widest = results.back();
  bench::ShapeCheck(serial_engine.ms <= seed_ms * 1.05,
                    "1-thread engine no slower than seed path");
  bench::ShapeCheck(seed_ms / widest.ms >= 3.0,
                    "widest engine >= 3x seed throughput");
  bench::ShapeCheck(all_match,
                    "all responses match the seed residues and decode to "
                    "the target column");

  // -- Cross-query batched sweep: AnswerBatch at Q = 1, 2, 8, 32. --
  // Queries come from several clients (distinct moduli), so each sweep
  // genuinely crosses Montgomery rings; every batched answer is checked
  // bit-identical to its serial Answer, and the run FAILS (exit 1) on any
  // mismatch. ops/query counts each query's own MontMuls plus its share of
  // the batch's row extractions — the shared work whose amortization is the
  // point of batching — and must be strictly decreasing in Q while the
  // four-Russians tables are on.
  struct BatchPoint {
    size_t q = 0;
    double ms = 1e300;
    crypto::PirBatchStats stats;
    double ops_per_query = 0;
  };
  std::vector<crypto::PirClient> batch_clients;
  for (size_t c = 0; c < 4; ++c) {
    auto bc = crypto::PirClient::Create(key_bits, &rng);
    if (!bc.ok()) {
      std::fprintf(stderr, "batch client keygen failed: %s\n",
                   bc.status().ToString().c_str());
      return 1;
    }
    batch_clients.push_back(std::move(*bc));
  }
  ThreadPool batch_pool(max_threads);
  crypto::PirServer batch_server(db, max_threads > 1 ? &batch_pool : nullptr);
  bool batch_identical = true;
  std::vector<BatchPoint> batch_points;
  for (size_t q_width : {1u, 2u, 8u, 32u}) {
    std::vector<crypto::PirQuery> queries;
    for (size_t i = 0; i < q_width; ++i) {
      auto bq = batch_clients[i % batch_clients.size()].BuildQuery(
          (cols / 2 + i) % cols, cols, &rng);
      if (!bq.ok()) {
        std::fprintf(stderr, "batch query build failed: %s\n",
                     bq.status().ToString().c_str());
        return 1;
      }
      queries.push_back(std::move(*bq));
    }
    std::vector<crypto::PirResponse> serial;
    for (const auto& bq : queries) {
      auto r = batch_server.Answer(bq);
      if (!r.ok()) {
        std::fprintf(stderr, "serial Answer failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      serial.push_back(std::move(*r));
    }
    BatchPoint point;
    point.q = q_width;
    for (size_t t = 0; t < trials; ++t) {
      crypto::PirBatchStats stats;
      Stopwatch sw;
      auto batch = batch_server.AnswerBatch(
          std::span<const crypto::PirQuery>(queries), &stats);
      const double ms = sw.ElapsedMillis();
      if (!batch.ok()) {
        std::fprintf(stderr, "AnswerBatch failed: %s\n",
                     batch.status().ToString().c_str());
        return 1;
      }
      if (ms < point.ms) {
        point.ms = ms;
        point.stats = stats;
      }
      for (size_t i = 0; i < q_width; ++i) {
        if ((*batch)[i].value_size != serial[i].value_size ||
            (*batch)[i].values != serial[i].values) {
          batch_identical = false;
        }
      }
    }
    point.ops_per_query =
        static_cast<double>(point.stats.mont_muls +
                            point.stats.rows_extracted) /
        q_width;
    batch_points.push_back(point);
  }

  std::printf("\n== Cross-query batched answering ==\n");
  std::vector<std::vector<std::string>> batch_rows;
  for (const BatchPoint& p : batch_points) {
    batch_rows.push_back(
        {std::to_string(p.q), StringPrintf("%.2f", p.ms),
         StringPrintf("%.2f", p.ms / p.q),
         std::to_string(p.stats.rows_extracted),
         StringPrintf("%.1f", p.ops_per_query),
         StringPrintf("%.3fx",
                      p.ops_per_query / batch_points[0].ops_per_query)});
  }
  bench::PrintTable({"Q", "batch ms", "ms/query", "rows extracted",
                     "ops/query", "vs Q=1"},
                    batch_rows);

  bool amortization_decreasing = true;
  for (size_t i = 1; i < batch_points.size(); ++i) {
    if (batch_points[i].ops_per_query >=
        batch_points[i - 1].ops_per_query) {
      amortization_decreasing = false;
    }
  }
  const bool tables_on =
      batch_points.back().stats.table_queries == batch_points.back().q;
  bench::ShapeCheck(batch_identical,
                    "every batched answer bit-identical to serial Answer");
  bench::ShapeCheck(!tables_on || amortization_decreasing,
                    "ops/query strictly decreasing in Q (tables on)");
  if (!batch_identical || (tables_on && !amortization_decreasing)) {
    std::fprintf(stderr, "batched-answer equivalence/amortization FAILED\n");
    return 1;
  }

  // -- Kernel tier sweep: the same Q=8 batch and one EncryptBatch, answered
  // at every Montgomery kernel tier this CPU supports (scalar, adx). Every
  // tier's responses must hold the seed path's residues row by row, and
  // ciphertexts must be IDENTICAL across tiers — the run fails (exit 1) on
  // any divergence — and the table reports per-tier throughput. Nonces are
  // drawn serially in message order from a reseeded Rng, so the EncryptBatch
  // comparison is exact, not statistical.
  struct KernelPoint {
    MontKernel kernel;
    double batch_ms = 1e300;    // AnswerBatch, Q = 8
    double batch_mops = 0;      // mont_muls per second / 1e6
    double enc_ms = 1e300;      // EncryptBatch of kEncMsgs messages
    double enc_per_sec = 0;
    bool match = true;          // identical to the scalar tier's outputs
  };
  constexpr size_t kEncMsgs = 64;
  const size_t kernel_q = 8;
  std::vector<crypto::PirQuery> kernel_queries;
  for (size_t i = 0; i < kernel_q; ++i) {
    auto bq = batch_clients[i % batch_clients.size()].BuildQuery(
        i % cols, cols, &rng);
    if (!bq.ok()) {
      std::fprintf(stderr, "kernel-sweep query build failed\n");
      return 1;
    }
    kernel_queries.push_back(std::move(*bq));
  }
  auto benaloh_keys =
      crypto::BenalohKeyPair::Generate({.key_bits = key_bits}, &rng);
  if (!benaloh_keys.ok()) {
    std::fprintf(stderr, "benaloh keygen failed: %s\n",
                 benaloh_keys.status().ToString().c_str());
    return 1;
  }
  std::vector<uint64_t> enc_messages(kEncMsgs);
  for (size_t i = 0; i < kEncMsgs; ++i) enc_messages[i] = i * 37 % 59049;

  const MontKernel restore_kernel = SelectedKernel();
  std::vector<KernelPoint> kernel_points;
  std::vector<std::vector<BigInt>> kernel_references;
  for (const crypto::PirQuery& kq : kernel_queries) {
    kernel_references.push_back(SeedStyleAnswer(*db, kq));
  }
  std::vector<crypto::BenalohCiphertext> scalar_cts;
  bool kernels_identical = true;
  for (MontKernel kernel : {MontKernel::kScalar, MontKernel::kAdx}) {
    if (ClampToCpu(kernel) != kernel) continue;  // tier above this CPU
    SetKernelOverride(kernel);
    KernelPoint point;
    point.kernel = kernel;
    crypto::PirBatchStats best_stats;
    std::vector<crypto::PirResponse> last_batch;
    for (size_t t = 0; t < trials; ++t) {
      crypto::PirBatchStats stats;
      Stopwatch sw;
      auto batch = batch_server.AnswerBatch(
          std::span<const crypto::PirQuery>(kernel_queries), &stats);
      const double ms = sw.ElapsedMillis();
      if (!batch.ok()) {
        std::fprintf(stderr, "kernel-sweep AnswerBatch failed\n");
        return 1;
      }
      if (ms < point.batch_ms) {
        point.batch_ms = ms;
        best_stats = stats;
      }
      last_batch = std::move(*batch);
    }
    point.batch_mops =
        OpsPerSec(best_stats.mont_muls, point.batch_ms) / 1e6;

    std::vector<crypto::BenalohCiphertext> cts;
    for (size_t t = 0; t < trials; ++t) {
      Rng enc_rng(4242);  // reseeded: identical nonces at every tier
      Stopwatch sw;
      auto enc = benaloh_keys->public_key().EncryptBatch(enc_messages,
                                                         &enc_rng,
                                                         &batch_pool);
      const double ms = sw.ElapsedMillis();
      if (!enc.ok()) {
        std::fprintf(stderr, "kernel-sweep EncryptBatch failed\n");
        return 1;
      }
      point.enc_ms = std::min(point.enc_ms, ms);
      cts = std::move(*enc);
    }
    point.enc_per_sec = OpsPerSec(kEncMsgs, point.enc_ms);

    for (size_t i = 0; i < last_batch.size(); ++i) {
      if (!MatchesReference(last_batch[i], kernel_references[i],
                            kernel_queries[i])) {
        point.match = false;
      }
    }
    if (kernel_points.empty()) {  // scalar tier: the reference ciphertexts
      scalar_cts = std::move(cts);
    } else {
      for (size_t i = 0; i < cts.size(); ++i) {
        if (!(cts[i] == scalar_cts[i])) point.match = false;
      }
    }
    if (!point.match) kernels_identical = false;
    kernel_points.push_back(point);
  }
  SetKernelOverride(restore_kernel);

  std::printf("\n== Montgomery kernel tiers (Q=%zu batch, %zu encrypts) ==\n",
              kernel_q, kEncMsgs);
  std::vector<std::vector<std::string>> kernel_rows;
  for (const KernelPoint& p : kernel_points) {
    kernel_rows.push_back(
        {KernelName(p.kernel), StringPrintf("%.2f", p.batch_ms),
         StringPrintf("%.3f", p.batch_mops),
         StringPrintf("%.2f", p.enc_ms),
         StringPrintf("%.1f", p.enc_per_sec),
         StringPrintf("%.3fx", kernel_points[0].batch_ms / p.batch_ms),
         p.match ? "yes" : "NO"});
  }
  bench::PrintTable({"kernel", "batch ms", "Mmul/s", "encrypt ms", "enc/s",
                     "vs scalar", "identical"},
                    kernel_rows);
  bench::ShapeCheck(kernels_identical,
                    "every kernel tier matches the seed residues and the "
                    "scalar tier's ciphertexts");
  if (!kernels_identical) {
    std::fprintf(stderr, "cross-kernel divergence FAILED\n");
    return 1;
  }

  // -- JSON for the perf trajectory. --
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig9_pir_scaling\",\n"
               "  \"key_bits\": %zu,\n"
               "  \"rows\": %zu,\n"
               "  \"cols\": %zu,\n"
               "  \"modmuls_per_query\": %llu,\n",
               key_bits, rows, cols, static_cast<unsigned long long>(ops));
  bench::WriteRunInfo(f, EMBELLISH_BUILD_TYPE);
  std::fprintf(f,
               "  \"seed_serial\": {\"ms\": %.3f, \"mops_per_sec\": %.4f},\n"
               "  \"engine\": [\n",
               seed_ms, results[0].mops_per_sec);
  for (size_t i = 1; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"ms\": %.3f, \"mops_per_sec\": "
                 "%.4f, \"speedup_vs_seed\": %.3f}%s\n",
                 m.threads, m.ms, m.mops_per_sec, seed_ms / m.ms,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batch\": [\n");
  for (size_t i = 0; i < batch_points.size(); ++i) {
    const BatchPoint& p = batch_points[i];
    std::fprintf(
        f,
        "    {\"q\": %zu, \"ms\": %.3f, \"ms_per_query\": %.3f, "
        "\"mont_muls\": %llu, \"rows_extracted\": %llu, \"sweeps\": %llu, "
        "\"ops_per_query\": %.2f, \"amortization_vs_q1\": %.4f}%s\n",
        p.q, p.ms, p.ms / p.q,
        static_cast<unsigned long long>(p.stats.mont_muls),
        static_cast<unsigned long long>(p.stats.rows_extracted),
        static_cast<unsigned long long>(p.stats.sweeps), p.ops_per_query,
        p.ops_per_query / batch_points[0].ops_per_query,
        i + 1 < batch_points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernels\": [\n");
  for (size_t i = 0; i < kernel_points.size(); ++i) {
    const KernelPoint& p = kernel_points[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"batch_ms\": %.3f, \"batch_mops_per_sec\": "
        "%.4f, \"encrypt_ms\": %.3f, \"encrypts_per_sec\": %.1f, "
        "\"speedup_vs_scalar\": %.3f, \"identical_to_scalar\": %s}%s\n",
        KernelName(p.kernel), p.batch_ms, p.batch_mops, p.enc_ms,
        p.enc_per_sec, kernel_points[0].batch_ms / p.batch_ms,
        p.match ? "true" : "false",
        i + 1 < kernel_points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
