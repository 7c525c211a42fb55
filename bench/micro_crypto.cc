// google-benchmark microbenchmarks for the cryptographic primitives that
// dominate the Section 5.2 costs: Benaloh encrypt/decrypt/scalar-mul,
// Paillier encrypt/decrypt, PIR query building, row products and decoding,
// and the bignum kernels.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/cpuinfo.h"
#include "embellish.h"

namespace {

using namespace embellish;
using bignum::BigInt;

crypto::BenalohKeyPair* BenalohKeys(size_t bits) {
  static std::map<size_t, crypto::BenalohKeyPair*>* cache =
      new std::map<size_t, crypto::BenalohKeyPair*>();
  auto it = cache->find(bits);
  if (it != cache->end()) return it->second;
  Rng rng(42 + bits);
  crypto::BenalohKeyOptions o;
  o.key_bits = bits;
  o.r = 59049;
  auto kp = crypto::BenalohKeyPair::Generate(o, &rng);
  auto* owned = new crypto::BenalohKeyPair(std::move(kp).value());
  (*cache)[bits] = owned;
  return owned;
}

void BM_BigIntMul(benchmark::State& state) {
  Rng rng(1);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt a = bignum::RandomBits(bits, &rng);
  BigInt b = bignum::RandomBits(bits, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

void BM_BigIntDivMod(benchmark::State& state) {
  Rng rng(2);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt a = bignum::RandomBits(2 * bits, &rng);
  BigInt b = bignum::RandomBits(bits, &rng);
  for (auto _ : state) {
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BigIntDivMod)->Arg(256)->Arg(512)->Arg(1024);

// gcd of a random value below an odd modulus and the modulus: the test
// RandomUnit runs on every draw.
void BM_Gcd(benchmark::State& state) {
  Rng rng(14);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt n = bignum::RandomBits(bits, &rng) + BigInt(1);
  if (n.IsEven()) n = n + BigInt(1);
  BigInt a = bignum::RandomBelow(n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bignum::Gcd(a, n));
  }
}
BENCHMARK(BM_Gcd)->Arg(256)->Arg(1024)->Arg(2048);

void BM_MontgomeryModExp(benchmark::State& state) {
  Rng rng(3);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = bignum::RandomPrime(bits, &rng);
  auto ctx = bignum::MontgomeryContext::Create(m);
  BigInt base = bignum::RandomBelow(m, &rng);
  BigInt exp = bignum::RandomBits(bits, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->ModExp(base, exp));
  }
}
BENCHMARK(BM_MontgomeryModExp)->Arg(256)->Arg(512)->Arg(1024);

void BM_MontMulSingle(benchmark::State& state) {
  Rng rng(4);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = bignum::RandomPrime(bits, &rng);
  auto ctx = bignum::MontgomeryContext::Create(m);
  auto a = ctx->ToMontgomery(bignum::RandomBelow(m, &rng));
  auto b = ctx->ToMontgomery(bignum::RandomBelow(m, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx->MontMul(a, b));
  }
}
BENCHMARK(BM_MontMulSingle)->Arg(128)->Arg(256)->Arg(512);

void BM_MontMulScratch(benchmark::State& state) {
  // The zero-allocation kernel the PIR row loop runs on; compare against
  // BM_MontMulSingle to see what the per-op heap traffic used to cost.
  Rng rng(4);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = bignum::RandomPrime(bits, &rng);
  auto ctx = bignum::MontgomeryContext::Create(m);
  auto a = ctx->ToMontgomery(bignum::RandomBelow(m, &rng));
  auto b = ctx->ToMontgomery(bignum::RandomBelow(m, &rng));
  bignum::MontgomeryContext::Scratch scratch(*ctx);
  std::vector<uint64_t> acc = ctx->One();
  for (auto _ : state) {
    ctx->MontMulInto(acc.data(), (acc[0] & 1) ? a.data() : b.data(),
                     acc.data(), &scratch);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_MontMulScratch)->Arg(128)->Arg(256)->Arg(512);

void BM_ModExpScratch(benchmark::State& state) {
  Rng rng(4);
  size_t bits = static_cast<size_t>(state.range(0));
  BigInt m = bignum::RandomPrime(bits, &rng);
  auto ctx = bignum::MontgomeryContext::Create(m);
  auto base = ctx->ToMontgomery(bignum::RandomBelow(m, &rng));
  BigInt e = bignum::RandomBits(bits, &rng);
  bignum::MontgomeryContext::Scratch scratch(*ctx);
  std::vector<uint64_t> out(ctx->limb_count());
  for (auto _ : state) {
    ctx->ModExpInto(base.data(), e, out.data(), &scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ModExpScratch)->Arg(256)->Arg(512);

void BM_BenalohEncrypt(benchmark::State& state) {
  auto* kp = BenalohKeys(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->public_key().Encrypt(1, &rng));
  }
}
BENCHMARK(BM_BenalohEncrypt)->Arg(256)->Arg(512);

void BM_BenalohScalarMul(benchmark::State& state) {
  auto* kp = BenalohKeys(256);
  Rng rng(6);
  auto c = kp->public_key().Encrypt(1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->public_key().ScalarMul(*c, 200));
  }
}
BENCHMARK(BM_BenalohScalarMul);

void BM_BenalohDecrypt3k(benchmark::State& state) {
  auto* kp = BenalohKeys(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  auto c = kp->public_key().Encrypt(31415, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->private_key().DecryptWith(
        *c, crypto::BenalohDecryptMode::kPowerOfThreeDigits));
  }
}
BENCHMARK(BM_BenalohDecrypt3k)->Arg(256)->Arg(512);

void BM_BenalohDecryptBsgs(benchmark::State& state) {
  auto* kp = BenalohKeys(static_cast<size_t>(state.range(0)));
  Rng rng(8);
  auto c = kp->public_key().Encrypt(31415, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->private_key().DecryptWith(
        *c, crypto::BenalohDecryptMode::kBabyStepGiantStep));
  }
}
BENCHMARK(BM_BenalohDecryptBsgs)->Arg(256)->Arg(512);

void BM_PaillierEncrypt(benchmark::State& state) {
  Rng rng(9);
  static auto* kp = new crypto::PaillierKeyPair(
      std::move(crypto::PaillierKeyPair::Generate(256, &rng)).value());
  Rng erng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->public_key().Encrypt(BigInt(12345), &erng));
  }
}
BENCHMARK(BM_PaillierEncrypt);

void BM_PirServerAnswer(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = 8;
  auto db = std::make_shared<crypto::PirDatabase>(rows, cols);
  Rng rng(11);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  auto client = crypto::PirClient::Create(256, &rng);
  crypto::PirServer server(db);
  auto query = client->BuildQuery(3, cols, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Answer(*query));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_PirServerAnswer)->Arg(512)->Arg(4096)->Arg(16384);

void BM_PirServerAnswerPooled(benchmark::State& state) {
  const size_t rows = 4096;
  const size_t cols = 8;
  auto db = std::make_shared<crypto::PirDatabase>(rows, cols);
  Rng rng(11);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  auto client = crypto::PirClient::Create(256, &rng);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  crypto::PirServer server(db, &pool);
  auto query = client->BuildQuery(3, cols, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Answer(*query));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows * cols));
}
BENCHMARK(BM_PirServerAnswerPooled)->Arg(2)->Arg(4)->Arg(8);

void BM_BenalohEncryptBatch(benchmark::State& state) {
  auto* kp = BenalohKeys(256);
  Rng rng(14);
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  std::vector<uint64_t> ms(64);
  for (size_t i = 0; i < ms.size(); ++i) ms[i] = i % 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kp->public_key().EncryptBatch(ms, &rng, &pool));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ms.size()));
}
BENCHMARK(BM_BenalohEncryptBatch)->Arg(1)->Arg(4);

// The same 64-message batch pinned to each Montgomery kernel tier (arg =
// MontKernel ladder index 0..1), the axis the fig9 kernel sweep records into
// BENCH_pir.json. Tiers above this CPU are skipped rather than silently
// clamped, so a row labeled "adx" really ran ADX.
void BM_BenalohEncryptBatchKernel(benchmark::State& state) {
  const auto requested = static_cast<MontKernel>(state.range(0));
  if (ClampToCpu(requested) != requested) {
    state.SkipWithError("kernel tier unsupported on this CPU");
    return;
  }
  auto* kp = BenalohKeys(256);
  Rng rng(15);
  ThreadPool pool(4);
  std::vector<uint64_t> ms(64);
  for (size_t i = 0; i < ms.size(); ++i) ms[i] = i % 2;
  const MontKernel restore = SetKernelOverride(requested);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp->public_key().EncryptBatch(ms, &rng, &pool));
  }
  SetKernelOverride(restore);
  state.SetLabel(KernelName(requested));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ms.size()));
}
BENCHMARK(BM_BenalohEncryptBatchKernel)->Arg(0)->Arg(1);

void BM_PirDecode(benchmark::State& state) {
  const size_t rows = 4096;
  const size_t cols = 8;
  auto db = std::make_shared<crypto::PirDatabase>(rows, cols);
  Rng rng(12);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  auto client = crypto::PirClient::Create(256, &rng);
  crypto::PirServer server(db);
  auto query = client->BuildQuery(2, cols, &rng);
  auto response = server.Answer(*query);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->DecodeResponse(*response));
  }
}
BENCHMARK(BM_PirDecode);

// One KO-PIR query over `cols` columns at a 256-bit key: a random unit per
// column, squared for the others and drawn until a non-residue for the
// wanted one.
void BM_PirBuildQuery(benchmark::State& state) {
  const size_t cols = static_cast<size_t>(state.range(0));
  Rng rng(15);
  auto client = crypto::PirClient::Create(256, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client->BuildQuery(1, cols, &rng));
  }
}
BENCHMARK(BM_PirBuildQuery)->Arg(4)->Arg(24);

// A PR answer shaped like perfbench's (20,000 documents, a 2-term query at
// bucket size 4): 8 lists with skewed impacts, each adding 68 documents to
// the candidates (and overlapping earlier lists), so 544 candidates in
// (bound desc, doc asc) order at a 256-bit key. Each candidate's bound sums
// all 8 lists' impacts and its score the 2 genuine lists'.
struct PrAnswer {
  core::EncryptedResult result;
  std::vector<uint8_t> bytes;
};

const PrAnswer& SampleAnswer() {
  static const PrAnswer* answer = [] {
    const crypto::BenalohPublicKey& pk = BenalohKeys(256)->public_key();
    Rng rng(16);
    std::map<corpus::DocId, std::pair<uint32_t, uint64_t>> docs;
    for (size_t term = 0; term < 8; ++term) {
      std::set<corpus::DocId> list;
      while (docs.size() < 68 * (term + 1)) {
        const auto doc = static_cast<corpus::DocId>(rng.Uniform(20000));
        if (!list.insert(doc).second) continue;
        const auto impact = static_cast<uint32_t>(
            1 + rng.Uniform(255) * rng.Uniform(255) / 255);
        auto& [bound, score] = docs[doc];
        bound += impact;
        if (term < 2) score += impact;
      }
    }
    auto* out = new PrAnswer;
    for (const auto& [doc, value] : docs) {
      out->result.candidates.push_back(
          {doc, value.first, *pk.Encrypt(value.second, &rng)});
    }
    std::sort(out->result.candidates.begin(), out->result.candidates.end(),
              core::CandidateOrder);
    out->bytes = core::EncodeResult(out->result, pk);
    return out;
  }();
  return *answer;
}

void BM_EncodeResult(benchmark::State& state) {
  const crypto::BenalohPublicKey& pk = BenalohKeys(256)->public_key();
  const PrAnswer& answer = SampleAnswer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeResult(answer.result, pk));
  }
  state.counters["candidates"] =
      static_cast<double>(answer.result.candidates.size());
  state.counters["bytes"] = static_cast<double>(answer.bytes.size());
}
BENCHMARK(BM_EncodeResult);

void BM_DecodeResult(benchmark::State& state) {
  const crypto::BenalohPublicKey& pk = BenalohKeys(256)->public_key();
  const PrAnswer& answer = SampleAnswer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DecodeResult(answer.bytes, pk));
  }
}
BENCHMARK(BM_DecodeResult);

// Algorithm 5 on the sample answer at k = 10: the threshold's decryptions.
void BM_PostFilter(benchmark::State& state) {
  crypto::BenalohKeyPair* keys = BenalohKeys(256);
  const PrAnswer& answer = SampleAnswer();
  auto buckets = core::BucketOrganization::Create({{0, 1, 2, 3}});
  core::PrivateRetrievalClient client(&*buckets, &keys->public_key(),
                                      &keys->private_key());
  core::RetrievalCosts costs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.PostFilter(answer.result, 10, &costs));
  }
  state.counters["decryptions"] =
      benchmark::Counter(static_cast<double>(costs.decryptions),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PostFilter);

void BM_MillerRabinPrimality(benchmark::State& state) {
  Rng rng(13);
  BigInt p = bignum::RandomPrime(static_cast<size_t>(state.range(0)), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bignum::IsProbablePrime(p, &rng, 16));
  }
}
BENCHMARK(BM_MillerRabinPrimality)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
