// google-benchmark microbenchmarks for the cryptographic primitives that
// dominate the Section 5.2 costs: Benaloh encrypt/decrypt/scalar-mul,
// Paillier encrypt/decrypt, PIR row products, and the bignum kernels.

#include <benchmark/benchmark.h>

#include <map>

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
