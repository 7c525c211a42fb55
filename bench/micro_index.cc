// google-benchmark microbenchmarks for the retrieval substrate: index
// construction, top-k evaluation, Algorithm-1 sequencing, Algorithm-2
// bucketization and semantic-distance queries.

#include <benchmark/benchmark.h>

#include <memory>

#include "embellish.h"

namespace {

using namespace embellish;

struct Fixture {
  wordnet::WordNetDatabase lexicon;
  corpus::Corpus corp;
  index::BuildOutput built;
  core::SpecificityMap spec;
  core::SequencerResult seq;

  static const Fixture& Get() {
    static Fixture* f = [] {
      wordnet::SyntheticWordNetOptions wo;
      wo.target_term_count = 20000;
      wo.seed = 9;
      auto lex = wordnet::GenerateSyntheticWordNet(wo);
      corpus::SyntheticCorpusOptions co;
      co.num_docs = 2000;
      co.mean_doc_tokens = 120;
      co.seed = 10;
      auto corp = corpus::GenerateSyntheticCorpus(*lex, co);
      auto built = index::BuildIndex(*corp, {});
      auto* out = new Fixture{std::move(lex).value(), std::move(corp).value(),
                              std::move(built).value(), {}, {}};
      out->spec = core::SpecificityMap::FromHypernymDepth(out->lexicon);
      out->seq = core::SequenceDictionary(out->lexicon);
      return out;
    }();
    return *f;
  }
};

// Arg: pool threads running the build's chunks; 0 builds without a pool.
// Timed in wall-clock time, since pool workers' CPU is not the caller's.
void BM_IndexBuild(benchmark::State& state) {
  const auto& f = Fixture::Get();
  std::unique_ptr<ThreadPool> pool;
  if (state.range(0) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(state.range(0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::BuildIndex(f.corp, {}, pool.get()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.corp.TotalTokens()));
}
BENCHMARK(BM_IndexBuild)->Arg(0)->Arg(4)->UseRealTime();

void BM_TopKEvaluation(benchmark::State& state) {
  const auto& f = Fixture::Get();
  Rng rng(1);
  auto terms = f.built.index.IndexedTerms();
  std::vector<wordnet::TermId> query;
  for (int64_t i = 0; i < state.range(0); ++i) {
    query.push_back(terms[rng.Uniform(terms.size())]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::EvaluateTopK(f.built.index, query, 20));
  }
}
BENCHMARK(BM_TopKEvaluation)->Arg(4)->Arg(12)->Arg(40);

void BM_FullEvaluation(benchmark::State& state) {
  const auto& f = Fixture::Get();
  Rng rng(2);
  auto terms = f.built.index.IndexedTerms();
  std::vector<wordnet::TermId> query;
  for (int i = 0; i < 12; ++i) query.push_back(terms[rng.Uniform(terms.size())]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::EvaluateFull(f.built.index, query));
  }
}
BENCHMARK(BM_FullEvaluation);

void BM_SequenceDictionary(benchmark::State& state) {
  const auto& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SequenceDictionary(f.lexicon));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.lexicon.term_count()));
}
BENCHMARK(BM_SequenceDictionary);

void BM_FormBuckets(benchmark::State& state) {
  const auto& f = Fixture::Get();
  core::BucketizerOptions o;
  o.bucket_size = static_cast<size_t>(state.range(0));
  o.segment_size = 512;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FormBuckets(f.seq, f.spec, o));
  }
}
BENCHMARK(BM_FormBuckets)->Arg(4)->Arg(24);

void BM_SpecificityMap(benchmark::State& state) {
  const auto& f = Fixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SpecificityMap::FromHypernymDepth(f.lexicon));
  }
}
BENCHMARK(BM_SpecificityMap);

void BM_SemanticTermDistance(benchmark::State& state) {
  const auto& f = Fixture::Get();
  core::SemanticDistanceCalculator calc(&f.lexicon);
  Rng rng(3);
  for (auto _ : state) {
    wordnet::TermId a =
        static_cast<wordnet::TermId>(rng.Uniform(f.lexicon.term_count()));
    wordnet::TermId b =
        static_cast<wordnet::TermId>(rng.Uniform(f.lexicon.term_count()));
    benchmark::DoNotOptimize(calc.TermDistance(a, b, 48.0));
  }
}
BENCHMARK(BM_SemanticTermDistance);

void BM_QueryEmbellishment(benchmark::State& state) {
  const auto& f = Fixture::Get();
  core::BucketizerOptions o;
  o.bucket_size = 8;
  o.segment_size = 512;
  static auto* org = new core::BucketOrganization(
      std::move(core::FormBuckets(f.seq, f.spec, o)).value());
  Rng rng(4);
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  static auto* keys = new crypto::BenalohKeyPair(
      std::move(crypto::BenalohKeyPair::Generate(ko, &rng)).value());
  core::QueryEmbellisher embellisher(org, &keys->public_key());
  auto terms = f.built.index.IndexedTerms();
  std::vector<wordnet::TermId> query;
  for (int i = 0; i < 12; ++i) query.push_back(terms[rng.Uniform(terms.size())]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(embellisher.Embellish(query, &rng));
  }
}
BENCHMARK(BM_QueryEmbellishment);

void BM_ZipfSample(benchmark::State& state) {
  corpus::ZipfSampler zipf(100000, 1.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

BENCHMARK_MAIN();
