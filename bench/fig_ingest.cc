// Live-ingest latency: top-k serving latency on a catalog-backed server in
// steady state vs while background reshards and document deltas are
// installing new epochs. The snapshot design's promise is that cutovers
// cost readers one atomic pointer swap and an engine re-pin — never a
// stall behind the build — so the mid-reshard tail should sit within
// noise of steady state. Emits BENCH_ingest.json.
//
// Correctness gates the exit code: every response (steady and mid-reshard)
// must decode as a top-k result, and the counted answer-path gauge must
// show zero builds on the serving thread. The p95 ratio shape-check is
// informational, like the other perf benches, so a noisy or 1-core runner
// cannot fail CI on wall clock.
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_TERMS     lexicon size                  (default 2000)
//   EMBELLISH_BENCH_DOCS      corpus documents              (default 300)
//   EMBELLISH_BENCH_QUERIES   steady-phase samples          (default 400)
//   EMBELLISH_BENCH_THREADS   catalog build pool width      (default 4)
//   EMBELLISH_BENCH_RESHARDS  cutover cycles to sample over (default 6)
//   EMBELLISH_BENCH_JSON      output path       (default BENCH_ingest.json)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace embellish;

struct Percentiles {
  double p50_us = 0;
  double p95_us = 0;
  size_t n = 0;
};

Percentiles Summarize(std::vector<int64_t> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.p50_us = static_cast<double>(samples[samples.size() / 2]);
  p.p95_us = static_cast<double>(
      samples[static_cast<size_t>(0.95 * static_cast<double>(
                                             samples.size() - 1))]);
  return p;
}

}  // namespace

int main() {
  const size_t terms = bench::EnvSize("EMBELLISH_BENCH_TERMS", 2000);
  const size_t docs = bench::EnvSize("EMBELLISH_BENCH_DOCS", 300);
  const size_t steady_samples = bench::EnvSize("EMBELLISH_BENCH_QUERIES", 400);
  const size_t threads = bench::EnvSize("EMBELLISH_BENCH_THREADS", 4);
  const size_t reshards = bench::EnvSize("EMBELLISH_BENCH_RESHARDS", 6);
  const char* json_path_env = std::getenv("EMBELLISH_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0')
          ? json_path_env
          : "BENCH_ingest.json";

  std::printf("== Live-ingest latency: %zu steady samples, %zu cutover "
              "cycles, build pool width %zu ==\n\n",
              steady_samples, reshards, threads);

  bench::RetrievalFixture fixture = bench::RetrievalFixture::Build(terms, docs);
  auto org = std::make_shared<core::BucketOrganization>(
      fixture.Buckets(/*bktsz=*/4));

  ThreadPool pool(threads);
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  auto catalog =
      index::IndexCatalog::Create(fixture.corpus_data, org, copts, &pool);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }

  // The serving thread deliberately gets NO pool: shard fan-out runs
  // serially, so the builds' pool usage cannot contend with the latency
  // probe and the measurement isolates the snapshot/cutover overhead.
  server::EmbellishServer srv(catalog->get());

  // A replayable pool of plaintext top-k requests (no crypto in the probe:
  // the quantity under test is snapshot acquisition + evaluation, not
  // Benaloh exponentiations).
  Rng rng(2028);
  std::vector<std::vector<uint8_t>> requests;
  for (auto& q : fixture.RandomQueries(/*count=*/32, /*query_size=*/2, &rng)) {
    requests.push_back(server::EncodeFrame(server::FrameKind::kTopKQuery,
                                           /*session=*/9,
                                           server::EncodeTopKQuery(10, q)));
  }

  std::atomic<bool> decode_ok{true};
  auto probe = [&](size_t i) {
    Stopwatch sw;
    auto response = srv.HandleFrame(requests[i % requests.size()]);
    const int64_t us = sw.ElapsedMicros();
    auto frame = server::DecodeFrame(response);
    if (!frame.ok() || frame->kind != server::FrameKind::kTopKResult) {
      decode_ok.store(false, std::memory_order_relaxed);
    }
    return us;
  };

  // Warm-up: first contact builds the engine bundle for epoch 1.
  for (size_t i = 0; i < requests.size(); ++i) probe(i);

  // ---- Steady state: no builds anywhere ----
  std::vector<int64_t> steady;
  steady.reserve(steady_samples);
  for (size_t i = 0; i < steady_samples; ++i) steady.push_back(probe(i));

  // ---- Mid-reshard: cutover cycles racing the probe ----
  // Each cycle ingests a small delta and flips the shard count 2 <-> 4;
  // the probe thread samples continuously while any build is in flight.
  auto delta_docs = [&](uint64_t salt) {
    auto indexed = fixture.built.index.IndexedTerms();
    std::vector<corpus::Document> delta(3);
    for (size_t d = 0; d < delta.size(); ++d) {
      for (size_t i = 0; i < 30; ++i) {
        delta[d].tokens.push_back(
            indexed[(salt + 17 * d + 3 * i) % indexed.size()]);
      }
    }
    return delta;
  };
  std::atomic<bool> building{true};
  std::thread builder([&] {
    for (size_t r = 0; r < reshards; ++r) {
      auto delta = (*catalog)->ApplyDelta(delta_docs(7 * r + 1));
      if (!delta.ok()) {
        std::fprintf(stderr, "delta: %s\n",
                     delta.status().ToString().c_str());
        decode_ok.store(false, std::memory_order_relaxed);
        break;
      }
      index::ShardingOptions next;
      next.shard_count = (r % 2 == 0) ? 4 : 2;
      auto widened = (*catalog)->Reshard(next);
      if (!widened.ok()) {
        std::fprintf(stderr, "reshard: %s\n",
                     widened.status().ToString().c_str());
        decode_ok.store(false, std::memory_order_relaxed);
        break;
      }
    }
    building.store(false, std::memory_order_release);
  });
  std::vector<int64_t> mid;
  size_t i = 0;
  while (building.load(std::memory_order_acquire)) {
    mid.push_back(probe(i++));
    if (mid.size() >= 200000) break;  // runaway guard on a stalled builder
  }
  builder.join();

  const Percentiles steady_p = Summarize(std::move(steady));
  const Percentiles mid_p = Summarize(std::move(mid));
  const double ratio =
      steady_p.p95_us > 0 ? mid_p.p95_us / steady_p.p95_us : 0;

  server::ServerStats stats = srv.stats();
  bench::PrintTable(
      {"phase", "samples", "p50 us", "p95 us"},
      {{"steady", std::to_string(steady_p.n),
        StringPrintf("%.0f", steady_p.p50_us),
        StringPrintf("%.0f", steady_p.p95_us)},
       {"mid-reshard", std::to_string(mid_p.n),
        StringPrintf("%.0f", mid_p.p50_us),
        StringPrintf("%.0f", mid_p.p95_us)}});
  std::printf("\ncutovers: %llu epoch swaps, %llu docs ingested, reshard "
              "build time %.1f ms total\n",
              static_cast<unsigned long long>(stats.epoch_swaps),
              static_cast<unsigned long long>(stats.delta_docs_ingested),
              static_cast<double>(stats.reshard_micros) / 1000.0);
  std::printf("top-k shard trips: %llu visited, %llu skipped by impact "
              "bounds\n",
              static_cast<unsigned long long>(stats.topk_shards_visited),
              static_cast<unsigned long long>(stats.topk_shards_skipped));

  bench::ShapeCheck(decode_ok.load(),
                    "every probe response (steady and mid-reshard) decoded "
                    "as a top-k result");
  bench::ShapeCheck(stats.answer_path_builds == 0,
                    "zero index/layout builds on the serving thread across "
                    "all cutovers (counted invariant)");
  bench::ShapeCheck(mid_p.n > 0,
                    "the probe actually sampled while builds were in flight");
  // The acceptance target from the snapshot design: the mid-reshard p95
  // within 25% of steady. Informational, not exit-gating — wall clock on a
  // shared 1-core runner is not a correctness statement.
  bench::ShapeCheck(ratio <= 1.25,
                    StringPrintf("mid-reshard p95 within 25%% of steady "
                                 "(ratio %.3f)",
                                 ratio));

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_ingest\",\n");
  bench::WriteRunInfo(f, EMBELLISH_BUILD_TYPE);
  std::fprintf(f,
               "  \"docs\": %zu,\n"
               "  \"reshard_cycles\": %zu,\n"
               "  \"epoch_swaps\": %llu,\n"
               "  \"delta_docs_ingested\": %llu,\n"
               "  \"reshard_micros\": %llu,\n"
               "  \"answer_path_builds\": %llu,\n"
               "  \"steady\": {\"n\": %zu, \"p50_us\": %.1f, "
               "\"p95_us\": %.1f},\n"
               "  \"mid_reshard\": {\"n\": %zu, \"p50_us\": %.1f, "
               "\"p95_us\": %.1f},\n"
               "  \"p95_ratio\": %.3f\n"
               "}\n",
               docs, reshards,
               static_cast<unsigned long long>(stats.epoch_swaps),
               static_cast<unsigned long long>(stats.delta_docs_ingested),
               static_cast<unsigned long long>(stats.reshard_micros),
               static_cast<unsigned long long>(stats.answer_path_builds),
               steady_p.n, steady_p.p50_us, steady_p.p95_us, mid_p.n,
               mid_p.p50_us, mid_p.p95_us, ratio);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  // Exit status reflects correctness only: decodable answers and the
  // counted zero-builds-on-the-answer-path invariant.
  return (decode_ok.load() && stats.answer_path_builds == 0) ? 0 : 1;
}
