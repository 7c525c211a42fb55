// EmbellishServer throughput under simulated multi-session traffic.
//
// Per-session query streams drawing genuine-term sets from a Zipf
// distribution (the paper's term-popularity assumption, applied to *query*
// recurrence) are driven through the framed request loop two ways:
//
//   serial       per-request dispatch — the baseline a per-call library
//                user gets;
//   batched      HandleBatch over the thread pool — isolates the batching
//                win.
//
// Every query frame is encrypted afresh, so a recurring term set is a new
// request each time and the server answers every one with Algorithm 4.
// Both paths receive byte-identical request frames and must produce
// byte-identical responses — checked every run. Emits BENCH_server.json for
// the perf trajectory.
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_TERMS     lexicon size                  (default 2000)
//   EMBELLISH_BENCH_DOCS      corpus documents              (default 300)
//   EMBELLISH_BENCH_KEYLEN    Benaloh modulus bits          (default 256)
//   EMBELLISH_BENCH_SESSIONS  concurrent sessions           (default 8)
//   EMBELLISH_BENCH_QUERIES   queries per session           (default 40)
//   EMBELLISH_BENCH_POOLSZ    distinct term sets / session  (default 12)
//   EMBELLISH_BENCH_THREADS   batch pool width              (default 4)
//   EMBELLISH_BENCH_JSON      output path        (default BENCH_server.json)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace embellish;

struct Workload {
  std::vector<server::SessionClient> clients;
  // frames[s][q]: the q-th request frame of session s (encoded once; both
  // paths send the identical bytes).
  std::vector<std::vector<std::vector<uint8_t>>> frames;
  size_t total_requests = 0;
};

struct PathResult {
  std::string label;
  double ms = 0;
  double qps = 0;
  double speedup = 1.0;
  std::vector<std::vector<uint8_t>> responses;  // round-robin order
};

}  // namespace

int main() {
  const size_t terms = bench::EnvSize("EMBELLISH_BENCH_TERMS", 2000);
  const size_t docs = bench::EnvSize("EMBELLISH_BENCH_DOCS", 300);
  const size_t key_bits = bench::EnvSize("EMBELLISH_BENCH_KEYLEN", 256);
  const size_t sessions = bench::EnvSize("EMBELLISH_BENCH_SESSIONS", 8);
  const size_t queries = bench::EnvSize("EMBELLISH_BENCH_QUERIES", 40);
  const size_t pool_size = bench::EnvSize("EMBELLISH_BENCH_POOLSZ", 12);
  const size_t threads = bench::EnvSize("EMBELLISH_BENCH_THREADS", 4);
  const char* json_path_env = std::getenv("EMBELLISH_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0')
          ? json_path_env
          : "BENCH_server.json";

  std::printf("== EmbellishServer throughput: %zu sessions x %zu queries "
              "(%zu distinct/session, Zipf s=1.0), KeyLen %zu ==\n\n",
              sessions, queries, pool_size, key_bits);

  bench::RetrievalFixture fixture =
      bench::RetrievalFixture::Build(terms, docs);
  core::BucketOrganization org = fixture.Buckets(/*bktsz=*/4);

  crypto::BenalohKeyOptions ko;
  ko.key_bits = key_bits;
  ko.r = 59049;

  // --- Build the workload: per-session Zipf-recurring query streams. ---
  Workload load;
  Rng rng(2026);
  auto indexed = fixture.built.index.IndexedTerms();
  corpus::ZipfSampler zipf(pool_size, 1.0);
  for (size_t s = 0; s < sessions; ++s) {
    auto client = server::SessionClient::Create(1000 + s, &org, ko,
                                                /*seed=*/900 + s);
    if (!client.ok()) {
      std::fprintf(stderr, "client %zu keygen failed: %s\n", s,
                   client.status().ToString().c_str());
      return 1;
    }
    load.clients.push_back(std::move(*client));

    std::vector<std::vector<wordnet::TermId>> pool(pool_size);
    for (auto& q : pool) {
      q = {indexed[rng.Uniform(indexed.size())],
           indexed[rng.Uniform(indexed.size())]};
    }
    std::vector<std::vector<uint8_t>> stream;
    stream.reserve(queries);
    for (size_t q = 0; q < queries; ++q) {
      auto frame = load.clients.back().QueryFrame(pool[zipf.Sample(&rng)]);
      if (!frame.ok()) {
        std::fprintf(stderr, "query formulation failed: %s\n",
                     frame.status().ToString().c_str());
        return 1;
      }
      stream.push_back(std::move(*frame));
    }
    load.total_requests += stream.size();
    load.frames.push_back(std::move(stream));
  }

  auto make_server = [&](ThreadPool* pool) {
    auto srv = std::make_unique<server::EmbellishServer>(
        &fixture.built.index, &org, nullptr,
        server::EmbellishServerOptions{}, pool);
    for (server::SessionClient& c : load.clients) {
      srv->HandleFrame(c.HelloFrame());
    }
    return srv;
  };

  std::vector<PathResult> results;

  // --- serial: per-request dispatch. ---
  {
    auto srv = make_server(nullptr);
    PathResult r{.label = "serial"};
    Stopwatch sw;
    for (size_t q = 0; q < queries; ++q) {
      for (size_t s = 0; s < sessions; ++s) {
        r.responses.push_back(srv->HandleFrame(load.frames[s][q]));
      }
    }
    r.ms = sw.ElapsedMillis();
    results.push_back(std::move(r));
  }

  // --- batched: HandleBatch over the pool. ---
  {
    ThreadPool pool(threads);
    auto srv = make_server(&pool);
    PathResult r{.label = "batched"};
    Stopwatch sw;
    for (size_t q = 0; q < queries; ++q) {
      std::vector<std::vector<uint8_t>> batch;
      batch.reserve(sessions);
      for (size_t s = 0; s < sessions; ++s) batch.push_back(load.frames[s][q]);
      auto responses = srv->HandleBatch(batch);
      for (auto& resp : responses) r.responses.push_back(std::move(resp));
    }
    r.ms = sw.ElapsedMillis();
    results.push_back(std::move(r));
  }

  // --- Correctness: all paths answered identical bytes identically. ---
  bool identical = true;
  for (const PathResult& r : results) {
    if (r.responses != results[0].responses) identical = false;
  }
  size_t ok_responses = 0;
  for (size_t i = 0; i < results[0].responses.size(); ++i) {
    auto frame = server::DecodeFrame(results[0].responses[i]);
    if (frame.ok() && frame->kind == server::FrameKind::kResult) {
      ++ok_responses;
    }
  }

  const double serial_ms = results[0].ms;
  std::vector<std::vector<std::string>> table;
  for (PathResult& r : results) {
    r.qps = 1000.0 * static_cast<double>(load.total_requests) / r.ms;
    r.speedup = serial_ms / r.ms;
    table.push_back({r.label, StringPrintf("%.1f", r.ms),
                     StringPrintf("%.1f", r.qps),
                     StringPrintf("%.2fx", r.speedup)});
  }
  bench::PrintTable({"path", "total ms", "queries/s", "vs serial"}, table);
  std::printf("\n%zu requests/path, %zu answered kResult frames/path\n",
              load.total_requests, ok_responses);

  bench::ShapeCheck(identical, "all paths produce bit-identical responses");
  bench::ShapeCheck(ok_responses == load.total_requests,
                    "every request answered with a result frame");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_server_throughput\",\n"
               "  \"sessions\": %zu,\n"
               "  \"queries_per_session\": %zu,\n"
               "  \"distinct_per_session\": %zu,\n"
               "  \"key_bits\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"requests\": %zu,\n",
               sessions, queries, pool_size, key_bits, threads,
               load.total_requests);
  bench::WriteRunInfo(f, EMBELLISH_BUILD_TYPE);
  std::fprintf(f, "  \"paths\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const PathResult& r = results[i];
    std::fprintf(f,
                 "    {\"path\": \"%s\", \"ms\": %.2f, \"qps\": %.2f, "
                 "\"speedup_vs_serial\": %.3f}%s\n",
                 r.label.c_str(), r.ms, r.qps, r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  // Exit status reflects correctness only: wall clock is reported, not
  // checked, so a noisy shared runner cannot fail CI on it.
  return identical && ok_responses == load.total_requests ? 0 : 1;
}
