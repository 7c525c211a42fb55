// Sharded retrieval engine scaling under contention: Algorithm 4 (PR)
// query processing over a document-partitioned index, swept over a
// concurrent-sessions × shard-count matrix, serial vs executor-pooled
// shard fan-out.
//
// The sessions axis is what exercises the work-stealing executor: S caller
// threads each fan their own query's shards out as nested regions on ONE
// shared pool (the batch×shard composition the server runs). The single-job
// pool this bench used to measure collapsed here — concurrent callers lost
// the pool and ran inline after burning wake-up and handoff costs
// (0.318x at 8 shards in the PR 3 numbers).
//
// Every configuration processes byte-identical embellished queries and must
// produce byte-identical encrypted results to the monolithic engine —
// checked every run; sharding and pooling are allowed to change only the
// clock. Emits BENCH_shards.json for the perf trajectory.
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_TERMS     lexicon size                  (default 2000)
//   EMBELLISH_BENCH_DOCS      corpus documents              (default 300)
//   EMBELLISH_BENCH_KEYLEN    Benaloh modulus bits          (default 256)
//   EMBELLISH_BENCH_QUERIES   queries per session           (default 12)
//   EMBELLISH_BENCH_THREADS   shared executor width         (default 4)
//   EMBELLISH_BENCH_SESSIONS  max concurrent sessions       (default 4)
//   EMBELLISH_BENCH_REPEATS   timed repeats per config, min (default 5)
//   EMBELLISH_BENCH_JSON      output path       (default BENCH_shards.json)

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace embellish;

struct ConfigResult {
  size_t shards = 1;
  size_t sessions = 1;
  std::string mode;
  double ms = 0;
  double qps = 0;
  double speedup = 1.0;  // vs serial 1-shard at the same session count
};

}  // namespace

int main() {
  const size_t terms = bench::EnvSize("EMBELLISH_BENCH_TERMS", 2000);
  const size_t docs = bench::EnvSize("EMBELLISH_BENCH_DOCS", 300);
  const size_t key_bits = bench::EnvSize("EMBELLISH_BENCH_KEYLEN", 256);
  const size_t num_queries = bench::EnvSize("EMBELLISH_BENCH_QUERIES", 12);
  const size_t threads = bench::EnvSize("EMBELLISH_BENCH_THREADS", 4);
  const size_t max_sessions = bench::EnvSize("EMBELLISH_BENCH_SESSIONS", 4);
  const size_t repeats = bench::EnvSize("EMBELLISH_BENCH_REPEATS", 5);
  const char* json_path_env = std::getenv("EMBELLISH_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0')
          ? json_path_env
          : "BENCH_shards.json";

  std::printf("== Sharded PR engine scaling: %zu queries/session, KeyLen "
              "%zu, executor width %zu ==\n\n",
              num_queries, key_bits, threads);

  bench::RetrievalFixture fixture = bench::RetrievalFixture::Build(terms, docs);
  core::BucketOrganization org = fixture.Buckets(/*bktsz=*/4);
  storage::StorageLayout layout = storage::StorageLayout::Build(
      fixture.built.index, org.buckets(),
      storage::LayoutPolicy::kBucketColocated, {});

  Rng rng(2027);
  crypto::BenalohKeyOptions ko;
  ko.key_bits = key_bits;
  ko.r = 59049;
  auto keys = crypto::BenalohKeyPair::Generate(ko, &rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 keys.status().ToString().c_str());
    return 1;
  }
  core::PrivateRetrievalClient client(&org, &keys->public_key(),
                                      &keys->private_key());

  // Embellished queries formulated once; every configuration (and every
  // concurrent session) replays the identical inputs.
  std::vector<core::EmbellishedQuery> queries;
  for (auto& q : fixture.RandomQueries(num_queries, /*query_size=*/2, &rng)) {
    auto formulated = client.FormulateQuery(q, &rng, nullptr);
    if (!formulated.ok()) {
      std::fprintf(stderr, "formulation failed: %s\n",
                   formulated.status().ToString().c_str());
      return 1;
    }
    queries.push_back(std::move(*formulated));
  }

  // Monolithic reference results (encoded bytes).
  core::PrivateRetrievalServer mono(&fixture.built.index, &org, &layout);
  std::vector<std::vector<uint8_t>> reference;
  double mono_ms = 0;
  {
    Stopwatch sw;
    for (const auto& q : queries) {
      auto result = mono.Process(q, keys->public_key(), nullptr);
      if (!result.ok()) {
        std::fprintf(stderr, "monolithic processing failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      reference.push_back(core::EncodeResult(*result, keys->public_key()));
    }
    mono_ms = sw.ElapsedMillis();
  }

  ThreadPool pool(threads);
  std::vector<ConfigResult> results;
  std::atomic<bool> identical{true};

  std::vector<size_t> session_counts{1};
  if (max_sessions > 1) session_counts.push_back(max_sessions);

  // Sharded engines built once per configuration, reused across sweeps.
  struct Config {
    size_t shards;
    size_t sessions;
    bool pooled;
    const core::ShardedPrivateRetrievalServer* server;
  };
  std::vector<std::unique_ptr<index::ShardedIndex>> sharded_indexes;
  std::vector<std::vector<storage::StorageLayout>> all_layouts;
  std::vector<std::unique_ptr<core::ShardedPrivateRetrievalServer>> servers;
  std::vector<Config> configs;
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    index::ShardingOptions so;
    so.shard_count = shards;
    auto sharded = index::ShardedIndex::Build(fixture.built.index, so);
    if (!sharded.ok()) {
      std::fprintf(stderr, "sharding failed: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    sharded_indexes.push_back(
        std::make_unique<index::ShardedIndex>(std::move(*sharded)));
    all_layouts.push_back(core::BuildShardLayouts(
        *sharded_indexes.back(), org,
        storage::LayoutPolicy::kBucketColocated, {}));
    for (bool pooled : {false, true}) {
      servers.push_back(
          std::make_unique<core::ShardedPrivateRetrievalServer>(
              sharded_indexes.back().get(), &org, &all_layouts.back(),
              storage::DiskModelOptions{},
              core::PrivateRetrievalServerOptions{},
              pooled ? &pool : nullptr));
      for (size_t sessions : session_counts) {
        configs.push_back(
            Config{shards, sessions, pooled, servers.back().get()});
      }
    }
  }

  // Best-of-N taken over whole-matrix sweeps, not back-to-back repeats of
  // one configuration: a scheduler hiccup or frequency dip on a narrow box
  // spans milliseconds, so consecutive repeats of a sub-millisecond config
  // all absorb it — interleaving the repeats across the matrix means noise
  // has to recur at the same point of every sweep to survive the minimum.
  std::vector<double> best_ms(configs.size(), 0);
  for (size_t rep = 0; rep < std::max<size_t>(1, repeats); ++rep) {
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const Config& cfg = configs[ci];
      // Each session replays the full query stream against the shared
      // engine; in pooled mode the sessions' shard regions contend for
      // (and steal from) the one executor concurrently.
      auto run_session = [&]() {
        for (size_t i = 0; i < queries.size(); ++i) {
          auto result =
              cfg.server->Process(queries[i], keys->public_key(), nullptr);
          if (!result.ok()) {
            std::fprintf(stderr,
                         "sharded processing failed (sessions=%zu shards=%zu "
                         "%s): %s\n",
                         cfg.sessions, cfg.shards,
                         cfg.pooled ? "pooled" : "serial",
                         result.status().ToString().c_str());
            identical.store(false, std::memory_order_relaxed);
            continue;
          }
          if (core::EncodeResult(*result, keys->public_key()) !=
              reference[i]) {
            std::fprintf(stderr,
                         "bit-identity violated (sessions=%zu shards=%zu %s "
                         "query=%zu)\n",
                         cfg.sessions, cfg.shards,
                         cfg.pooled ? "pooled" : "serial", i);
            identical.store(false, std::memory_order_relaxed);
          }
        }
      };
      Stopwatch sw;
      if (cfg.sessions == 1) {
        run_session();
      } else {
        std::vector<std::thread> callers;
        for (size_t s = 0; s < cfg.sessions; ++s) {
          callers.emplace_back(run_session);
        }
        for (auto& t : callers) t.join();
      }
      const double ms = sw.ElapsedMillis();
      if (rep == 0 || ms < best_ms[ci]) best_ms[ci] = ms;
    }
  }

  // Assemble results in (sessions, shards, mode) display order.
  for (size_t sessions : session_counts) {
    double serial_1shard_ms = 0;
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      for (bool pooled : {false, true}) {
        size_t ci = 0;
        while (ci < configs.size() &&
               !(configs[ci].shards == shards &&
                 configs[ci].sessions == sessions &&
                 configs[ci].pooled == pooled)) {
          ++ci;
        }
        if (ci == configs.size()) {  // enumeration orders diverged: a bug
          std::fprintf(stderr,
                       "config (sessions=%zu shards=%zu pooled=%d) missing "
                       "from sweep\n",
                       sessions, shards, pooled ? 1 : 0);
          return 1;
        }
        ConfigResult r;
        r.shards = shards;
        r.sessions = sessions;
        r.mode = pooled ? "pooled" : "serial";
        r.ms = best_ms[ci];
        r.qps = 1000.0 *
                static_cast<double>(sessions * queries.size()) / r.ms;
        if (shards == 1 && !pooled) serial_1shard_ms = r.ms;
        r.speedup = serial_1shard_ms > 0 ? serial_1shard_ms / r.ms : 1.0;
        results.push_back(std::move(r));
      }
    }
  }

  std::vector<std::vector<std::string>> table;
  for (const ConfigResult& r : results) {
    table.push_back({std::to_string(r.sessions), std::to_string(r.shards),
                     r.mode, StringPrintf("%.1f", r.ms),
                     StringPrintf("%.1f", r.qps),
                     StringPrintf("%.2fx", r.speedup)});
  }
  bench::PrintTable(
      {"sessions", "shards", "mode", "total ms", "queries/s", "vs serial 1s"},
      table);
  std::printf("\nmonolithic engine: %.1f ms (%zu queries, 1 session)\n",
              mono_ms, queries.size());

  bench::ShapeCheck(identical.load(),
                    "every configuration produces bit-identical encrypted "
                    "results to the monolithic engine, under concurrent "
                    "sessions included");
  // The executor criterion: pooled fan-out must not collapse below serial
  // at any point of the matrix (the single-job pool sat at 0.318x on the
  // 8-shard single-session row and 0.916x-style losses under batching).
  double worst_pooled_vs_serial = 1e9;
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const ConfigResult& serial = results[i];
    const ConfigResult& pooled = results[i + 1];
    worst_pooled_vs_serial =
        std::min(worst_pooled_vs_serial, serial.ms / pooled.ms);
  }
  // The acceptance bar is hardware-dependent: with >= 2 cores the executor
  // has real parallelism to deliver, so pooled must be at least at parity
  // with serial (0.95 leaves measurement noise only); on a 1-core box
  // parallelism cannot exist and the floor is the absence of the old
  // 0.318x single-job collapse (0.85 = noise + region bookkeeping).
  const size_t hw = std::thread::hardware_concurrency();
  const double floor = hw >= 2 ? 0.95 : 0.85;
  bench::ShapeCheck(
      worst_pooled_vs_serial >= floor,
      hw >= 2 ? "pooled fan-out at parity or better with serial at every "
                "(sessions, shards) point (multi-core: nested regions must "
                "deliver, not collapse)"
              : "pooled fan-out within 15% of serial at every (sessions, "
                "shards) point (1-core: margin is scheduler noise plus "
                "region bookkeeping; the floor that matters is the absence "
                "of the old 0.318x single-job collapse)");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_shard_scaling\",\n"
               "  \"queries\": %zu,\n"
               "  \"key_bits\": %zu,\n"
               "  \"pool_threads\": %zu,\n"
               "  \"monolithic_ms\": %.2f,\n"
               "  \"worst_pooled_vs_serial\": %.3f,\n",
               queries.size(), key_bits, threads, mono_ms,
               worst_pooled_vs_serial);
  bench::WriteRunInfo(f, EMBELLISH_BUILD_TYPE);
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"sessions\": %zu, \"mode\": \"%s\", "
                 "\"ms\": %.2f, \"qps\": %.2f, "
                 "\"speedup_vs_serial_1shard\": %.3f}%s\n",
                 r.shards, r.sessions, r.mode.c_str(), r.ms, r.qps, r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  // Exit status reflects correctness only (bit-identical results); the
  // speedup shape-checks are informational so a noisy or 1-core runner
  // cannot fail CI on wall clock.
  return identical.load() ? 0 : 1;
}
