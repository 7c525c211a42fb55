// Remote-shard coordinator throughput: the same framed request stream
// answered by (a) the monolithic EmbellishServer, (b) the in-process
// sharded EmbellishServer, and (c) a ShardCoordinator fanning out to slice
// servers over InProcessTransports, at 1/2/4/8 shards.
//
// Bit-identity is asserted every run (like fig_shard_scaling): every
// response frame from (b) and (c) must equal (a)'s bytes for the PR,
// PIR and plaintext top-k paths — the coordinator is allowed to change
// only the clock. Emits BENCH_coordinator.json.
//
// The in-process coordinator submits each request's shard round trips
// through InProcessTransport, which completes them inline: the shards of
// one request run one after another on the calling thread. The final
// section repeats the stream at 8 shards over loopback TCP through
// MultiplexedTransports, where all of a request's round trips are in
// flight at once and no thread parks on a socket.
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_TERMS    lexicon size                  (default 2000)
//   EMBELLISH_BENCH_DOCS     corpus documents              (default 300)
//   EMBELLISH_BENCH_KEYLEN   Benaloh modulus bits          (default 256)
//   EMBELLISH_BENCH_QUERIES  queries per configuration     (default 12)
//   EMBELLISH_BENCH_THREADS  executor width                (default 4)
//   EMBELLISH_BENCH_JSON     output path  (default BENCH_coordinator.json)

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/event_loop.h"
#include "server/multiplexed_transport.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"

namespace {

using namespace embellish;

struct ConfigResult {
  size_t shards = 1;
  std::string mode;  // "sharded" (in-process) or "coordinator"
  double ms = 0;
  double qps = 0;
};

// The coordinator over MultiplexedTransports to loopback slice servers.
struct ModeResult {
  std::string mode;
  double ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  /// Summed in-flight round-trip time over wall-clock: ~1 means the shard
  /// trips ran sequentially, ~N means N were genuinely in flight at once.
  double overlap = 0;
  uint64_t blocking_io_trips = 0;
  uint64_t async_io_trips = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

}  // namespace

int main() {
  const size_t terms = bench::EnvSize("EMBELLISH_BENCH_TERMS", 2000);
  const size_t docs = bench::EnvSize("EMBELLISH_BENCH_DOCS", 300);
  const size_t key_bits = bench::EnvSize("EMBELLISH_BENCH_KEYLEN", 256);
  const size_t num_queries = bench::EnvSize("EMBELLISH_BENCH_QUERIES", 12);
  const size_t threads = bench::EnvSize("EMBELLISH_BENCH_THREADS", 4);
  const char* json_path_env = std::getenv("EMBELLISH_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0')
          ? json_path_env
          : "BENCH_coordinator.json";

  std::printf("== Remote-shard coordinator: %zu queries per path, KeyLen %zu "
              "==\n\n", num_queries, key_bits);

  bench::RetrievalFixture fixture = bench::RetrievalFixture::Build(terms, docs);
  core::BucketOrganization org = fixture.Buckets(/*bktsz=*/4);

  // One session speaking the framed protocol; its uplink bytes are reused
  // verbatim against every server configuration.
  crypto::BenalohKeyOptions ko;
  ko.key_bits = key_bits;
  ko.r = 59049;
  auto client = server::SessionClient::Create(1, &org, ko, /*seed=*/2028);
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    return 1;
  }

  Rng rng(2029);
  std::vector<std::vector<uint8_t>> requests;
  requests.push_back(client->HelloFrame());
  for (auto& q : fixture.RandomQueries(num_queries, /*query_size=*/2, &rng)) {
    auto pr = client->QueryFrame(q);
    if (!pr.ok()) {
      std::fprintf(stderr, "query: %s\n", pr.status().ToString().c_str());
      return 1;
    }
    requests.push_back(std::move(*pr));
    requests.push_back(server::EncodeFrame(server::FrameKind::kTopKQuery, 1,
                                           server::EncodeTopKQuery(10, q)));
  }
  // One PIR execution per run, addressed to shard 0 so the same bytes are
  // valid on every configuration (shard 0's field == the plain bucket).
  auto pir_slot = org.Locate(fixture.built.index.IndexedTerms()[11]);
  if (!pir_slot.ok()) return 1;
  auto pir_client = crypto::PirClient::Create(key_bits, &rng);
  if (!pir_client.ok()) return 1;
  auto pir_query = pir_client->BuildQuery(
      pir_slot->slot, org.bucket(pir_slot->bucket).size(), &rng);
  if (!pir_query.ok()) return 1;
  requests.push_back(server::EncodeFrame(
      server::FrameKind::kPirQuery, 1,
      server::EncodePirQuery(pir_slot->bucket, *pir_query)));

  // Monolithic reference responses. Caches off everywhere: this measures
  // the answer path, not the cache.
  server::EmbellishServerOptions base;
  base.cache_capacity = 0;
  server::EmbellishServer mono(&fixture.built.index, &org, nullptr, base);
  std::vector<std::vector<uint8_t>> reference;
  double mono_ms = 0;
  {
    Stopwatch sw;
    for (const auto& request : requests) {
      reference.push_back(mono.HandleFrame(request));
    }
    mono_ms = sw.ElapsedMillis();
  }

  std::vector<ConfigResult> results;
  bool identical = true;

  // The PIR request addresses (shard 0, bucket): its answer is shard 0's
  // fragment, which legitimately depends on the shard count — so the PIR
  // frame is compared coordinator-vs-sharded per configuration, while the
  // PR and top-k frames must match the monolithic bytes everywhere.
  const size_t pir_index = requests.size() - 1;

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    // (b) In-process sharded server: the per-configuration reference.
    std::vector<std::vector<uint8_t>> shard_reference(requests.size());
    {
      server::EmbellishServerOptions options = base;
      options.shard_count = shards;
      server::EmbellishServer sharded(&fixture.built.index, &org, nullptr,
                                      options);
      ConfigResult r{shards, "sharded", 0, 0};
      Stopwatch sw;
      for (size_t i = 0; i < requests.size(); ++i) {
        shard_reference[i] = sharded.HandleFrame(requests[i]);
        // The hello-ok advertises the configuration's own topology; every
        // other frame except the shard-scoped PIR answer must match the
        // monolithic bytes.
        if (i > 0 && i != pir_index && shard_reference[i] != reference[i]) {
          identical = false;
        }
      }
      r.ms = sw.ElapsedMillis();
      r.qps = 1000.0 * static_cast<double>(requests.size() - 1) / r.ms;
      results.push_back(std::move(r));
    }

    // (c) Coordinator over slice servers behind in-process transports.
    {
      std::vector<std::unique_ptr<server::EmbellishServer>> slices;
      std::vector<std::unique_ptr<server::ShardEndpoint>> endpoints;
      std::vector<std::unique_ptr<server::InProcessTransport>> transports;
      std::vector<server::ShardTransport*> raw;
      for (size_t s = 0; s < shards; ++s) {
        server::EmbellishServerOptions options = base;
        options.shard_slice = s;
        options.shard_slice_count = shards;
        slices.push_back(std::make_unique<server::EmbellishServer>(
            &fixture.built.index, &org, nullptr, options));
        endpoints.push_back(std::make_unique<server::ShardEndpoint>(
            slices.back().get(), s));
        transports.push_back(std::make_unique<server::InProcessTransport>(
            endpoints.back().get()));
        raw.push_back(transports.back().get());
      }
      // Caches stay off so the answer path is what is measured.
      ThreadPool pool(threads);
      server::ShardCoordinator coordinator(raw, {}, &pool);
      if (!coordinator.Handshake().ok()) {
        std::fprintf(stderr, "handshake failed at %zu shards\n", shards);
        return 1;
      }
      ConfigResult r{shards, "coordinator", 0, 0};
      Stopwatch sw;
      for (size_t i = 0; i < requests.size(); ++i) {
        auto response = coordinator.HandleFrame(requests[i]);
        // Including the hello-ok and the PIR frame: the coordinator must be
        // byte-for-byte indistinguishable from the in-process sharded
        // server at the same shard count.
        if (response != shard_reference[i]) identical = false;
      }
      r.ms = sw.ElapsedMillis();
      r.qps = 1000.0 * static_cast<double>(requests.size() - 1) / r.ms;
      results.push_back(std::move(r));
    }
  }

  // --- One multiplexed connection per shard, at 8 shards over real
  // loopback TCP: each request submits all eight round trips and awaits —
  // blocking_io_trips must read 0, and the overlap column shows how many
  // round trips were genuinely in flight at once.
  const size_t mode_shards = 8;
  ModeResult mux;
  mux.mode = "tcp-multiplexed";
  {
    // Per-configuration reference at 8 shards (the hello-ok and the PIR
    // frame legitimately differ from the monolithic bytes).
    std::vector<std::vector<uint8_t>> shard_reference(requests.size());
    server::EmbellishServerOptions ref_options = base;
    ref_options.shard_count = mode_shards;
    server::EmbellishServer sharded(&fixture.built.index, &org, nullptr,
                                    ref_options);
    for (size_t i = 0; i < requests.size(); ++i) {
      shard_reference[i] = sharded.HandleFrame(requests[i]);
    }

    std::vector<std::unique_ptr<server::EmbellishServer>> slices;
    std::vector<std::unique_ptr<server::ShardEndpoint>> endpoints;
    std::vector<int> listen_fds;
    std::vector<uint16_t> ports;
    std::vector<std::thread> serve_threads;
    for (size_t s = 0; s < mode_shards; ++s) {
      server::EmbellishServerOptions options = base;
      options.shard_slice = s;
      options.shard_slice_count = mode_shards;
      slices.push_back(std::make_unique<server::EmbellishServer>(
          &fixture.built.index, &org, nullptr, options));
      endpoints.push_back(std::make_unique<server::ShardEndpoint>(
          slices.back().get(), s));
      uint16_t port = 0;
      auto listen_fd = server::ListenOnLoopback(&port);
      if (!listen_fd.ok()) {
        std::fprintf(stderr, "listen: %s\n",
                     listen_fd.status().ToString().c_str());
        return 1;
      }
      listen_fds.push_back(*listen_fd);
      ports.push_back(port);
      serve_threads.emplace_back([fd = *listen_fd,
                                  endpoint = endpoints.back().get()] {
        (void)server::ServeShardConnections(fd, endpoint);
      });
    }

    auto loop = server::EventLoop::Create();
    if (!loop.ok() || !(*loop)->Start().ok()) {
      std::fprintf(stderr, "event loop failed\n");
      return 1;
    }

    {
      std::vector<std::unique_ptr<server::MultiplexedTransport>> transports;
      std::vector<server::ShardTransport*> raw;
      for (size_t s = 0; s < mode_shards; ++s) {
        auto t = server::MultiplexedTransport::Connect("127.0.0.1", ports[s],
                                                       loop->get());
        if (!t.ok()) {
          std::fprintf(stderr, "connect: %s\n", t.status().ToString().c_str());
          return 1;
        }
        transports.push_back(std::move(*t));
        raw.push_back(transports.back().get());
      }
      ThreadPool pool(threads);
      server::ShardCoordinator coordinator(raw, {}, &pool);
      if (!coordinator.Handshake().ok()) {
        std::fprintf(stderr, "handshake failed (tcp-multiplexed)\n");
        return 1;
      }
      const server::CoordinatorStats before = coordinator.stats();
      std::vector<double> latencies;
      Stopwatch total;
      for (size_t i = 0; i < requests.size(); ++i) {
        Stopwatch one;
        auto response = coordinator.HandleFrame(requests[i]);
        latencies.push_back(one.ElapsedMillis());
        if (response != shard_reference[i]) identical = false;
      }
      mux.ms = total.ElapsedMillis();
      mux.p50_ms = Percentile(latencies, 0.50);
      mux.p95_ms = Percentile(latencies, 0.95);
      const server::CoordinatorStats after = coordinator.stats();
      mux.blocking_io_trips =
          after.blocking_io_trips - before.blocking_io_trips;
      mux.async_io_trips = after.async_io_trips - before.async_io_trips;
      mux.overlap = mux.ms > 0
                        ? static_cast<double>(after.trip_micros -
                                              before.trip_micros) /
                              (1000.0 * mux.ms)
                        : 0;
      // The transports drop here: the serve loops return to accept(), and
      // the event loop outlives them.
    }

    for (int fd : listen_fds) {
      shutdown(fd, SHUT_RDWR);
      close(fd);
    }
    for (auto& t : serve_threads) t.join();
    (*loop)->Stop();
  }

  std::vector<std::vector<std::string>> table;
  for (const ConfigResult& r : results) {
    table.push_back({std::to_string(r.shards), r.mode,
                     StringPrintf("%.1f", r.ms),
                     StringPrintf("%.1f", r.qps),
                     StringPrintf("%.2fx", mono_ms / r.ms)});
  }
  bench::PrintTable({"shards", "mode", "total ms", "frames/s", "vs mono"},
                    table);
  std::printf("\nmonolithic server: %.1f ms (%zu frames)\n", mono_ms,
              requests.size());

  const bool mux_unblocked = mux.blocking_io_trips == 0;
  std::printf("\n-- coordinator at %zu shards over loopback TCP --\n",
              mode_shards);
  bench::PrintTable({"mode", "total ms", "p50 ms", "p95 ms", "overlap",
                     "blocking trips", "async trips"},
                    {{mux.mode, StringPrintf("%.1f", mux.ms),
                      StringPrintf("%.2f", mux.p50_ms),
                      StringPrintf("%.2f", mux.p95_ms),
                      StringPrintf("%.2fx", mux.overlap),
                      std::to_string(mux.blocking_io_trips),
                      std::to_string(mux.async_io_trips)}});

  bench::ShapeCheck(identical,
                    "every sharded and coordinator response frame is "
                    "bit-identical to the monolithic server's (PR, PIR and "
                    "top-k paths) — including over multiplexed TCP");
  bench::ShapeCheck(mux_unblocked,
                    "the multiplexed mode parked zero executor workers on "
                    "transport I/O (blocking_io_trips == 0)");

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"fig_coordinator\",\n"
               "  \"queries\": %zu,\n"
               "  \"key_bits\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"monolithic_ms\": %.2f,\n"
               "  \"bit_identical\": %s,\n"
               "  \"configs\": [\n",
               num_queries, key_bits, std::thread::hardware_concurrency(),
               mono_ms, identical ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"mode\": \"%s\", \"ms\": %.2f, "
                 "\"fps\": %.2f}%s\n",
                 r.shards, r.mode.c_str(), r.ms, r.qps,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"fanout_modes\": [\n"
               "    {\"mode\": \"%s\", \"shards\": %zu, \"ms\": %.2f, "
               "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"overlap\": %.2f, "
               "\"blocking_io_trips\": %llu, \"async_io_trips\": %llu}\n"
               "  ]\n}\n",
               mux.mode.c_str(), mode_shards, mux.ms, mux.p50_ms, mux.p95_ms,
               mux.overlap,
               static_cast<unsigned long long>(mux.blocking_io_trips),
               static_cast<unsigned long long>(mux.async_io_trips));
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  // Exit status reflects correctness only (bit-identity and the
  // no-blocked-workers invariant); wall-clock shape is informational so a
  // noisy 1-core runner cannot fail CI.
  return identical && mux_unblocked ? 0 : 1;
}
