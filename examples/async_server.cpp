// Async deployment walkthrough: the whole client-to-shard path with no
// thread ever blocked on a socket.
//
//   1. build the shared substrate (lexicon, buckets, corpus, index) and
//      freeze the index in a catalog partitioned into the slices;
//   2. fork one shard-slice process per slice, each serving frames on an
//      inherited loopback listener (classic blocking serve loop — the
//      children model remote machines we don't control);
//   3. the parent starts ONE EventLoop and connects a MultiplexedTransport
//      per slice — a single non-blocking socket each, correlated by
//      (epoch, seq) — then handshakes a ShardCoordinator over them;
//   4. coordinator.ServeAsync() puts an AsyncFrontEnd on the same loop:
//      client frames arrive via epoll, dispatch workers run the fan-out,
//      and every shard trip is submit-and-await on the loop thread;
//   5. a plain blocking TCP client talks to the front end and the response
//      bytes are compared against a local monolithic server — identical —
//      and the coordinator must report blocking_io_trips == 0;
//   6. one slice is killed mid-run: the PR fan-out answers with a typed
//      kDegradedResult naming the missing slice, and PIR to a surviving
//      slice still answers — all still without a blocking shard trip;
//   7. teardown in dependency order: client, front end, transports,
//      children, loop.

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "embellish.h"

using namespace embellish;

namespace {

constexpr size_t kShards = 3;

int RunShardProcess(int listen_fd, size_t shard,
                    index::IndexCatalog* catalog) {
  server::EmbellishServerOptions options;
  options.shard_slice = shard;
  options.shard_slice_count = kShards;
  server::EmbellishServer slice(catalog, options);
  server::ShardEndpoint endpoint(&slice, shard);
  (void)server::ServeShardConnections(listen_fd, &endpoint);
  return 0;
}

// A deliberately ordinary client: blocking socket, framed write, framed
// read. Everything asynchronous lives on the server side of this socket.
std::vector<uint8_t> RoundTripFrame(int fd, const std::vector<uint8_t>& frame) {
  if (!server::WriteAll(fd, frame.data(), frame.size(),
                        server::MonotonicMillis() + 5000)
           .ok()) {
    return {};
  }
  auto response = server::ReadFrameFd(fd, server::kMaxTransportFrameBytes,
                                      server::MonotonicMillis() + 30000);
  return response.ok() ? *std::move(response) : std::vector<uint8_t>{};
}

}  // namespace

int main() {
  // ---- 1. Shared substrate (deterministic, so every process agrees) ----
  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = 2000;
  wo.seed = 42;
  auto lexicon = wordnet::GenerateSyntheticWordNet(wo);
  if (!lexicon.ok()) return 1;
  auto specificity = core::SpecificityMap::FromHypernymDepth(*lexicon);
  auto sequences = core::SequenceDictionary(*lexicon);
  core::BucketizerOptions bo;
  bo.bucket_size = 4;
  bo.segment_size = 64;
  auto buckets = core::FormBuckets(sequences, specificity, bo);
  if (!buckets.ok()) return 1;
  corpus::SyntheticCorpusOptions co;
  co.num_docs = 300;
  co.seed = 43;
  auto corp = corpus::GenerateSyntheticCorpus(*lexicon, co);
  if (!corp.ok()) return 1;
  auto built = index::BuildIndex(*corp, {});
  if (!built.ok()) return 1;
  std::printf("substrate: %zu terms, %zu buckets, %zu docs\n",
              lexicon->term_count(), buckets->bucket_count(),
              corp->document_count());
  // Frozen before the fork: every child serves its slice of this catalog,
  // and the parent's monolithic reference serves the whole of it.
  index::IndexCatalogOptions catalog_options;
  catalog_options.sharding.shard_count = kShards;
  catalog_options.build_layouts = false;
  auto catalog =
      index::IndexCatalog::Freeze(&built->index, &*buckets, catalog_options);
  if (!catalog.ok()) return 1;

  // ---- 2. One listener + one forked process per slice ----
  std::vector<pid_t> children(kShards, -1);
  std::vector<uint16_t> ports(kShards, 0);
  for (size_t s = 0; s < kShards; ++s) {
    uint16_t port = 0;
    auto listen_fd = server::ListenOnLoopback(&port);
    if (!listen_fd.ok()) {
      std::fprintf(stderr, "listen: %s\n",
                   listen_fd.status().ToString().c_str());
      return 1;
    }
    pid_t pid = fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      _exit(RunShardProcess(*listen_fd, s, catalog->get()));
    }
    close(*listen_fd);  // the child owns its listener now
    children[s] = pid;
    ports[s] = port;
    std::printf("slice %zu: pid %d serving 127.0.0.1:%u\n", s, pid, port);
  }
  auto reap = [&](size_t s) {
    kill(children[s], SIGKILL);
    waitpid(children[s], nullptr, 0);
    children[s] = -1;
  };

  // ---- 3. One event loop, one multiplexed connection per slice ----
  auto loop = server::EventLoop::Create();
  if (!loop.ok() || !(*loop)->Start().ok()) {
    std::fprintf(stderr, "event loop failed to start\n");
    return 1;
  }
  bool identical = true;
  {
    std::vector<std::unique_ptr<server::MultiplexedTransport>> transports;
    std::vector<server::ShardTransport*> raw;
    for (size_t s = 0; s < kShards; ++s) {
      auto transport = server::MultiplexedTransport::Connect(
          "127.0.0.1", ports[s], loop->get());
      if (!transport.ok()) {
        std::fprintf(stderr, "connect slice %zu: %s\n", s,
                     transport.status().ToString().c_str());
        return 1;
      }
      transports.push_back(std::move(*transport));
      raw.push_back(transports.back().get());
    }
    server::ShardCoordinatorOptions copts;
    copts.allow_partial_results = true;  // a lost slice degrades, not darkens
    server::ShardCoordinator coordinator(raw, copts);
    Status handshake = coordinator.Handshake();
    if (!handshake.ok()) {
      std::fprintf(stderr, "handshake: %s\n", handshake.ToString().c_str());
      return 1;
    }
    std::printf("coordinator: %zu slices handshaken over multiplexed "
                "sockets, %zu buckets advertised\n",
                coordinator.shard_count(), coordinator.bucket_count());

    // ---- 4. The async front end, on the same loop as the transports ----
    uint16_t front_port = 0;
    auto front_listen = server::ListenOnLoopback(&front_port);
    if (!front_listen.ok()) return 1;
    auto front_end = coordinator.ServeAsync(*front_listen, loop->get());
    if (!front_end.ok()) {
      std::fprintf(stderr, "ServeAsync: %s\n",
                   front_end.status().ToString().c_str());
      return 1;
    }
    std::printf("async front end on 127.0.0.1:%u\n", front_port);

    // ---- 5. A blocking TCP client, checked against a local monolithic
    //         server ----
    server::EmbellishServer mono(catalog->get());
    crypto::BenalohKeyOptions ko;
    ko.key_bits = 256;
    auto session = server::SessionClient::Create(7, &*buckets, ko, /*seed=*/9);
    if (!session.ok()) return 1;
    mono.HandleFrame(session->HelloFrame());

    auto client_fd = server::ConnectWithDeadline("127.0.0.1", front_port, 5000);
    if (!client_fd.ok() || !server::SetBlocking(*client_fd).ok()) {
      std::fprintf(stderr, "client connect failed\n");
      return 1;
    }
    auto hello_frame =
        server::DecodeFrame(RoundTripFrame(*client_fd, session->HelloFrame()));
    if (!hello_frame.ok() ||
        hello_frame->kind != server::FrameKind::kHelloOk) {
      std::fprintf(stderr, "hello through the front end failed\n");
      return 1;
    }

    auto terms = built->index.IndexedTerms();
    std::vector<wordnet::TermId> genuine{terms[10], terms[25]};

    auto pr_request = session->QueryFrame(genuine);
    if (!pr_request.ok()) return 1;
    auto pr_reference = mono.HandleFrame(*pr_request);
    auto pr_remote = RoundTripFrame(*client_fd, *pr_request);
    identical = identical && pr_remote == pr_reference;
    auto top = session->DecodeResultFrame(pr_remote, /*k=*/5);
    if (top.ok() && !top->empty()) {
      std::printf("PR through the async front end: top doc %u (score %llu)\n",
                  (*top)[0].doc,
                  static_cast<unsigned long long>((*top)[0].score));
    }

    auto topk_request = server::EncodeFrame(
        server::FrameKind::kTopKQuery, 7, server::EncodeTopKQuery(5, genuine));
    auto topk_reference = mono.HandleFrame(topk_request);
    identical =
        identical && RoundTripFrame(*client_fd, topk_request) == topk_reference;

    Rng rng(11);
    auto slot = buckets->Locate(terms[10]);
    auto pir_client = crypto::PirClient::Create(256, &rng);
    if (!slot.ok() || !pir_client.ok()) return 1;
    auto pir_query = pir_client->BuildQuery(
        slot->slot, buckets->bucket(slot->bucket).size(), &rng);
    if (!pir_query.ok()) return 1;
    auto pir_request = [&](size_t shard) {
      return server::EncodeFrame(
          server::FrameKind::kPirQuery, 7,
          server::EncodePirQuery(
              coordinator.PirBucketField(shard, slot->bucket), *pir_query));
    };
    auto pir_resp =
        server::DecodeFrame(RoundTripFrame(*client_fd, pir_request(0)));

    auto mid = coordinator.stats();
    std::printf(
        "byte-identity vs local monolithic server: %s; PIR(slice 0): %s; "
        "shard trips: %llu async, %llu blocking\n",
        identical ? "PASS" : "FAIL",
        pir_resp.ok() && pir_resp->kind == server::FrameKind::kPirResult
            ? "answered"
            : "failed",
        static_cast<unsigned long long>(mid.async_io_trips),
        static_cast<unsigned long long>(mid.blocking_io_trips));
    // The acceptance invariant of this deployment shape: with every shard
    // behind a multiplexed transport, no fan-out ever blocks on a socket.
    if (mid.blocking_io_trips != 0 || mid.async_io_trips == 0) {
      std::fprintf(stderr, "expected a fully async shard path\n");
      identical = false;
    }

    // ---- 6. Kill slice 1: typed degraded answer, survivors unaffected ----
    reap(1);
    auto degraded_frame =
        server::DecodeFrame(RoundTripFrame(*client_fd, *pr_request));
    bool degraded_ok = false;
    if (degraded_frame.ok() &&
        degraded_frame->kind == server::FrameKind::kDegradedResult) {
      auto partial = server::DecodeDegradedResult(degraded_frame->payload);
      if (partial.ok() && partial->missing.size() == 1) {
        degraded_ok = true;
        std::printf("slice 1 killed -> kDegradedResult, merged without "
                    "slice %u\n", partial->missing[0]);
      }
    }
    if (!degraded_ok) {
      std::fprintf(stderr, "expected a typed degraded result\n");
      identical = false;
    }
    auto survivor =
        server::DecodeFrame(RoundTripFrame(*client_fd, pir_request(2)));
    std::printf("PIR to surviving slice 2: %s\n",
                survivor.ok() &&
                        survivor->kind == server::FrameKind::kPirResult
                    ? "still answered"
                    : "failed");

    // ---- 7. Teardown in dependency order ----
    close(*client_fd);
    auto fstats = (*front_end)->stats();
    (*front_end)->Shutdown();
    auto stats = coordinator.stats();
    if (stats.blocking_io_trips != 0) identical = false;
    std::printf(
        "front end: %llu connections, %llu frames in, %llu frames out\n",
        static_cast<unsigned long long>(fstats.connections_accepted),
        static_cast<unsigned long long>(fstats.frames_in),
        static_cast<unsigned long long>(fstats.responses_out));
    std::printf(
        "coordinator: %llu frames, %llu shard trips (%llu async, %llu "
        "blocking), %llu shard failures, %llu degraded, %llu errors\n",
        static_cast<unsigned long long>(stats.frames),
        static_cast<unsigned long long>(stats.shard_trips),
        static_cast<unsigned long long>(stats.async_io_trips),
        static_cast<unsigned long long>(stats.blocking_io_trips),
        static_cast<unsigned long long>(stats.shard_failures),
        static_cast<unsigned long long>(stats.degraded_answers),
        static_cast<unsigned long long>(stats.errors));
    // Transports and the front end die with this scope — before the
    // children are reaped and the loop is stopped.
  }
  for (size_t s = 0; s < kShards; ++s) {
    if (children[s] >= 0) reap(s);
  }
  (*loop)->Stop();
  return identical ? 0 : 1;
}
