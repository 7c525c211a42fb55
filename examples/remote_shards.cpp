// Remote shards walkthrough: one coordinator process, N shard slices with R
// replicas each, loopback TCP — the replicated deployment the
// ShardCoordinator exists for.
//
//   1. build the shared substrate (lexicon, buckets, corpus, index);
//   2. bind one loopback listener per (slice, replica), then fork N*R
//      children; each child stands up an EmbellishServer in slice mode
//      (shard_slice = s) and serves frames on its inherited listener —
//      replicas of a slice are byte-identical by construction;
//   3. the parent starts one EventLoop, connects a MultiplexedTransport per
//      replica on it, groups them per slice, and handshakes a
//      ShardCoordinator (liveness + topology discovery + epoch fencing)
//      with bounded retry and partial-result mode enabled;
//   4. a session registers and runs PR, plaintext top-k and PIR queries
//      through the coordinator — and the response bytes are compared
//      against a local monolithic server (they must be identical);
//   5. one replica of every slice is killed mid-run: the coordinator fails
//      over to the survivors and keeps answering bit-identically;
//   6. the remaining replica of one slice is killed too — the whole group
//      is down, so the PR fan-out answers with a typed kDegradedResult
//      naming the missing slice, and a PIR request addressed to a
//      surviving slice still answers;
//   7. the children are reaped and the accounting printed.

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "embellish.h"

using namespace embellish;

namespace {

constexpr size_t kShards = 3;
constexpr size_t kReplicas = 2;

int RunShardProcess(int listen_fd, size_t shard,
                    const index::InvertedIndex& index,
                    const core::BucketOrganization& buckets) {
  server::EmbellishServerOptions options;
  options.shard_slice = shard;
  options.shard_slice_count = kShards;
  server::EmbellishServer slice(&index, &buckets, nullptr, options);
  server::ShardEndpoint endpoint(&slice, shard);
  (void)server::ServeShardConnections(listen_fd, &endpoint);
  return 0;
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

  // ---- 2. One listener + one forked process per (slice, replica) ----
  // children[s * kReplicas + r] serves replica r of slice s.
  std::vector<pid_t> children(kShards * kReplicas, -1);
  std::vector<uint16_t> ports(kShards * kReplicas, 0);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
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
        // Child: serve this slice until killed.
        _exit(RunShardProcess(*listen_fd, s, built->index, *buckets));
      }
      close(*listen_fd);  // the child owns its listener now
      children[s * kReplicas + r] = pid;
      ports[s * kReplicas + r] = port;
      std::printf("slice %zu replica %zu: pid %d serving 127.0.0.1:%u\n", s,
                  r, pid, port);
    }
  }
  auto reap = [&](size_t s, size_t r) {
    kill(children[s * kReplicas + r], SIGKILL);
    waitpid(children[s * kReplicas + r], nullptr, 0);
    children[s * kReplicas + r] = -1;
  };

  // ---- 3. Coordinator over replica groups of multiplexed TCP transports,
  //         all on one event loop ----
  auto loop = server::EventLoop::Create();
  if (!loop.ok() || !(*loop)->Start().ok()) {
    std::fprintf(stderr, "event loop failed\n");
    return 1;
  }
  std::vector<std::unique_ptr<server::MultiplexedTransport>> transports;
  std::vector<std::vector<server::ShardTransport*>> groups(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      auto transport = server::MultiplexedTransport::Connect(
          "127.0.0.1", ports[s * kReplicas + r], loop->get());
      if (!transport.ok()) {
        std::fprintf(stderr, "connect slice %zu replica %zu: %s\n", s, r,
                     transport.status().ToString().c_str());
        return 1;
      }
      transports.push_back(std::move(*transport));
      groups[s].push_back(transports.back().get());
    }
  }
  server::ShardCoordinatorOptions copts;
  copts.max_attempts = 2;             // one failover hop per logical trip
  copts.allow_partial_results = true; // a lost group degrades, not darkens
  server::ShardCoordinator coordinator(groups, copts);
  Status handshake = coordinator.Handshake();
  if (!handshake.ok()) {
    std::fprintf(stderr, "handshake: %s\n", handshake.ToString().c_str());
    return 1;
  }
  std::printf("coordinator: %zu slices x %zu replicas handshaken, %zu "
              "buckets advertised\n",
              coordinator.shard_count(), coordinator.replica_count(0),
              coordinator.bucket_count());

  // ---- 4. Queries through the coordinator, checked against a local
  //         monolithic server ----
  server::EmbellishServer mono(&built->index, &*buckets, nullptr);
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  auto session = server::SessionClient::Create(7, &*buckets, ko, /*seed=*/9);
  if (!session.ok()) return 1;
  mono.HandleFrame(session->HelloFrame());
  auto hello_resp = coordinator.HandleFrame(session->HelloFrame());
  auto hello_frame = server::DecodeFrame(hello_resp);
  if (!hello_frame.ok() ||
      hello_frame->kind != server::FrameKind::kHelloOk) {
    std::fprintf(stderr, "hello failed\n");
    return 1;
  }

  auto terms = built->index.IndexedTerms();
  std::vector<wordnet::TermId> genuine{terms[10], terms[25]};
  bool identical = true;

  auto pr_request = session->QueryFrame(genuine);
  if (!pr_request.ok()) return 1;
  auto pr_reference = mono.HandleFrame(*pr_request);
  auto pr_remote = coordinator.HandleFrame(*pr_request);
  identical = identical && pr_remote == pr_reference;
  auto top = session->DecodeResultFrame(pr_remote, /*k=*/5);
  if (top.ok() && !top->empty()) {
    std::printf("PR over %zu processes: top doc %u (score %llu)\n",
                kShards * kReplicas, (*top)[0].doc,
                static_cast<unsigned long long>((*top)[0].score));
  }

  auto topk_request = server::EncodeFrame(
      server::FrameKind::kTopKQuery, 7, server::EncodeTopKQuery(5, genuine));
  auto topk_reference = mono.HandleFrame(topk_request);
  identical = identical && coordinator.HandleFrame(topk_request) ==
                               topk_reference;

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
        server::EncodePirQuery(coordinator.PirBucketField(shard, slot->bucket),
                               *pir_query));
  };
  auto pir_resp = server::DecodeFrame(coordinator.HandleFrame(pir_request(0)));
  std::printf("byte-identity vs local monolithic server: %s; PIR(slice 0): "
              "%s\n", identical ? "PASS" : "FAIL",
              pir_resp.ok() && pir_resp->kind == server::FrameKind::kPirResult
                  ? "answered" : "failed");

  // ---- 5. Kill replica 0 of every slice: failover, same bytes ----
  for (size_t s = 0; s < kShards; ++s) reap(s, 0);
  bool survived = coordinator.HandleFrame(*pr_request) == pr_reference &&
                  coordinator.HandleFrame(topk_request) == topk_reference;
  identical = identical && survived;
  auto mid = coordinator.stats();
  std::printf("replica 0 of every slice killed -> answers unchanged: %s "
              "(%llu retries, %llu failovers)\n", survived ? "PASS" : "FAIL",
              static_cast<unsigned long long>(mid.retries),
              static_cast<unsigned long long>(mid.failovers));

  // ---- 6. Kill slice 1's last replica: typed degraded answer, surviving
  //         slices unaffected ----
  reap(1, 1);
  auto degraded = coordinator.HandleFrame(*pr_request);
  auto degraded_frame = server::DecodeFrame(degraded);
  bool degraded_ok = false;
  if (degraded_frame.ok() &&
      degraded_frame->kind == server::FrameKind::kDegradedResult) {
    auto partial = server::DecodeDegradedResult(degraded_frame->payload);
    if (partial.ok() && partial->missing.size() == 1) {
      degraded_ok = true;
      std::printf("slice 1 fully down -> kDegradedResult, merged without "
                  "slice %u\n", partial->missing[0]);
    }
  }
  if (!degraded_ok) {
    std::fprintf(stderr, "expected a typed degraded result\n");
    identical = false;
  }
  auto survivor = server::DecodeFrame(coordinator.HandleFrame(pir_request(2)));
  std::printf("PIR to surviving slice 2: %s\n",
              survivor.ok() && survivor->kind == server::FrameKind::kPirResult
                  ? "still answered" : "failed");

  // ---- 7. Teardown + accounting ----
  // Transports go before the loop stops; closing their connections also
  // lets the children's serve loops idle.
  transports.clear();
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      if (children[s * kReplicas + r] >= 0) reap(s, r);
    }
  }
  auto stats = coordinator.stats();
  std::printf("coordinator: %llu frames, %llu shard trips, %llu shard "
              "failures, %llu retries, %llu failovers, %llu degraded, "
              "%llu errors\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.shard_trips),
              static_cast<unsigned long long>(stats.shard_failures),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.degraded_answers),
              static_cast<unsigned long long>(stats.errors));
  (*loop)->Stop();
  return identical ? 0 : 1;
}
