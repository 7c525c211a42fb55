// Live ingestion walkthrough: serving queries while the index changes.
//
//   1. build a lexicon, bucket organization and corpus, then stand up an
//      IndexCatalog (epoch 1, two shards) and a catalog-backed server;
//   2. register sessions and pre-encode a replayable query mix (private
//      retrieval + plaintext top-k);
//   3. run a query storm on worker threads WHILE the main thread ingests
//      two document deltas around a 2 -> 4 reshard — three epoch cutovers
//      under live traffic, every build in the background;
//   4. prove bit-identity: each storm answer must be byte-for-byte the
//      answer of a frozen reference server pinned at an epoch that was
//      live while that request was in flight;
//   5. prove the non-blocking invariant: the counted answer-path gauge
//      must show zero index/layout builds on serving threads;
//   6. print the lifecycle accounting (swaps, ingested docs, reshard time,
//      shard visits skipped by impact bounds).
//
// Exit code is the assertion: 0 only if every answer matched a pinned
// epoch AND no serving thread ever ran a build.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "embellish.h"

using namespace embellish;

int main() {
  // ---- 1. Substrate and the live catalog ----
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
  auto org = std::make_shared<core::BucketOrganization>(std::move(*buckets));

  corpus::SyntheticCorpusOptions co;
  co.num_docs = 300;
  co.seed = 43;
  auto corp = corpus::GenerateSyntheticCorpus(*lexicon, co);
  if (!corp.ok()) return 1;

  ThreadPool pool(4);
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  auto catalog = index::IndexCatalog::Create(*corp, org, copts, &pool);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  std::printf("catalog: epoch %llu, %zu shards, %zu docs\n",
              static_cast<unsigned long long>((*catalog)->Acquire()->epoch()),
              (*catalog)->Acquire()->shard_count(),
              static_cast<size_t>(corp->document_count()));

  server::EmbellishServer srv(catalog->get(), {}, &pool);

  // ---- 2. Sessions and a pre-encoded, replayable query mix ----
  auto terms = corp->DistinctTerms();
  auto pick = [&](size_t a, size_t b) {
    return std::vector<wordnet::TermId>{terms[a % terms.size()],
                                        terms[b % terms.size()]};
  };
  constexpr size_t kThreads = 3;
  constexpr size_t kIters = 6;
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  std::vector<server::SessionClient> clients;
  std::vector<std::vector<std::vector<uint8_t>>> requests(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    auto client = server::SessionClient::Create(40 + t, org.get(), ko,
                                                /*seed=*/500 + t);
    if (!client.ok()) return 1;
    clients.push_back(std::move(*client));
    auto hello = server::DecodeFrame(srv.HandleFrame(clients[t].HelloFrame()));
    if (!hello.ok() || hello->kind != server::FrameKind::kHelloOk) return 1;
    for (size_t i = 0; i < kIters; ++i) {
      if (i % 2 == 0) {
        auto request = clients[t].QueryFrame(pick(3 * t + i, 7 * i + 1));
        if (!request.ok()) return 1;
        requests[t].push_back(std::move(*request));
      } else {
        requests[t].push_back(server::EncodeFrame(
            server::FrameKind::kTopKQuery, 40 + t,
            server::EncodeTopKQuery(10, pick(5 * t + i, 11 * i))));
      }
    }
  }
  std::printf("sessions: %zu registered, %zu requests pre-encoded\n",
              clients.size(), kThreads * kIters);

  // ---- 3. The storm races two deltas and a 2 -> 4 reshard ----
  auto delta_docs = [&](size_t count, uint64_t salt) {
    std::vector<corpus::Document> docs(count);
    for (size_t d = 0; d < count; ++d) {
      for (size_t i = 0; i < 30; ++i) {
        docs[d].tokens.push_back(terms[(salt + 17 * d + 3 * i) % terms.size()]);
      }
    }
    return docs;
  };

  std::map<uint64_t, std::shared_ptr<const index::IndexEpoch>> snapshots;
  snapshots[1] = (*catalog)->Acquire();

  struct Observation {
    size_t thread, iter;
    uint64_t epoch_lo, epoch_hi;
    std::vector<uint8_t> response;
  };
  std::vector<std::vector<Observation>> observed(kThreads);
  std::atomic<bool> start{false};
  std::vector<std::thread> storm;
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (size_t i = 0; i < kIters; ++i) {
        Observation ob;
        ob.thread = t;
        ob.iter = i;
        ob.epoch_lo = (*catalog)->Acquire()->epoch();
        ob.response = srv.HandleFrame(requests[t][i]);
        ob.epoch_hi = (*catalog)->Acquire()->epoch();
        observed[t].push_back(std::move(ob));
      }
    });
  }

  start.store(true, std::memory_order_release);
  auto e2 = (*catalog)->ApplyDelta(delta_docs(6, 21));
  if (!e2.ok()) return 1;
  snapshots[(*e2)->epoch()] = *e2;
  index::ShardingOptions wider;
  wider.shard_count = 4;
  auto e3 = (*catalog)->Reshard(wider);
  if (!e3.ok()) return 1;
  snapshots[(*e3)->epoch()] = *e3;
  auto e4 = (*catalog)->ApplyDelta(delta_docs(5, 33));
  if (!e4.ok()) return 1;
  snapshots[(*e4)->epoch()] = *e4;
  for (auto& th : storm) th.join();
  std::printf("ingested under load: +11 docs, reshard 2 -> %zu, final epoch "
              "%llu\n",
              (*e3)->shard_count(),
              static_cast<unsigned long long>((*e4)->epoch()));

  // ---- 4. Bit-identity against frozen per-epoch references ----
  std::map<uint64_t, std::unique_ptr<index::IndexCatalog>> frozen;
  std::map<uint64_t, std::unique_ptr<server::EmbellishServer>> references;
  for (const auto& [epoch, snapshot] : snapshots) {
    frozen[epoch] = index::IndexCatalog::FreezeEpoch(snapshot);
    references[epoch] =
        std::make_unique<server::EmbellishServer>(frozen[epoch].get());
    for (auto& client : clients) {
      references[epoch]->HandleFrame(client.HelloFrame());
    }
  }
  size_t checked = 0;
  bool identical = true;
  for (size_t t = 0; t < kThreads; ++t) {
    for (const Observation& ob : observed[t]) {
      bool matched = false;
      for (uint64_t e = ob.epoch_lo; e <= ob.epoch_hi && !matched; ++e) {
        auto it = references.find(e);
        if (it == references.end()) continue;
        matched = it->second->HandleFrame(requests[ob.thread][ob.iter]) ==
                  ob.response;
      }
      if (!matched) {
        std::fprintf(stderr,
                     "thread %zu iter %zu: bytes match no epoch in "
                     "[%llu, %llu]\n",
                     ob.thread, ob.iter,
                     static_cast<unsigned long long>(ob.epoch_lo),
                     static_cast<unsigned long long>(ob.epoch_hi));
        identical = false;
      }
      ++checked;
    }
  }
  std::printf("bit-identity: %zu/%zu storm answers matched a pinned epoch\n",
              identical ? checked : 0, checked);

  // ---- 5 + 6. The non-blocking invariant and lifecycle accounting ----
  server::ServerStats stats = srv.stats();
  std::printf("lifecycle: %llu epoch swaps, %llu docs ingested, reshard "
              "%.1f ms, %lld epochs pinned now\n",
              static_cast<unsigned long long>(stats.epoch_swaps),
              static_cast<unsigned long long>(stats.delta_docs_ingested),
              static_cast<double>(stats.reshard_micros) / 1000.0,
              static_cast<long long>(stats.pinned_epochs));
  std::printf("top-k shard trips: %llu visited, %llu skipped by impact "
              "bounds\n",
              static_cast<unsigned long long>(stats.topk_shards_visited),
              static_cast<unsigned long long>(stats.topk_shards_skipped));
  std::printf("answer-path builds observed on serving threads: %llu\n",
              static_cast<unsigned long long>(stats.answer_path_builds));

  if (stats.answer_path_builds != 0) {
    std::fprintf(stderr, "FAIL: a serving thread ran an index/layout build\n");
    return 1;
  }
  if (stats.epoch_swaps != 3) {
    std::fprintf(stderr, "FAIL: expected 3 cutovers, saw %llu\n",
                 static_cast<unsigned long long>(stats.epoch_swaps));
    return 1;
  }
  return identical ? 0 : 1;
}
