// Live-ingest equivalence under contention: a seeded query storm races
// ApplyDelta and Reshard cutovers on a catalog-backed server, and every
// single answer must be bit-identical to a frozen reference server pinned
// at an epoch that was live while the request was in flight — there is no
// moment at which a reader can observe a torn or mixed-epoch index. The
// suite runs under the `ingest` ctest label so the ASan/TSan CI jobs drive
// it explicitly; the counted answer-path invariant asserts that no serving
// thread ever executed an index/layout build.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "common/answer_path.h"
#include "index/epoch.h"
#include "server/embellish_server.h"
#include "server/session_client.h"
#include "testutil.h"

namespace embellish::server {
namespace {

class LiveIngestTest : public ::testing::Test {
 protected:
  LiveIngestTest()
      : lex_(testutil::SmallSyntheticLexicon(1200, 611)),
        corp_(testutil::SmallCorpus(lex_, 100, 612)),
        org_(std::make_shared<core::BucketOrganization>(
            testutil::MakeBuckets(lex_, 4, 64))) {}

  SessionClient MakeClient(uint64_t session_id, uint64_t seed) {
    crypto::BenalohKeyOptions ko;
    ko.key_bits = 256;
    ko.r = 59049;
    return std::move(SessionClient::Create(session_id, org_.get(), ko, seed))
        .value();
  }

  std::vector<corpus::Document> SomeDeltaDocs(size_t count, uint64_t salt) {
    auto terms = corp_.DistinctTerms();
    std::vector<corpus::Document> docs(count);
    for (size_t d = 0; d < count; ++d) {
      for (size_t t = 0; t < 30; ++t) {
        docs[d].tokens.push_back(terms[(salt + 17 * d + 3 * t) % terms.size()]);
      }
    }
    return docs;
  }

  std::vector<wordnet::TermId> SomeTerms(size_t a, size_t b) {
    auto terms = corp_.DistinctTerms();
    return {terms[a % terms.size()], terms[b % terms.size()]};
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  std::shared_ptr<core::BucketOrganization> org_;
};

TEST_F(LiveIngestTest, StormAnswersAreBitIdenticalToSomePinnedEpoch) {
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  ThreadPool pool(4);
  auto catalog = index::IndexCatalog::Create(corp_, org_, copts, &pool);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  EmbellishServer server(catalog->get(), {}, &pool);

  // Pre-register the storm sessions and pre-encode every request frame so
  // the racing threads are deterministic byte replayers.
  constexpr size_t kThreads = 3;
  constexpr size_t kIters = 8;
  std::vector<SessionClient> clients;
  std::vector<std::vector<std::vector<uint8_t>>> requests(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.push_back(MakeClient(50 + t, 700 + t));
    auto hello = DecodeFrame(server.HandleFrame(clients.back().HelloFrame()));
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->kind, FrameKind::kHelloOk);
    for (size_t i = 0; i < kIters; ++i) {
      if (i % 2 == 0) {
        auto req = clients.back().QueryFrame(SomeTerms(3 * t + i, 7 * i + 1));
        ASSERT_TRUE(req.ok());
        requests[t].push_back(std::move(*req));
      } else {
        requests[t].push_back(
            EncodeFrame(FrameKind::kTopKQuery, 50 + t,
                        EncodeTopKQuery(10, SomeTerms(5 * t + i, 11 * i))));
      }
    }
  }

  // Every snapshot the catalog ever installs, by epoch number — the frozen
  // references the storm's answers are checked against.
  std::map<uint64_t,
           std::shared_ptr<const index::IndexEpoch>> snapshots;
  snapshots[1] = (*catalog)->Acquire();

  struct Observation {
    size_t thread;
    size_t iter;
    uint64_t epoch_lo;  // current epoch before the request was sent
    uint64_t epoch_hi;  // current epoch after the response landed
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
        ob.response = server.HandleFrame(requests[t][i]);
        ob.epoch_hi = (*catalog)->Acquire()->epoch();
        observed[t].push_back(std::move(ob));
      }
    });
  }

  start.store(true, std::memory_order_release);
  // The ingest side, racing the storm: two deltas around a 2 -> 4 reshard.
  auto e2 = (*catalog)->ApplyDelta(SomeDeltaDocs(6, 21));
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  snapshots[(*e2)->epoch()] = *e2;
  index::ShardingOptions wider;
  wider.shard_count = 4;
  auto e3 = (*catalog)->Reshard(wider);
  ASSERT_TRUE(e3.ok()) << e3.status().ToString();
  snapshots[(*e3)->epoch()] = *e3;
  auto e4 = (*catalog)->ApplyDelta(SomeDeltaDocs(5, 33));
  ASSERT_TRUE(e4.ok()) << e4.status().ToString();
  snapshots[(*e4)->epoch()] = *e4;
  for (auto& th : storm) th.join();

  // No serving thread (storm or batch worker) ever ran an index or layout
  // build — the counted non-blocking invariant.
  EXPECT_EQ(server.stats().answer_path_builds, 0u);
  EXPECT_EQ(server.stats().epoch_swaps, 3u);

  // Frozen reference servers, one per installed epoch, built AFTER the
  // race so they cannot perturb it. FreezeEpoch pins the exact snapshot —
  // same sharding, same layouts — so even shard-layout-dependent answers
  // must reproduce.
  std::map<uint64_t, std::unique_ptr<EmbellishServer>> references;
  std::map<uint64_t, std::unique_ptr<index::IndexCatalog>> ref_catalogs;
  for (const auto& [epoch, snapshot] : snapshots) {
    ref_catalogs[epoch] = index::IndexCatalog::FreezeEpoch(snapshot);
    references[epoch] =
        std::make_unique<EmbellishServer>(ref_catalogs[epoch].get());
    for (auto& client : clients) {
      references[epoch]->HandleFrame(client.HelloFrame());
    }
  }

  // Every observed answer must be byte-for-byte the answer of SOME epoch
  // that was current while the request was in flight.
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(observed[t].size(), kIters);
    for (const Observation& ob : observed[t]) {
      ASSERT_LE(ob.epoch_lo, ob.epoch_hi);
      bool matched = false;
      for (uint64_t e = ob.epoch_lo; e <= ob.epoch_hi && !matched; ++e) {
        auto it = references.find(e);
        ASSERT_NE(it, references.end()) << "epoch " << e << " unrecorded";
        matched = it->second->HandleFrame(requests[ob.thread][ob.iter]) ==
                  ob.response;
      }
      EXPECT_TRUE(matched)
          << "thread " << ob.thread << " iter " << ob.iter
          << " answered bytes matching no epoch in [" << ob.epoch_lo << ", "
          << ob.epoch_hi << "]";
    }
  }
}

TEST_F(LiveIngestTest, AsyncBuildersRaceAcquireCleanly) {
  // Pure pin/swap contention (no server layer): readers hammering Acquire
  // and evaluating must never crash, block on a build, or see a snapshot
  // in between epochs while async delta + reshard builders run. TSan is
  // the real assertion here.
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  copts.build_layouts = false;
  ThreadPool pool(4);
  auto catalog = index::IndexCatalog::Create(corp_, org_, copts, &pool);
  ASSERT_TRUE(catalog.ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      common::ScopedAnswerPath serving;
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = (*catalog)->Acquire();
        auto query = SomeTerms(t + i, 2 * i + 1);
        auto got = index::EvaluateTopKEpoch(*snapshot, query, 5);
        auto full = index::EvaluateFull(snapshot->index(), query);
        if (full.size() > 5) full.resize(5);
        ASSERT_EQ(got, full) << "epoch " << snapshot->epoch();
        ++i;
      }
    });
  }

  (*catalog)->ApplyDeltaAsync(SomeDeltaDocs(4, 11));
  index::ShardingOptions wider;
  wider.shard_count = 3;
  (*catalog)->ReshardAsync(wider);
  (*catalog)->ApplyDeltaAsync(SomeDeltaDocs(3, 13));
  (*catalog)->WaitForBuilds();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  ASSERT_TRUE((*catalog)->last_async_status().ok());
  auto final_snapshot = (*catalog)->Acquire();
  EXPECT_EQ(final_snapshot->epoch(), 4u);
  EXPECT_EQ(final_snapshot->index().document_count(),
            corp_.document_count() + 7);
  EXPECT_EQ((*catalog)->stats().answer_path_builds, 0u);
}

}  // namespace
}  // namespace embellish::server
