// Live-ingest equivalence under contention: a seeded query storm races
// ApplyDelta and Reshard cutovers on a catalog-backed server, and on slice
// servers behind a coordinator that cuts over with them, and every single
// answer must be bit-identical to a frozen reference server pinned at an
// epoch that was live while the request was in flight — there is no moment
// at which a reader can observe a torn or mixed-epoch index. The suite runs
// under the `ingest` ctest label so the ASan/TSan CI jobs drive it
// explicitly; the counted answer-path invariant asserts that no serving
// thread ever executed an index/layout build.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

#include "common/answer_path.h"
#include "index/epoch.h"
#include "server/embellish_server.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "slice_rig.h"
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

  // The frozen monolithic reference for `snapshot`, with `clients`
  // registered.
  struct Reference {
    std::unique_ptr<index::IndexCatalog> catalog;
    std::unique_ptr<EmbellishServer> server;
  };
  static Reference MakeReference(
      std::shared_ptr<const index::IndexEpoch> snapshot,
      std::vector<SessionClient>& clients) {
    Reference ref;
    ref.catalog = index::IndexCatalog::FreezeEpoch(std::move(snapshot));
    ref.server = std::make_unique<EmbellishServer>(ref.catalog.get());
    for (SessionClient& client : clients) {
      ref.server->HandleFrame(client.HelloFrame());
    }
    return ref;
  }

  // True when `response` is a kError frame carrying kUnavailable: a trip
  // fenced by a coordinator cutover, or a slice refusing an epoch of
  // another partition. The client resends those.
  static bool IsUnavailable(const std::vector<uint8_t>& response) {
    auto frame = DecodeFrame(response);
    if (!frame.ok() || frame->kind != FrameKind::kError) return false;
    Status carried;
    return DecodeError(frame->payload, &carried).ok() &&
           carried.IsUnavailable();
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
  // same sharding, same layouts — so even layout-dependent answers must
  // reproduce.
  std::map<uint64_t, Reference> references;
  for (const auto& [epoch, snapshot] : snapshots) {
    references[epoch] = MakeReference(snapshot, clients);
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
        matched =
            it->second.server->HandleFrame(requests[ob.thread][ob.iter]) ==
            ob.response;
      }
      EXPECT_TRUE(matched)
          << "thread " << ob.thread << " iter " << ob.iter
          << " answered bytes matching no epoch in [" << ob.epoch_lo << ", "
          << ob.epoch_hi << "]";
    }
  }
}

TEST_F(LiveIngestTest, CoordinatorStormAnswersAreBitIdenticalToSomePinnedEpoch) {
  // The storm above, on the sharded deployment: slices of the live catalog
  // behind a coordinator, which follows each cutover — AdvanceEpoch() after
  // a delta, and AdvanceEpoch(groups) onto four new slices after a 2 -> 4
  // reshard. Slices pin index epochs independently, so one fan-out may
  // straddle a delta; under kDocRange a delta changes only the last slice,
  // and the merge is then the later epoch's answer (FanOutStraddlingADelta
  // below).
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  copts.sharding.partition = index::ShardPartition::kDocRange;
  ThreadPool pool(4);
  auto catalog = index::IndexCatalog::Create(corp_, org_, copts, &pool);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  testutil::SliceRig two = testutil::MakeSliceRig(catalog->get(), 2);
  ShardCoordinator& coordinator = *two.coordinator;

  constexpr size_t kThreads = 3;
  constexpr size_t kIters = 8;
  std::vector<SessionClient> clients;
  std::vector<std::vector<std::vector<uint8_t>>> requests(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.push_back(MakeClient(60 + t, 760 + t));
    auto hello =
        DecodeFrame(coordinator.HandleFrame(clients.back().HelloFrame()));
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->kind, FrameKind::kHelloOk);
    for (size_t i = 0; i < kIters; ++i) {
      if (i % 2 == 0) {
        auto req = clients.back().QueryFrame(SomeTerms(3 * t + i, 7 * i + 1));
        ASSERT_TRUE(req.ok());
        requests[t].push_back(std::move(*req));
      } else {
        requests[t].push_back(
            EncodeFrame(FrameKind::kTopKQuery, 60 + t,
                        EncodeTopKQuery(10, SomeTerms(5 * t + i, 11 * i))));
      }
    }
  }

  std::map<uint64_t, std::shared_ptr<const index::IndexEpoch>> snapshots;
  snapshots[1] = (*catalog)->Acquire();

  struct Observation {
    uint64_t epoch_lo;  // current epoch before the answered send
    uint64_t epoch_hi;  // current epoch after its response landed
    std::vector<uint8_t> response;
  };
  std::vector<std::vector<Observation>> observed(kThreads);
  std::atomic<size_t> resends{0};
  std::atomic<bool> start{false};

  std::vector<std::thread> storm;
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (size_t i = 0; i < kIters; ++i) {
        Observation ob;
        for (size_t attempt = 0;; ++attempt) {
          ASSERT_LT(attempt, 10000u) << "thread " << t << " iter " << i;
          ob.epoch_lo = (*catalog)->Acquire()->epoch();
          ob.response = coordinator.HandleFrame(requests[t][i]);
          ob.epoch_hi = (*catalog)->Acquire()->epoch();
          if (!IsUnavailable(ob.response)) break;
          resends.fetch_add(1, std::memory_order_relaxed);
        }
        observed[t].push_back(std::move(ob));
      }
    });
  }

  start.store(true, std::memory_order_release);
  // The ingest side, racing the storm: three cutovers.
  auto e2 = (*catalog)->ApplyDelta(SomeDeltaDocs(6, 21));
  ASSERT_TRUE(e2.ok()) << e2.status().ToString();
  snapshots[(*e2)->epoch()] = *e2;
  ASSERT_TRUE(coordinator.AdvanceEpoch().ok());

  index::ShardingOptions wider;
  wider.shard_count = 4;
  wider.partition = index::ShardPartition::kDocRange;
  auto e3 = (*catalog)->Reshard(wider);
  ASSERT_TRUE(e3.ok()) << e3.status().ToString();
  snapshots[(*e3)->epoch()] = *e3;
  testutil::SliceRig four = testutil::MakeSliceRig(catalog->get(), 4);
  Status cutover = coordinator.AdvanceEpoch(four.groups());
  ASSERT_TRUE(cutover.ok()) << cutover.ToString();

  auto e4 = (*catalog)->ApplyDelta(SomeDeltaDocs(5, 33));
  ASSERT_TRUE(e4.ok()) << e4.status().ToString();
  snapshots[(*e4)->epoch()] = *e4;
  ASSERT_TRUE(coordinator.AdvanceEpoch().ok());
  for (auto& th : storm) th.join();

  std::printf("coordinator storm: %zu kUnavailable resends over %zu "
              "requests\n",
              resends.load(), kThreads * kIters);
  EXPECT_EQ(coordinator.shard_count(), 4u);
  for (const testutil::SliceRig* rig : {&two, &four}) {
    for (const auto& slice : rig->slices) {
      EXPECT_EQ(slice->stats().answer_path_builds, 0u);
    }
  }

  std::map<uint64_t, Reference> references;
  for (const auto& [epoch, snapshot] : snapshots) {
    references[epoch] = MakeReference(snapshot, clients);
  }
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(observed[t].size(), kIters);
    for (size_t i = 0; i < kIters; ++i) {
      const Observation& ob = observed[t][i];
      ASSERT_LE(ob.epoch_lo, ob.epoch_hi);
      bool matched = false;
      for (uint64_t e = ob.epoch_lo; e <= ob.epoch_hi && !matched; ++e) {
        auto it = references.find(e);
        ASSERT_NE(it, references.end()) << "epoch " << e << " unrecorded";
        matched = it->second.server->HandleFrame(requests[t][i]) ==
                  ob.response;
      }
      EXPECT_TRUE(matched)
          << "thread " << t << " iter " << i
          << " answered bytes matching no epoch in [" << ob.epoch_lo << ", "
          << ob.epoch_hi << "]";
    }
  }
}

// Forwards to `inner`; while armed, applies `before_forward` once, just
// before the next trip. InProcessTransport trips of one fan-out run in
// slice order on the calling thread, so a decorator on the last slice
// lands a delta after every other slice has answered.
class BeforeForwardTransport : public ShardTransport {
 public:
  BeforeForwardTransport(ShardTransport* inner,
                         std::function<void()> before_forward)
      : inner_(inner), before_forward_(std::move(before_forward)) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    if (armed) {
      armed = false;
      before_forward_();
    }
    return inner_->RoundTrip(request);
  }

  bool armed = false;

 private:
  ShardTransport* inner_;
  std::function<void()> before_forward_;
};

TEST_F(LiveIngestTest, FanOutStraddlingADelta) {
  // Slice 0 answers epoch e; the decorator on slice 1 applies a delta and
  // slice 1 answers e+1. Under kDocRange the delta's documents all land in
  // the last slice, so the merge is exactly e+1's answer — what the
  // coordinator storm relies on. Under kDocHash they may land in slice 0
  // too, which answered without them; that outcome is printed, not
  // asserted.
  const auto genuine = SomeTerms(5, 23);
  for (index::ShardPartition partition :
       {index::ShardPartition::kDocRange, index::ShardPartition::kDocHash}) {
    const bool range = partition == index::ShardPartition::kDocRange;
    SCOPED_TRACE(range ? "kDocRange" : "kDocHash");
    index::IndexCatalogOptions copts;
    copts.sharding.shard_count = 2;
    copts.sharding.partition = partition;
    auto catalog = index::IndexCatalog::Create(corp_, org_, copts);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    testutil::SliceRig rig = testutil::MakeSliceRig(catalog->get(), 2);
    std::shared_ptr<const index::IndexEpoch> before = (*catalog)->Acquire();
    std::shared_ptr<const index::IndexEpoch> after;
    // Delta documents dense in the query terms, so they rank in every
    // answer that sees them.
    BeforeForwardTransport straddle(rig.transports[1].get(), [&] {
      std::vector<corpus::Document> docs(4);
      for (auto& doc : docs) {
        for (size_t i = 0; i < 20; ++i) doc.tokens.push_back(genuine[0]);
        doc.tokens.push_back(genuine[1]);
      }
      auto next = (*catalog)->ApplyDelta(std::move(docs));
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      after = *next;
    });
    ShardCoordinator coordinator(
        std::vector<ShardTransport*>{rig.transports[0].get(), &straddle});

    std::vector<SessionClient> clients;
    clients.push_back(MakeClient(80, 880));
    ASSERT_EQ(DecodeFrame(coordinator.HandleFrame(clients[0].HelloFrame()))
                  ->kind,
              FrameKind::kHelloOk);
    auto pr = clients[0].QueryFrame(genuine);
    ASSERT_TRUE(pr.ok());
    const std::vector<std::vector<uint8_t>> requests = {
        *pr, EncodeFrame(FrameKind::kTopKQuery, 80,
                         EncodeTopKQuery(10, genuine))};
    for (const std::vector<uint8_t>& request : requests) {
      const bool is_pr = &request == &requests[0];
      straddle.armed = true;
      const std::vector<uint8_t> merged = coordinator.HandleFrame(request);
      ASSERT_NE(after, nullptr);
      Reference at_e = MakeReference(before, clients);
      Reference at_next = MakeReference(after, clients);
      const bool is_e = at_e.server->HandleFrame(request) == merged;
      const bool is_next = at_next.server->HandleFrame(request) == merged;
      if (range) {
        EXPECT_TRUE(is_next) << (is_pr ? "PR" : "top-k");
      } else {
        std::printf("kDocHash fan-out straddling a delta (%s): %s\n",
                    is_pr ? "PR" : "top-k",
                    is_next ? "the later epoch's answer"
                    : is_e  ? "the earlier epoch's answer"
                            : "no epoch's answer");
      }
      before = after;
      after = nullptr;
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
