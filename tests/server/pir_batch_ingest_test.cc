// Batched PIR under live ingestion: HandleBatch callers whose batches are
// all PIR frames race ApplyDelta and a 2 -> 4 Reshard cutover on a
// catalog-backed server. A batch pins exactly one epoch, so its PIR groups
// can never mix epochs — every response of a batch must be bit-identical
// to a FreezeEpoch reference of ONE epoch that was live while the batch
// was in flight (the PR 8 equivalence bar, strengthened to whole batches).
// Frames address shards {0, 1} only so the same bytes stay valid before
// and after the reshard. Runs under the `ingest` ctest label (ASan/TSan CI)
// and matches the TSan job's name filter via "pir".

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "index/epoch.h"
#include "server/embellish_server.h"
#include "testutil.h"

namespace embellish::server {
namespace {

class PirBatchIngestTest : public ::testing::Test {
 protected:
  PirBatchIngestTest()
      : lex_(testutil::SmallSyntheticLexicon(1200, 811)),
        corp_(testutil::SmallCorpus(lex_, 100, 812)),
        org_(std::make_shared<core::BucketOrganization>(
            testutil::MakeBuckets(lex_, 4, 64))) {}

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

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  std::shared_ptr<core::BucketOrganization> org_;
};

TEST_F(PirBatchIngestTest, BatchesAreBitIdenticalToOnePinnedEpochEach) {
  index::IndexCatalogOptions copts;
  copts.sharding.shard_count = 2;
  ThreadPool pool(4);
  auto catalog = index::IndexCatalog::Create(corp_, org_, copts, &pool);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  EmbellishServerOptions options;
  options.shard_threads = 2;
  EmbellishServer server(catalog->get(), options, &pool);

  // Pre-encode the storm batches: PIR queries from clients with distinct
  // moduli, addressing shards 0 and 1 only (valid at 2 and at 4 shards —
  // the bucket organization, and thus the shard-qualified field's layout,
  // is shared across epochs).
  constexpr size_t kThreads = 3;
  constexpr size_t kBatchesPerThread = 4;
  auto terms = corp_.DistinctTerms();
  Rng rng(900);
  std::vector<std::vector<std::vector<std::vector<uint8_t>>>> batches(
      kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    crypto::PirClient pir_client =
        std::move(crypto::PirClient::Create(256, &rng)).value();
    for (size_t b = 0; b < kBatchesPerThread; ++b) {
      std::vector<std::vector<uint8_t>> batch;
      for (size_t q = 0; q < 3; ++q) {
        auto slot = org_->Locate(terms[(19 * t + 7 * b + q) % terms.size()]);
        ASSERT_TRUE(slot.ok());
        auto query = pir_client.BuildQuery(
            slot->slot, org_->bucket(slot->bucket).size(), &rng);
        ASSERT_TRUE(query.ok());
        batch.push_back(EncodeFrame(
            FrameKind::kPirQuery, 40 + t,
            EncodePirQuery(server.PirBucketField(q % 2, slot->bucket),
                           *query)));
      }
      batches[t].push_back(std::move(batch));
    }
  }

  std::map<uint64_t, std::shared_ptr<const index::IndexEpoch>> snapshots;
  snapshots[1] = (*catalog)->Acquire();

  struct Observation {
    uint64_t epoch_lo = 0;  // current epoch before the batch was sent
    uint64_t epoch_hi = 0;  // current epoch after the responses landed
    std::vector<std::vector<uint8_t>> responses;
  };
  std::vector<std::vector<Observation>> observed(kThreads);
  std::atomic<bool> start{false};

  std::vector<std::thread> storm;
  for (size_t t = 0; t < kThreads; ++t) {
    storm.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (size_t b = 0; b < kBatchesPerThread; ++b) {
        Observation ob;
        ob.epoch_lo = (*catalog)->Acquire()->epoch();
        ob.responses = server.HandleBatch(batches[t][b]);
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

  // No serving thread ever ran an index or layout build, and every PIR
  // frame of the storm went through the deferred shared-sweep path.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.answer_path_builds, 0u);
  EXPECT_EQ(stats.epoch_swaps, 3u);
  EXPECT_EQ(stats.pir_batched_queries,
            uint64_t{kThreads} * kBatchesPerThread * 3);
  EXPECT_GT(stats.pir_batch_sweeps, 0u);

  // Frozen reference servers, one per installed epoch, built AFTER the race
  // so they cannot perturb it.
  std::map<uint64_t, std::unique_ptr<EmbellishServer>> references;
  std::map<uint64_t, std::unique_ptr<index::IndexCatalog>> ref_catalogs;
  for (const auto& [epoch, snapshot] : snapshots) {
    ref_catalogs[epoch] = index::IndexCatalog::FreezeEpoch(snapshot);
    references[epoch] =
        std::make_unique<EmbellishServer>(ref_catalogs[epoch].get(), options);
  }

  // Whole-batch single-epoch equivalence: some epoch live during the batch
  // must reproduce EVERY response byte-for-byte (the batch pins one
  // snapshot; its groups must never mix epochs).
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(observed[t].size(), kBatchesPerThread);
    for (size_t b = 0; b < kBatchesPerThread; ++b) {
      const Observation& ob = observed[t][b];
      ASSERT_LE(ob.epoch_lo, ob.epoch_hi);
      ASSERT_EQ(ob.responses.size(), batches[t][b].size());
      bool matched = false;
      for (uint64_t e = ob.epoch_lo; e <= ob.epoch_hi && !matched; ++e) {
        auto it = references.find(e);
        ASSERT_NE(it, references.end()) << "epoch " << e << " unrecorded";
        bool all = true;
        for (size_t i = 0; i < ob.responses.size() && all; ++i) {
          all = it->second->HandleFrame(batches[t][b][i]) == ob.responses[i];
        }
        matched = all;
      }
      EXPECT_TRUE(matched)
          << "thread " << t << " batch " << b
          << " answered bytes matching no single epoch in [" << ob.epoch_lo
          << ", " << ob.epoch_hi << "]";
    }
  }
}

}  // namespace
}  // namespace embellish::server
