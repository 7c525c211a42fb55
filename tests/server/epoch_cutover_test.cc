// Answers across cutovers: after the catalog installs a delta, the server
// answers against the new epoch; a re-hello's replay is answered under the
// new key, not with the old bytes; and the coordinator's answer after
// AdvanceEpoch equals its answer before.

#include <gtest/gtest.h>

#include "index/epoch.h"
#include "index/topk.h"
#include "server/embellish_server.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "server/shard_transport.h"
#include "testutil.h"

namespace embellish::server {
namespace {

class EpochCutoverTest : public ::testing::Test {
 protected:
  EpochCutoverTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 911)),
        corp_(testutil::SmallCorpus(lex_, 130, 912)),
        org_(std::make_shared<core::BucketOrganization>(
            testutil::MakeBuckets(lex_, 4, 64))) {}

  std::unique_ptr<index::IndexCatalog> MakeLiveCatalog(size_t shards) {
    index::IndexCatalogOptions options;
    options.sharding.shard_count = shards;
    auto catalog = index::IndexCatalog::Create(corp_, org_, options);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return std::move(*catalog);
  }

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
      for (size_t t = 0; t < 40; ++t) {
        docs[d].tokens.push_back(terms[(salt + 13 * d + 5 * t) % terms.size()]);
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

TEST_F(EpochCutoverTest, PrAnswersAfterADeltaDecode) {
  auto catalog = MakeLiveCatalog(1);
  EmbellishServer server(catalog.get());
  SessionClient client = MakeClient(1, 101);
  server.HandleFrame(client.HelloFrame());

  auto request = client.QueryFrame(SomeTerms(3, 17));
  ASSERT_TRUE(request.ok());
  auto first = server.HandleFrame(*request);
  // Same epoch, same bytes: the same answer.
  EXPECT_EQ(server.HandleFrame(*request), first);

  // Cutover to epoch 2: the replay is answered against the new snapshot,
  // to which the delta may have added matching documents.
  ASSERT_TRUE(catalog->ApplyDelta(SomeDeltaDocs(8, 55)).ok());
  auto after = server.HandleFrame(*request);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.epoch_swaps, 1u);
  EXPECT_EQ(stats.delta_docs_ingested, 8u);
  EXPECT_TRUE(client.DecodeResultFrame(after, 10).ok());

  // The new epoch answers replays alike.
  EXPECT_EQ(server.HandleFrame(*request), after);
}

TEST_F(EpochCutoverTest, TopKAfterADeltaMatchesTheNewEpoch) {
  auto catalog = MakeLiveCatalog(2);
  EmbellishServer server(catalog.get());

  auto genuine = SomeTerms(5, 23);
  auto request = EncodeFrame(FrameKind::kTopKQuery, 6,
                             EncodeTopKQuery(10, genuine));
  auto first = server.HandleFrame(request);
  EXPECT_EQ(server.HandleFrame(request), first);

  // Delta docs dense in the query terms: the top-k genuinely changes, so an
  // answer from the old epoch would be a WRONG answer.
  std::vector<corpus::Document> docs(3);
  for (auto& doc : docs) {
    for (size_t i = 0; i < 50; ++i) doc.tokens.push_back(genuine[0]);
    doc.tokens.push_back(genuine[1]);
  }
  auto next = catalog->ApplyDelta(std::move(docs));
  ASSERT_TRUE(next.ok());

  auto after = server.HandleFrame(request);
  auto frame = DecodeFrame(after);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, FrameKind::kTopKResult);
  auto decoded = DecodeTopKResult(frame->payload);
  ASSERT_TRUE(decoded.ok());
  auto expected = index::EvaluateFull((*next)->index(), genuine);
  if (expected.size() > 10) expected.resize(10);
  EXPECT_EQ(*decoded, expected);
  EXPECT_NE(after, first);  // the ingested docs displaced the old top-k
}

TEST_F(EpochCutoverTest, ReHelloReplayIsNotTheOldAnswer) {
  // A re-hello under a fresh key, with no catalog cutover involved: the
  // replayed query is answered under the new key, never with the old bytes.
  auto catalog = MakeLiveCatalog(1);
  EmbellishServer server(catalog.get());

  SessionClient old_client = MakeClient(6, 306);
  server.HandleFrame(old_client.HelloFrame());
  auto request = old_client.QueryFrame(SomeTerms(11, 19));
  ASSERT_TRUE(request.ok());
  auto first = server.HandleFrame(*request);
  ASSERT_TRUE(old_client.DecodeResultFrame(first, 10).ok());

  // Same session id, different keypair.
  SessionClient new_client = MakeClient(6, 307);
  server.HandleFrame(new_client.HelloFrame());
  auto replayed = server.HandleFrame(*request);
  EXPECT_NE(replayed, first);
}

TEST_F(EpochCutoverTest, CoordinatorAnswerSurvivesAdvanceEpoch) {
  // Rig: two slice servers behind in-process transports and a coordinator.
  auto built = index::BuildIndex(corp_, {});
  ASSERT_TRUE(built.ok());
  constexpr size_t kSlices = 2;
  std::vector<std::unique_ptr<EmbellishServer>> slices;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints;
  std::vector<std::unique_ptr<InProcessTransport>> transports;
  std::vector<ShardTransport*> raw;
  for (size_t s = 0; s < kSlices; ++s) {
    EmbellishServerOptions slice_options;
    slice_options.shard_slice = s;
    slice_options.shard_slice_count = kSlices;
    slices.push_back(std::make_unique<EmbellishServer>(
        &built->index, org_.get(), nullptr, slice_options));
    endpoints.push_back(
        std::make_unique<ShardEndpoint>(slices.back().get(), s));
    transports.push_back(
        std::make_unique<InProcessTransport>(endpoints.back().get()));
    raw.push_back(transports.back().get());
  }
  ShardCoordinator coordinator(std::move(raw));

  SessionClient client = MakeClient(9, 409);
  ASSERT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  auto request = client.QueryFrame(SomeTerms(7, 29));
  ASSERT_TRUE(request.ok());
  auto first = coordinator.HandleFrame(*request);
  ASSERT_TRUE(client.DecodeResultFrame(first, 10).ok());
  EXPECT_EQ(coordinator.HandleFrame(*request), first);
  const uint64_t epoch_before = coordinator.epoch();

  // The cutover: the fencing epoch bumps, slices re-handshake under it and
  // the registered session is re-pushed. The replay is merged again under
  // the new epoch, bit-identical here because the slices' index did not
  // actually change.
  ASSERT_TRUE(coordinator.AdvanceEpoch().ok());
  EXPECT_EQ(coordinator.epoch(), epoch_before + 1);
  EXPECT_EQ(coordinator.stats().epoch_swaps, 1u);
  auto after = coordinator.HandleFrame(*request);
  EXPECT_EQ(after, first);
  // The session survived the cutover without a client-visible re-hello.
  EXPECT_TRUE(client.DecodeResultFrame(after, 10).ok());
}

}  // namespace
}  // namespace embellish::server
