// Answers across cutovers: after the catalog installs a delta, the server
// answers against the new epoch; a re-hello's replay is answered under the
// new key, not with the old bytes; a slice server refuses, typed, an epoch
// of another partition; the coordinator's answer after AdvanceEpoch equals
// its answer before; and AdvanceEpoch(groups) cuts the coordinator over to
// the slices of a resharded catalog.

#include <gtest/gtest.h>

#include <atomic>

#include "crypto/pir.h"
#include "index/epoch.h"
#include "index/topk.h"
#include "server/embellish_server.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "server/shard_transport.h"
#include "slice_rig.h"
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

  static Status ErrorOf(const std::vector<uint8_t>& response) {
    auto frame = DecodeFrame(response);
    if (!frame.ok()) return frame.status();
    if (frame->kind != FrameKind::kError) return Status::OK();
    Status carried;
    Status decoded = DecodeError(frame->payload, &carried);
    return decoded.ok() ? carried : decoded;
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

TEST_F(EpochCutoverTest, SliceServerRefusesAnEpochOfAnotherPartition) {
  // A slice server decides whether it may answer on the epoch it answers
  // from. After a 2 -> 4 Reshard, slice 0 of 2 has no slice to serve: its
  // requests, direct or through its ShardEndpoint, get a typed kUnavailable
  // — never the whole index, which a coordinator would merge with every
  // other slice's documents.
  auto catalog = MakeLiveCatalog(2);
  EmbellishServerOptions options;
  options.shard_slice = 0;
  options.shard_slice_count = 2;
  EmbellishServer slice(catalog.get(), options);
  ShardEndpoint endpoint(&slice, 0);
  EXPECT_TRUE(slice.serves_slice());

  SessionClient client = MakeClient(3, 303);
  ASSERT_EQ(DecodeFrame(slice.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  auto request = client.QueryFrame(SomeTerms(7, 29));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> before = slice.HandleFrame(*request);
  ASSERT_EQ(DecodeFrame(before)->kind, FrameKind::kResult);

  index::ShardingOptions wider;
  wider.shard_count = 4;
  ASSERT_TRUE(catalog->Reshard(wider).ok());

  EXPECT_TRUE(ErrorOf(slice.HandleFrame(*request)).IsUnavailable());
  EXPECT_TRUE(ErrorOf(slice.HandleFrame(client.HelloFrame())).IsUnavailable());
  EXPECT_FALSE(slice.slice_config_invalid());

  // Through the endpoint the envelope is answered, and its inner frame is
  // the typed error the coordinator passes through; a ping gets it too.
  for (const std::vector<uint8_t>& inner :
       {*request, std::vector<uint8_t>{}}) {
    auto outer = DecodeFrame(endpoint.HandleFrame(EncodeFrame(
        FrameKind::kShardRequest, 0, EncodeShardEnvelope(0, 1, 1, inner))));
    ASSERT_TRUE(outer.ok());
    ASSERT_EQ(outer->kind, FrameKind::kShardResponse);
    auto envelope = DecodeShardEnvelope(outer->payload);
    ASSERT_TRUE(envelope.ok());
    EXPECT_TRUE(ErrorOf(envelope->inner).IsUnavailable())
        << (inner.empty() ? "ping" : "query");
  }

  // Back on a 2-way partition of the same documents, the slice answers
  // again, with the same bytes.
  index::ShardingOptions narrower;
  narrower.shard_count = 2;
  ASSERT_TRUE(catalog->Reshard(narrower).ok());
  EXPECT_EQ(slice.HandleFrame(*request), before);
}

TEST_F(EpochCutoverTest, CoordinatorAnswerSurvivesAdvanceEpoch) {
  auto built = index::BuildIndex(corp_, {});
  ASSERT_TRUE(built.ok());
  testutil::SliceRig rig =
      testutil::MakeSliceRig(&built->index, org_.get(), 2);
  ShardCoordinator& coordinator = *rig.coordinator;

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

// Counts the round trips it forwards.
class CountingTransport : public ShardTransport {
 public:
  explicit CountingTransport(ShardTransport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    trips.fetch_add(1, std::memory_order_relaxed);
    return inner_->RoundTrip(request);
  }

  std::atomic<size_t> trips{0};

 private:
  ShardTransport* inner_;
};

TEST_F(EpochCutoverTest, CoordinatorCutsOverToTheSlicesOfAReshard) {
  auto catalog = MakeLiveCatalog(2);
  EmbellishServer mono(catalog.get());
  testutil::SliceRig two = testutil::MakeSliceRig(catalog.get(), 2);
  CountingTransport count0(two.transports[0].get());
  CountingTransport count1(two.transports[1].get());
  ShardCoordinator coordinator(std::vector<ShardTransport*>{&count0, &count1});

  SessionClient client = MakeClient(21, 521);
  mono.HandleFrame(client.HelloFrame());
  const std::vector<uint8_t> hello2 =
      coordinator.HandleFrame(client.HelloFrame());
  EXPECT_EQ(hello2, EncodeFrame(FrameKind::kHelloOk, 21,
                                EncodeHelloOk(2, org_->bucket_count())));
  auto request = client.QueryFrame(SomeTerms(7, 29));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> answer = mono.HandleFrame(*request);
  EXPECT_EQ(coordinator.HandleFrame(*request), answer);

  // A PIR field addressing shard 3 is out of range on two slices.
  auto where = org_->Locate(SomeTerms(11, 0)[0]);
  ASSERT_TRUE(where.ok());
  Rng rng(531);
  crypto::PirClient pir = std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = pir.BuildQuery(where->slot, org_->bucket(where->bucket).size(),
                              &rng);
  ASSERT_TRUE(query.ok());
  const std::vector<uint8_t> pir_request = EncodeFrame(
      FrameKind::kPirQuery, 21,
      EncodePirQuery(coordinator.PirBucketField(3, where->bucket), *query));
  EXPECT_TRUE(ErrorOf(coordinator.HandleFrame(pir_request)).IsOutOfRange());

  // Reshard, four new slices, and the cutover onto them.
  index::ShardingOptions wider;
  wider.shard_count = 4;
  ASSERT_TRUE(catalog->Reshard(wider).ok());
  testutil::SliceRig four = testutil::MakeSliceRig(catalog.get(), 4);
  const uint64_t epoch_before = coordinator.epoch();
  Status cutover = coordinator.AdvanceEpoch(four.groups());
  ASSERT_TRUE(cutover.ok()) << cutover.ToString();
  EXPECT_EQ(coordinator.epoch(), epoch_before + 1);
  EXPECT_EQ(coordinator.shard_count(), 4u);
  EXPECT_EQ(coordinator.replica_count(3), 1u);
  const size_t old_trips = count0.trips.load() + count1.trips.load();

  // The session registered before the cutover queries the new set without
  // a re-hello: the cutover re-pushed its key to every new slice.
  for (const auto& slice : four.slices) EXPECT_EQ(slice->session_count(), 1u);
  EXPECT_EQ(coordinator.HandleFrame(*request), answer);

  // Shard 3 now exists: the coordinator's answer is slice 3's local one.
  auto pir_answer = coordinator.HandleFrame(pir_request);
  EXPECT_EQ(pir_answer,
            four.slices[3]->HandleFrame(EncodeFrame(
                FrameKind::kPirQuery, 21,
                EncodePirQuery(where->bucket, *query))));
  ASSERT_EQ(DecodeFrame(pir_answer)->kind, FrameKind::kPirResult);

  // A new hello-ok advertises four shards.
  SessionClient late = MakeClient(22, 522);
  EXPECT_EQ(coordinator.HandleFrame(late.HelloFrame()),
            EncodeFrame(FrameKind::kHelloOk, 22,
                        EncodeHelloOk(4, org_->bucket_count())));

  // The old set carries no traffic after the swap.
  EXPECT_EQ(count0.trips.load() + count1.trips.load(), old_trips);
}

TEST_F(EpochCutoverTest, CutoverToABadSliceSetFailsTypedAndKeepsTheOldSet) {
  auto catalog = MakeLiveCatalog(2);
  testutil::SliceRig two = testutil::MakeSliceRig(catalog.get(), 2);
  ShardCoordinator& coordinator = *two.coordinator;
  const auto topk = EncodeFrame(FrameKind::kTopKQuery, 4,
                                EncodeTopKQuery(10, SomeTerms(5, 23)));
  const std::vector<uint8_t> answer = coordinator.HandleFrame(topk);
  ASSERT_EQ(DecodeFrame(answer)->kind, FrameKind::kTopKResult);

  // An empty set.
  EXPECT_TRUE(coordinator.AdvanceEpoch({}).IsInvalidArgument());
  EXPECT_EQ(coordinator.shard_count(), 2u);
  EXPECT_EQ(coordinator.HandleFrame(topk), answer);

  // A set whose slice 1 serves another bucket organization.
  const core::BucketOrganization other = testutil::MakeBuckets(lex_, 5, 64);
  ASSERT_NE(other.bucket_count(), org_->bucket_count());
  auto other_built = index::BuildIndex(corp_, {});
  ASSERT_TRUE(other_built.ok());
  EmbellishServerOptions options;
  options.shard_slice = 1;
  options.shard_slice_count = 2;
  auto stray_catalog = testutil::FreezeCatalog(&other_built->index, &other, 2);
  EmbellishServer stray(stray_catalog.get(), options);
  ShardEndpoint stray_endpoint(&stray, 1);
  InProcessTransport stray_transport(&stray_endpoint);
  Status cutover = coordinator.AdvanceEpoch(
      {{two.transports[0].get()}, {&stray_transport}});
  EXPECT_TRUE(cutover.IsFailedPrecondition()) << cutover.ToString();
  EXPECT_EQ(coordinator.shard_count(), 2u);
  EXPECT_EQ(coordinator.HandleFrame(topk), answer);
}

}  // namespace
}  // namespace embellish::server
