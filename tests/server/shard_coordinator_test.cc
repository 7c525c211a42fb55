// Coordinator-over-transport equivalence: a ShardCoordinator fronting N
// slice servers must produce PR and plaintext top-k frames byte-identical
// to the monolithic server's, and PIR frames equal to the addressed slice's
// own answer whose fragments merge into the monolithic list, at 1/2/4/8
// shards of a kDocRange and a kDocHash partition — plus endpoint protocol
// checks (ping, misrouting, epoch fencing). Byte-identity across a real
// socket is async_stack_test's.

#include "server/shard_coordinator.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "index/builder.h"
#include "index/epoch.h"
#include "server/session_client.h"
#include "slice_rig.h"
#include "testutil.h"
#include "transcript.h"

namespace embellish::server {
namespace {

class ShardCoordinatorTest : public ::testing::Test {
 protected:
  ShardCoordinatorTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 211)),
        corp_(testutil::SmallCorpus(lex_, 150, 212)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)),
        catalog_(testutil::FreezeCatalog(&built_.index, &org_)) {}

  // N slice servers of a kDocRange partition, endpoints and in-process
  // transports, plus the coordinator fronting them.
  using Rig = testutil::SliceRig;
  Rig MakeRig(size_t shards, const ShardCoordinatorOptions& copts = {},
              const EmbellishServerOptions& slice_base = {}) {
    return testutil::MakeSliceRig(&built_.index, &org_, shards, copts,
                                  slice_base);
  }

  SessionClient MakeClient(uint64_t session_id, uint64_t seed) {
    crypto::BenalohKeyOptions ko;
    ko.key_bits = 256;
    ko.r = 59049;
    return std::move(SessionClient::Create(session_id, &org_, ko, seed))
        .value();
  }

  std::vector<wordnet::TermId> SomeTerms(size_t a, size_t b) {
    auto terms = built_.index.IndexedTerms();
    return {terms[a % terms.size()], terms[b % terms.size()]};
  }

  static FrameKind KindOf(const std::vector<uint8_t>& response) {
    auto frame = DecodeFrame(response);
    return frame.ok() ? frame->kind : FrameKind::kError;
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  index::BuildOutput built_;
  core::BucketOrganization org_;
  std::unique_ptr<index::IndexCatalog> catalog_;
};

TEST_F(ShardCoordinatorTest, BitIdenticalToTheMonolithicServer) {
  EmbellishServer mono(catalog_.get());
  SessionClient client = MakeClient(1, 501);
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Rig rig = MakeRig(shards);

    // Hello: the coordinator advertises the global topology.
    mono.HandleFrame(client.HelloFrame());
    auto coord_hello = rig.coordinator->HandleFrame(client.HelloFrame());
    EXPECT_EQ(coord_hello,
              EncodeFrame(FrameKind::kHelloOk, 1,
                          EncodeHelloOk(shards, org_.bucket_count())));
    EXPECT_EQ(rig.coordinator->bucket_count(), org_.bucket_count());

    // PR path.
    auto mono_resp = mono.HandleFrame(*request);
    auto coord_resp = rig.coordinator->HandleFrame(*request);
    EXPECT_EQ(KindOf(coord_resp), FrameKind::kResult);
    EXPECT_EQ(coord_resp, mono_resp);
    EXPECT_TRUE(client.DecodeResultFrame(coord_resp, 10).ok());

    // Top-k path.
    auto topk_request = EncodeFrame(FrameKind::kTopKQuery, 1,
                                    EncodeTopKQuery(10, SomeTerms(3, 71)));
    auto mono_topk = mono.HandleFrame(topk_request);
    auto coord_topk = rig.coordinator->HandleFrame(topk_request);
    EXPECT_EQ(KindOf(coord_topk), FrameKind::kTopKResult);
    EXPECT_EQ(coord_topk, mono_topk);

    CoordinatorStats stats = rig.coordinator->stats();
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.topk_queries, 1u);
    EXPECT_EQ(stats.errors, 0u);
  }
}

TEST_F(ShardCoordinatorTest, PirPathBitIdenticalPerShard) {
  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[29]);
  ASSERT_TRUE(slot.ok());
  Rng rng(911);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = pir_client.BuildQuery(slot->slot,
                                     org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());

  const auto local_request = EncodeFrame(
      FrameKind::kPirQuery, 12, EncodePirQuery(slot->bucket, *query));
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Rig rig = MakeRig(shards);
    ASSERT_TRUE(rig.coordinator->Handshake().ok());

    std::vector<std::vector<index::Posting>> fragments;
    for (size_t shard = 0; shard < shards; ++shard) {
      auto request = EncodeFrame(
          FrameKind::kPirQuery, 12,
          EncodePirQuery(rig.coordinator->PirBucketField(shard, slot->bucket),
                         *query));
      auto coord_resp = rig.coordinator->HandleFrame(request);
      // The addressed slice's own answer to the slice-local address.
      EXPECT_EQ(coord_resp, rig.slices[shard]->HandleFrame(local_request))
          << "shard " << shard;
      auto frame = DecodeFrame(coord_resp);
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(frame->kind, FrameKind::kPirResult) << "shard " << shard;
      auto decoded = DecodePirResponse(frame->payload);
      ASSERT_TRUE(decoded.ok());
      auto bits = pir_client.DecodeResponse(*decoded);
      ASSERT_TRUE(bits.ok());
      auto fragment = core::PostingsFromColumnBits(*bits);
      ASSERT_TRUE(fragment.ok());
      fragments.push_back(std::move(*fragment));
    }
    // The per-shard fragments reassemble the term's monolithic list.
    EXPECT_EQ(index::MergeShardPostings(fragments),
              *built_.index.postings(terms[29]));

    // Address validation: the saturated sentinel and an out-of-range shard
    // are both answered with typed errors.
    auto saturated = rig.coordinator->HandleFrame(EncodeFrame(
        FrameKind::kPirQuery, 12, EncodePirQuery(SIZE_MAX, *query)));
    EXPECT_EQ(KindOf(saturated), FrameKind::kError);
    auto out_of_range = rig.coordinator->HandleFrame(EncodeFrame(
        FrameKind::kPirQuery, 12,
        EncodePirQuery(rig.coordinator->PirBucketField(shards + 3,
                                                       slot->bucket),
                       *query)));
    EXPECT_EQ(KindOf(out_of_range), FrameKind::kError);
  }
}

TEST_F(ShardCoordinatorTest, BatchedDispatchMatchesSerial) {
  ThreadPool pool(4);
  EmbellishServer mono(catalog_.get());

  Rig rig = MakeRig(3);
  // Batched coordinator dispatch spreads the requests over the caller's
  // pool; each request's fan-out runs on the worker that took it.
  std::vector<ShardTransport*> shared;
  for (auto& t : rig.transports) shared.push_back(t.get());
  ShardCoordinator batched(shared, {}, &pool);

  std::vector<SessionClient> clients;
  std::vector<std::vector<uint8_t>> requests;
  for (size_t s = 0; s < 5; ++s) {
    clients.push_back(MakeClient(700 + s, 800 + s));
    mono.HandleFrame(clients.back().HelloFrame());
    batched.HandleFrame(clients.back().HelloFrame());
    auto req = clients.back().QueryFrame(SomeTerms(s + 2, 7 * s + 1));
    ASSERT_TRUE(req.ok());
    requests.push_back(std::move(*req));
  }

  auto responses = batched.HandleBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i], mono.HandleFrame(requests[i])) << "request " << i;
  }
}

TEST_F(ShardCoordinatorTest, BatchedPirDispatchMatchesSerial) {
  // Batched PIR through the coordinator: for a batch mixing shards and
  // moduli, dispatched over the pool, the coordinator's bytes must equal
  // the serial coordinator path and the addressed slices' own answers.
  constexpr size_t kShards = 3;
  ThreadPool pool(4);

  Rig rig = MakeRig(kShards);
  std::vector<ShardTransport*> shared;
  for (auto& t : rig.transports) shared.push_back(t.get());
  ShardCoordinator batched(shared, {}, &pool);

  auto terms = built_.index.IndexedTerms();
  Rng rng(933);
  ASSERT_TRUE(batched.Handshake().ok());
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> slice_answers;
  for (size_t c = 0; c < 2; ++c) {
    crypto::PirClient pir_client =
        std::move(crypto::PirClient::Create(256, &rng)).value();
    for (size_t q = 0; q < 2; ++q) {
      auto slot = org_.Locate(terms[(31 * c + 13 * q + 3) % terms.size()]);
      ASSERT_TRUE(slot.ok());
      auto query = pir_client.BuildQuery(
          slot->slot, org_.bucket(slot->bucket).size(), &rng);
      ASSERT_TRUE(query.ok());
      for (size_t shard = 0; shard < kShards; ++shard) {
        requests.push_back(EncodeFrame(
            FrameKind::kPirQuery, 900 + c,
            EncodePirQuery(batched.PirBucketField(shard, slot->bucket),
                           *query)));
        slice_answers.push_back(rig.slices[shard]->HandleFrame(EncodeFrame(
            FrameKind::kPirQuery, 900 + c,
            EncodePirQuery(slot->bucket, *query))));
      }
    }
  }

  auto responses = batched.HandleBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(KindOf(responses[i]), FrameKind::kPirResult) << "request " << i;
    EXPECT_EQ(responses[i], rig.coordinator->HandleFrame(requests[i]))
        << "request " << i;
    EXPECT_EQ(responses[i], slice_answers[i]) << "request " << i;
  }
}

TEST_F(ShardCoordinatorTest, DocHashSlicesMatchTheMonolithicServer) {
  // The hash partition through the coordinator: PR and top-k bytes equal
  // the monolithic server's, and each slice's PIR fragment of a term's
  // list merges (MergeShardPostings) into the monolithic list.
  EmbellishServer mono(catalog_.get());
  SessionClient client = MakeClient(2, 502);
  mono.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  const auto topk = EncodeFrame(FrameKind::kTopKQuery, 2,
                                EncodeTopKQuery(10, SomeTerms(3, 71)));

  const wordnet::TermId term = built_.index.IndexedTerms()[29];
  auto slot = org_.Locate(term);
  ASSERT_TRUE(slot.ok());
  Rng rng(913);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = pir_client.BuildQuery(slot->slot,
                                     org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());

  for (size_t shards : {2u, 3u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    index::IndexCatalogOptions options;
    options.sharding.shard_count = shards;
    options.sharding.partition = index::ShardPartition::kDocHash;
    auto catalog = index::IndexCatalog::Freeze(&built_.index, &org_, options);
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    Rig rig = testutil::MakeSliceRig(catalog->get(), shards);

    ASSERT_EQ(KindOf(rig.coordinator->HandleFrame(client.HelloFrame())),
              FrameKind::kHelloOk);
    EXPECT_EQ(rig.coordinator->HandleFrame(*request),
              mono.HandleFrame(*request));
    EXPECT_EQ(rig.coordinator->HandleFrame(topk), mono.HandleFrame(topk));

    std::vector<std::vector<index::Posting>> fragments;
    for (size_t shard = 0; shard < shards; ++shard) {
      auto frame = DecodeFrame(rig.coordinator->HandleFrame(EncodeFrame(
          FrameKind::kPirQuery, 2,
          EncodePirQuery(rig.coordinator->PirBucketField(shard, slot->bucket),
                         *query))));
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(frame->kind, FrameKind::kPirResult) << "shard " << shard;
      auto decoded = DecodePirResponse(frame->payload);
      ASSERT_TRUE(decoded.ok());
      auto bits = pir_client.DecodeResponse(*decoded);
      ASSERT_TRUE(bits.ok());
      auto fragment = core::PostingsFromColumnBits(*bits);
      ASSERT_TRUE(fragment.ok());
      fragments.push_back(std::move(*fragment));
    }
    EXPECT_EQ(index::MergeShardPostings(fragments),
              *built_.index.postings(term));
  }
}

TEST_F(ShardCoordinatorTest, TranscriptHidesWhichQueriesRepeat) {
  // The server test's transcript case through a 2-slice coordinator:
  // session A issues {a1, b1} twice, session B issues {a1, b1} and then
  // {a2, b2}, and the fan-out and merge must not tell them apart.
  const testutil::TwoBucketTerms t =
      testutil::PickTwoBucketTerms(built_.index.IndexedTerms(), org_);
  Rig rig = MakeRig(2);
  SessionClient a = MakeClient(53, 953);
  SessionClient b = MakeClient(54, 954);
  ASSERT_EQ(KindOf(rig.coordinator->HandleFrame(a.HelloFrame())),
            FrameKind::kHelloOk);
  ASSERT_EQ(KindOf(rig.coordinator->HandleFrame(b.HelloFrame())),
            FrameKind::kHelloOk);

  auto [ta, tb] = testutil::RepeatedAndDistinctQueries(a, b, t);
  auto serve = [&](const std::vector<uint8_t>& request) {
    return rig.coordinator->HandleFrame(request);
  };
  testutil::AnswerEach(&ta, serve);
  testutil::AnswerEach(&tb, serve);
  for (const auto& response : ta.responses) {
    EXPECT_TRUE(a.DecodeResultFrame(response, 10).ok());
  }
  for (const auto& response : tb.responses) {
    EXPECT_TRUE(b.DecodeResultFrame(response, 10).ok());
  }
  testutil::ExpectIndistinguishable(ta, tb);
}

TEST_F(ShardCoordinatorTest, ShedTranscriptHidesWhichQueriesRepeat) {
  // The server test's shedding case through a 2-slice coordinator: each
  // session's two requests follow a third session's filler in one batch, so
  // the coordinator's admission sheds both sessions alike.
  const testutil::TwoBucketTerms t =
      testutil::PickTwoBucketTerms(built_.index.IndexedTerms(), org_);
  for (size_t max_inflight : {1u, 2u}) {
    SCOPED_TRACE("max_inflight " + std::to_string(max_inflight));
    ShardCoordinatorOptions copts;
    copts.max_inflight = max_inflight;
    Rig rig = MakeRig(2, copts);
    SessionClient a = MakeClient(73, 973);
    SessionClient b = MakeClient(74, 974);
    SessionClient filler = MakeClient(75, 975);
    for (SessionClient* client : {&a, &b, &filler}) {
      ASSERT_EQ(KindOf(rig.coordinator->HandleFrame(client->HelloFrame())),
                FrameKind::kHelloOk);
    }

    auto [ta, tb] = testutil::RepeatedAndDistinctQueries(a, b, t);
    const uint64_t shed = testutil::AnswerBehindFiller(
        &ta, &tb, max_inflight,
        [&] { return std::move(filler.QueryFrame(SomeTerms(11, 17))).value(); },
        [&](const std::vector<std::vector<uint8_t>>& batch) {
          return rig.coordinator->HandleBatch(batch);
        });
    testutil::ExpectIndistinguishable(ta, tb);
    EXPECT_EQ(shed, 2 * (3 - max_inflight));
    EXPECT_EQ(rig.coordinator->stats().shed, shed);
  }
}

TEST_F(ShardCoordinatorTest, PirModulusPastTheBoundIsRefused) {
  // The coordinator decodes PIR frames with the server's decoder, so a
  // modulus one byte past the bound gets a typed error and reaches no
  // slice; the next honest frame is answered.
  Rig rig = MakeRig(2);
  ASSERT_TRUE(rig.coordinator->Handshake().ok());
  const wordnet::TermId term = built_.index.IndexedTerms()[29];
  auto where = org_.Locate(term);
  ASSERT_TRUE(where.ok());
  const size_t cols = org_.bucket(where->bucket).size();
  const size_t field = rig.coordinator->PirBucketField(1, where->bucket);
  Rng rng(982);

  crypto::PirQuery wide;
  wide.n = (bignum::RandomBits(crypto::kMaxPirModulusBits + 7, &rng) << 1) +
           bignum::BigInt(1);
  for (size_t j = 0; j < cols; ++j) {
    wide.q.push_back(bignum::RandomBelow(wide.n, &rng));
  }
  auto refused = DecodeFrame(rig.coordinator->HandleFrame(
      EncodeFrame(FrameKind::kPirQuery, 82, EncodePirQuery(field, wide))));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, FrameKind::kError);
  Status transported;
  ASSERT_TRUE(DecodeError(refused->payload, &transported).ok());
  EXPECT_TRUE(transported.IsCorruption()) << transported.ToString();
  EXPECT_EQ(rig.coordinator->stats().pir_queries, 0u);
  for (const auto& slice : rig.slices) {
    EXPECT_EQ(slice->stats().pir_queries, 0u);
  }

  crypto::PirClient client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = client.BuildQuery(where->slot, cols, &rng);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(EncodeFrame(
                FrameKind::kPirQuery, 82, EncodePirQuery(field, *query)))),
            FrameKind::kPirResult);
  EXPECT_EQ(rig.coordinator->stats().pir_queries, 1u);
  EXPECT_EQ(rig.slices[1]->stats().pir_queries, 1u);
}

TEST_F(ShardCoordinatorTest, HelloKeyPastTheBoundIsRefused) {
  // The coordinator decodes hellos with the server's decoder, so a modulus
  // one byte wider than any BenalohKeyPair::Generate makes gets a typed
  // error, registers nothing, and reaches no slice.
  Rig rig = MakeRig(2);
  ASSERT_TRUE(rig.coordinator->Handshake().ok());
  Rng rng(983);
  auto refused = DecodeFrame(rig.coordinator->HandleFrame(EncodeFrame(
      FrameKind::kHello, 83,
      EncodeHello(testutil::OversizedBenalohKey(&rng)))));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, FrameKind::kError);
  Status transported;
  ASSERT_TRUE(DecodeError(refused->payload, &transported).ok());
  EXPECT_EQ(transported.ToString(),
            "Corruption: hello modulus size 513 outside (0, 512]");
  EXPECT_EQ(rig.coordinator->session_count(), 0u);
  for (const auto& slice : rig.slices) {
    EXPECT_EQ(slice->session_count(), 0u);
    EXPECT_EQ(slice->stats().frames, 0u);
  }
}

TEST_F(ShardCoordinatorTest, ReHelloReplayFansOutAgain) {
  // Identical request bytes after a re-hello fan out to every slice again
  // and merge to the same bytes.
  constexpr size_t kShards = 3;
  Rig rig = MakeRig(kShards);
  SessionClient client = MakeClient(42, 942);
  rig.coordinator->HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(5, 23));
  ASSERT_TRUE(request.ok());

  auto first = rig.coordinator->HandleFrame(*request);
  ASSERT_EQ(KindOf(first), FrameKind::kResult);

  ASSERT_EQ(KindOf(rig.coordinator->HandleFrame(client.HelloFrame())),
            FrameKind::kHelloOk);
  const uint64_t trips_after_rehello = rig.coordinator->stats().shard_trips;

  // Same bytes: a fresh fan-out (one trip per shard). The key did not
  // change, so the recomputed merge is byte-identical.
  auto replay = rig.coordinator->HandleFrame(*request);
  EXPECT_EQ(replay, first);
  EXPECT_EQ(rig.coordinator->stats().shard_trips,
            trips_after_rehello + kShards);
}

TEST_F(ShardCoordinatorTest, EndpointValidatesEnvelopes) {
  EmbellishServerOptions options;
  options.shard_slice = 0;
  options.shard_slice_count = 2;
  auto halves = testutil::FreezeCatalog(&built_.index, &org_, 2);
  EmbellishServer slice(halves.get(), options);
  ShardEndpoint endpoint(&slice, /*shard_id=*/0);

  auto error_status = [](const std::vector<uint8_t>& response) {
    auto frame = DecodeFrame(response);
    EXPECT_TRUE(frame.ok());
    EXPECT_EQ(frame->kind, FrameKind::kError);
    Status transported;
    EXPECT_TRUE(DecodeError(frame->payload, &transported).ok());
    return transported;
  };

  // Ping: kShardResponse wrapping the slice's topology (monolithic from its
  // own point of view — the coordinator owns the global fan-out).
  auto ping = EncodeFrame(FrameKind::kShardRequest, 0,
                          EncodeShardEnvelope(0, 5, 1, {}));
  auto ping_resp = DecodeFrame(endpoint.HandleFrame(ping));
  ASSERT_TRUE(ping_resp.ok());
  ASSERT_EQ(ping_resp->kind, FrameKind::kShardResponse);
  auto envelope = DecodeShardEnvelope(ping_resp->payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->shard_id, 0u);
  EXPECT_EQ(envelope->epoch, 5u);
  EXPECT_EQ(envelope->seq, 1u);
  auto inner = DecodeFrame(envelope->inner);
  ASSERT_TRUE(inner.ok());
  ASSERT_EQ(inner->kind, FrameKind::kHelloOk);
  auto topology = DecodeHelloOk(inner->payload);
  ASSERT_TRUE(topology.ok());
  EXPECT_EQ(topology->shard_count, 1u);
  EXPECT_EQ(topology->bucket_count, org_.bucket_count());

  // A bare (non-envelope) request frame is refused.
  auto bare = EncodeFrame(FrameKind::kTopKQuery, 3, EncodeTopKQuery(5, {1}));
  EXPECT_TRUE(error_status(endpoint.HandleFrame(bare)).IsInvalidArgument());

  // A misrouted envelope is refused.
  auto misrouted = EncodeFrame(FrameKind::kShardRequest, 0,
                               EncodeShardEnvelope(1, 5, 2, {}));
  EXPECT_TRUE(
      error_status(endpoint.HandleFrame(misrouted)).IsFailedPrecondition());

  // Epoch fencing: once epoch 5 has been seen, a lower epoch is refused and
  // a higher one is adopted.
  auto stale = EncodeFrame(FrameKind::kShardRequest, 0,
                           EncodeShardEnvelope(0, 4, 3, {}));
  EXPECT_TRUE(
      error_status(endpoint.HandleFrame(stale)).IsFailedPrecondition());
  auto newer = EncodeFrame(FrameKind::kShardRequest, 0,
                           EncodeShardEnvelope(0, 6, 4, {}));
  EXPECT_EQ(KindOf(endpoint.HandleFrame(newer)), FrameKind::kShardResponse);
  auto now_stale = EncodeFrame(FrameKind::kShardRequest, 0,
                               EncodeShardEnvelope(0, 5, 5, {}));
  EXPECT_TRUE(
      error_status(endpoint.HandleFrame(now_stale)).IsFailedPrecondition());
}

TEST_F(ShardCoordinatorTest, SupersededCoordinatorIsFencedOut) {
  Rig rig = MakeRig(2);
  std::vector<ShardTransport*> raw;
  for (auto& t : rig.transports) raw.push_back(t.get());

  ShardCoordinatorOptions new_options;
  new_options.epoch = 7;  // the replacement announces a higher epoch
  ShardCoordinator replacement(raw, new_options);

  SessionClient client = MakeClient(40, 540);
  // Old coordinator (epoch 1) works until the replacement handshakes.
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(client.HelloFrame())),
            FrameKind::kHelloOk);
  EXPECT_EQ(KindOf(replacement.HandleFrame(client.HelloFrame())),
            FrameKind::kHelloOk);
  // Now the superseded coordinator's envelopes are refused by the shards
  // and surface as typed errors, never hangs or silent merges.
  auto request = client.QueryFrame(SomeTerms(4, 9));
  ASSERT_TRUE(request.ok());
  auto old_resp = rig.coordinator->HandleFrame(*request);
  auto frame = DecodeFrame(old_resp);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, FrameKind::kError);
  Status transported;
  ASSERT_TRUE(DecodeError(frame->payload, &transported).ok());
  EXPECT_TRUE(transported.IsUnavailable());
  // The live coordinator is unaffected.
  EXPECT_EQ(KindOf(replacement.HandleFrame(*request)), FrameKind::kResult);
}

TEST_F(ShardCoordinatorTest, IdleSessionSweepBoundsCoordinatorKeyMemory) {
  // The coordinator mirrors the server's idle expiry: a registration storm
  // of throwaway ids cannot pin keys or lock genuine new sessions out
  // forever at the coordination tier either.
  ShardCoordinatorOptions copts;
  copts.max_sessions = 2;
  copts.session_idle_frames = 4;
  Rig rig = MakeRig(2, copts);

  SessionClient a = MakeClient(50, 550);
  SessionClient b = MakeClient(51, 551);
  SessionClient late = MakeClient(52, 552);
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(a.HelloFrame())),
            FrameKind::kHelloOk);
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(b.HelloFrame())),
            FrameKind::kHelloOk);
  // Full, nothing idle: refused.
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(late.HelloFrame())),
            FrameKind::kError);
  EXPECT_EQ(rig.coordinator->session_count(), 2u);

  // Keep session 50 active (top-k frames count as activity) while 51 idles
  // past the horizon.
  for (size_t i = 0; i < 8; ++i) {
    rig.coordinator->HandleFrame(
        EncodeFrame(FrameKind::kTopKQuery, 50, EncodeTopKQuery(3, {1})));
  }
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(late.HelloFrame())),
            FrameKind::kHelloOk);
  EXPECT_LE(rig.coordinator->session_count(), 2u);
  EXPECT_EQ(rig.coordinator->stats().sessions_expired, 1u);

  // The active session's key survived: its PR query still answers.
  auto request = a.QueryFrame(SomeTerms(5, 17));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(*request)),
            FrameKind::kResult);
}

TEST_F(ShardCoordinatorTest, SelfHealsAShardThatLostTheSession) {
  // A shard can lose a session it once acknowledged — process restart, or
  // its own idle sweep firing while the session's traffic never touched
  // it. The coordinator must not fail that session's queries forever: on a
  // shard's "session has not sent a hello frame" answer it re-registers
  // the session from its own key table and retries once, transparently.
  EmbellishServerOptions slice_base;
  slice_base.max_sessions = 1;
  slice_base.session_idle_frames = 1;  // aggressively forgetful shards
  Rig rig = MakeRig(2, {}, slice_base);

  SessionClient a = MakeClient(60, 560);
  SessionClient b = MakeClient(61, 561);
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(a.HelloFrame())),
            FrameKind::kHelloOk);
  // Traffic that does not touch session 60 advances the slices' clocks...
  for (size_t i = 0; i < 2; ++i) {
    rig.coordinator->HandleFrame(
        EncodeFrame(FrameKind::kTopKQuery, 0, EncodeTopKQuery(3, {1})));
  }
  // ...so b's hello sweeps 60 out of every slice's (capacity-1) table.
  EXPECT_EQ(KindOf(rig.coordinator->HandleFrame(b.HelloFrame())),
            FrameKind::kHelloOk);
  EXPECT_GT(rig.slices[0]->stats().sessions_expired, 0u);

  // Session 60's query still answers — bit-identical to the monolithic
  // server — because the coordinator repaired the registration in-flight.
  EmbellishServer mono(catalog_.get());
  mono.HandleFrame(a.HelloFrame());
  auto request = a.QueryFrame(SomeTerms(8, 21));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(rig.coordinator->HandleFrame(*request),
            mono.HandleFrame(*request));
  EXPECT_EQ(rig.coordinator->stats().queries, 1u);
}

}  // namespace
}  // namespace embellish::server
