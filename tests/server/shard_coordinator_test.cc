// Coordinator-over-transport equivalence: a ShardCoordinator fronting N
// slice servers must produce response frames byte-identical to both the
// PR 3 in-process sharded EmbellishServer and the monolithic server, for
// the PR, PIR and plaintext top-k paths, at 1/2/4/8 shards — plus endpoint
// protocol checks (ping, misrouting, epoch fencing). Byte-identity across a
// real socket is async_stack_test's.

#include "server/shard_coordinator.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "index/builder.h"
#include "server/session_client.h"
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
        org_(testutil::MakeBuckets(lex_, 4, 64)) {}

  // N slice servers, endpoints and in-process transports, plus the
  // coordinator fronting them.
  struct Rig {
    std::vector<std::unique_ptr<EmbellishServer>> slices;
    std::vector<std::unique_ptr<ShardEndpoint>> endpoints;
    std::vector<std::unique_ptr<InProcessTransport>> transports;
    std::unique_ptr<ShardCoordinator> coordinator;
  };

  Rig MakeRig(size_t shards, const ShardCoordinatorOptions& copts = {},
              const EmbellishServerOptions& slice_base = {}) {
    Rig rig;
    std::vector<ShardTransport*> raw;
    for (size_t s = 0; s < shards; ++s) {
      EmbellishServerOptions options = slice_base;
      options.shard_slice = s;
      options.shard_slice_count = shards;
      rig.slices.push_back(std::make_unique<EmbellishServer>(
          &built_.index, &org_, nullptr, options));
      EXPECT_TRUE(rig.slices.back()->serves_slice());
      rig.endpoints.push_back(
          std::make_unique<ShardEndpoint>(rig.slices.back().get(), s));
      rig.transports.push_back(
          std::make_unique<InProcessTransport>(rig.endpoints.back().get()));
      raw.push_back(rig.transports.back().get());
    }
    rig.coordinator =
        std::make_unique<ShardCoordinator>(std::move(raw), copts);
    return rig;
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
};

TEST_F(ShardCoordinatorTest, BitIdenticalToShardedAndMonolithicServers) {
  EmbellishServer mono(&built_.index, &org_, nullptr);
  SessionClient client = MakeClient(1, 501);
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmbellishServerOptions shard_options;
    shard_options.shard_count = shards;
    EmbellishServer sharded(&built_.index, &org_, nullptr, shard_options);
    Rig rig = MakeRig(shards);

    // Hello: the coordinator advertises the same global topology bytes as
    // the in-process sharded server.
    mono.HandleFrame(client.HelloFrame());
    auto sharded_hello = sharded.HandleFrame(client.HelloFrame());
    auto coord_hello = rig.coordinator->HandleFrame(client.HelloFrame());
    EXPECT_EQ(coord_hello, sharded_hello);
    ASSERT_EQ(KindOf(coord_hello), FrameKind::kHelloOk);
    EXPECT_EQ(rig.coordinator->bucket_count(), org_.bucket_count());

    // PR path: byte-identical frames from all three configurations.
    auto mono_resp = mono.HandleFrame(*request);
    auto sharded_resp = sharded.HandleFrame(*request);
    auto coord_resp = rig.coordinator->HandleFrame(*request);
    EXPECT_EQ(KindOf(coord_resp), FrameKind::kResult);
    EXPECT_EQ(coord_resp, mono_resp);
    EXPECT_EQ(coord_resp, sharded_resp);
    EXPECT_TRUE(client.DecodeResultFrame(coord_resp, 10).ok());

    // Top-k path.
    auto topk_request = EncodeFrame(FrameKind::kTopKQuery, 1,
                                    EncodeTopKQuery(10, SomeTerms(3, 71)));
    auto mono_topk = mono.HandleFrame(topk_request);
    auto sharded_topk = sharded.HandleFrame(topk_request);
    auto coord_topk = rig.coordinator->HandleFrame(topk_request);
    EXPECT_EQ(KindOf(coord_topk), FrameKind::kTopKResult);
    EXPECT_EQ(coord_topk, mono_topk);
    EXPECT_EQ(coord_topk, sharded_topk);

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

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmbellishServerOptions shard_options;
    shard_options.shard_count = shards;
    EmbellishServer sharded(&built_.index, &org_, nullptr, shard_options);
    Rig rig = MakeRig(shards);
    ASSERT_TRUE(rig.coordinator->Handshake().ok());

    std::vector<std::vector<index::Posting>> fragments;
    for (size_t shard = 0; shard < shards; ++shard) {
      auto request = EncodeFrame(
          FrameKind::kPirQuery, 12,
          EncodePirQuery(rig.coordinator->PirBucketField(shard, slot->bucket),
                         *query));
      auto sharded_resp = sharded.HandleFrame(request);
      auto coord_resp = rig.coordinator->HandleFrame(request);
      EXPECT_EQ(coord_resp, sharded_resp) << "shard " << shard;
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

    // Address validation matches the sharded server: saturated sentinel and
    // out-of-range shard both answered with typed errors.
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
  EmbellishServer mono(&built_.index, &org_, nullptr);
  EmbellishServerOptions shard_options;
  shard_options.shard_count = 3;
  EmbellishServer sharded(&built_.index, &org_, nullptr, shard_options);

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
    sharded.HandleFrame(clients.back().HelloFrame());
    batched.HandleFrame(clients.back().HelloFrame());
    auto req = clients.back().QueryFrame(SomeTerms(s + 2, 7 * s + 1));
    ASSERT_TRUE(req.ok());
    requests.push_back(std::move(*req));
  }

  auto responses = batched.HandleBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(responses[i], mono.HandleFrame(requests[i])) << "request " << i;
    EXPECT_EQ(responses[i], sharded.HandleFrame(requests[i]))
        << "request " << i;
  }
}

TEST_F(ShardCoordinatorTest, BatchedPirDispatchMatchesSerialAndSharded) {
  // Batched PIR through the coordinator: for a batch mixing shards and
  // moduli, dispatched over the pool, the coordinator's bytes must equal
  // both the serial coordinator path and the in-process sharded server.
  constexpr size_t kShards = 3;
  ThreadPool pool(4);
  EmbellishServerOptions shard_options;
  shard_options.shard_count = kShards;
  EmbellishServer sharded(&built_.index, &org_, nullptr, shard_options);

  Rig rig = MakeRig(kShards);
  std::vector<ShardTransport*> shared;
  for (auto& t : rig.transports) shared.push_back(t.get());
  ShardCoordinator batched(shared, {}, &pool);

  auto terms = built_.index.IndexedTerms();
  Rng rng(933);
  std::vector<std::vector<uint8_t>> requests;
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
      }
    }
  }

  auto responses = batched.HandleBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(KindOf(responses[i]), FrameKind::kPirResult) << "request " << i;
    EXPECT_EQ(responses[i], rig.coordinator->HandleFrame(requests[i]))
        << "request " << i;
    EXPECT_EQ(responses[i], sharded.HandleFrame(requests[i]))
        << "request " << i;
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
  EmbellishServer slice(&built_.index, &org_, nullptr, options);
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
  EmbellishServer mono(&built_.index, &org_, nullptr);
  mono.HandleFrame(a.HelloFrame());
  auto request = a.QueryFrame(SomeTerms(8, 21));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(rig.coordinator->HandleFrame(*request),
            mono.HandleFrame(*request));
  EXPECT_EQ(rig.coordinator->stats().queries, 1u);
}

}  // namespace
}  // namespace embellish::server
