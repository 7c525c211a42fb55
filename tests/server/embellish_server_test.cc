// End-to-end request loop: SessionClients speaking the framed protocol to an
// EmbellishServer must get byte-identical answers to driving the layers by
// hand, across many concurrent sessions, batched or not; a session's PR or
// PIR transcript must not show the server which of its queries repeat; and
// a hostile frame must produce a kError response, never take the loop down.

#include "server/embellish_server.h"

#include <gtest/gtest.h>

#include "bignum/modmath.h"
#include "core/wire_format.h"
#include "index/builder.h"
#include "server/session_client.h"
#include "slice_rig.h"
#include "testutil.h"
#include "transcript.h"

namespace embellish::server {
namespace {

class EmbellishServerTest : public ::testing::Test {
 protected:
  EmbellishServerTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 211)),
        corp_(testutil::SmallCorpus(lex_, 150, 212)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)),
        catalog_(testutil::FreezeCatalog(&built_.index, &org_)) {}

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

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  index::BuildOutput built_;
  core::BucketOrganization org_;
  std::unique_ptr<index::IndexCatalog> catalog_;
};

TEST_F(EmbellishServerTest, HelloThenQueryMatchesDirectPipeline) {
  EmbellishServer server(catalog_.get());
  SessionClient client = MakeClient(1, 301);

  auto hello_resp = server.HandleFrame(client.HelloFrame());
  auto hello_frame = DecodeFrame(hello_resp);
  ASSERT_TRUE(hello_frame.ok());
  EXPECT_EQ(hello_frame->kind, FrameKind::kHelloOk);
  EXPECT_EQ(server.session_count(), 1u);
  // The hello-ok advertises the retrieval topology.
  auto topology = DecodeHelloOk(hello_frame->payload);
  ASSERT_TRUE(topology.ok());
  EXPECT_EQ(topology->shard_count, 1u);
  EXPECT_EQ(topology->bucket_count, org_.bucket_count());

  auto genuine = SomeTerms(3, 71);
  auto request = client.QueryFrame(genuine);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto response = server.HandleFrame(*request);
  auto top = client.DecodeResultFrame(response, 10);
  ASSERT_TRUE(top.ok()) << top.status().ToString();

  // The same query payload answered by a bare PrivateRetrievalServer must
  // produce the same encrypted result the server framed.
  auto req_frame = DecodeFrame(*request);
  ASSERT_TRUE(req_frame.ok());
  auto query = core::DecodeQuery(req_frame->payload, client.public_key());
  ASSERT_TRUE(query.ok());
  core::PrivateRetrievalServer direct(&built_.index, &org_, nullptr);
  auto direct_result = direct.Process(*query, client.public_key(), nullptr);
  ASSERT_TRUE(direct_result.ok());
  auto resp_frame = DecodeFrame(response);
  ASSERT_TRUE(resp_frame.ok());
  EXPECT_EQ(resp_frame->kind, FrameKind::kResult);
  EXPECT_EQ(resp_frame->payload,
            core::EncodeResult(*direct_result, client.public_key()));
}

TEST_F(EmbellishServerTest, QueryBeforeHelloIsRejectedNotFatal) {
  EmbellishServer server(catalog_.get());
  SessionClient client = MakeClient(2, 302);
  auto request = client.QueryFrame(SomeTerms(5, 9));
  ASSERT_TRUE(request.ok());
  auto response = server.HandleFrame(*request);
  auto top = client.DecodeResultFrame(response, 10);
  ASSERT_FALSE(top.ok());
  EXPECT_TRUE(top.status().IsFailedPrecondition());
  // The loop survives: hello then retry succeeds.
  server.HandleFrame(client.HelloFrame());
  auto retry = server.HandleFrame(*request);
  EXPECT_TRUE(client.DecodeResultFrame(retry, 10).ok());
}

TEST_F(EmbellishServerTest, MalformedFramesGetErrorResponses) {
  EmbellishServer server(catalog_.get());
  SessionClient client = MakeClient(3, 303);
  server.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(2, 4));
  ASSERT_TRUE(request.ok());

  std::vector<std::vector<uint8_t>> hostile;
  hostile.push_back({});                                    // empty
  hostile.push_back({1, 2, 3});                             // short
  hostile.push_back(std::vector<uint8_t>(4096, 0xFF));      // junk
  auto flipped = *request;
  flipped[kFrameHeaderBytes + 2] ^= 0x40;                   // payload flip
  hostile.push_back(flipped);
  auto truncated = *request;
  truncated.resize(truncated.size() - 5);                   // truncation
  hostile.push_back(truncated);

  for (const auto& bytes : hostile) {
    auto response = server.HandleFrame(bytes);
    auto frame = DecodeFrame(response);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->kind, FrameKind::kError);
  }
  EXPECT_EQ(server.stats().errors, hostile.size());
  // A well-formed query still works afterwards.
  auto response = server.HandleFrame(*request);
  EXPECT_TRUE(client.DecodeResultFrame(response, 10).ok());
}

TEST_F(EmbellishServerTest, RepeatedQueryIsEncryptedAfresh) {
  EmbellishServer server(catalog_.get());
  SessionClient client = MakeClient(4, 304);
  server.HandleFrame(client.HelloFrame());

  auto genuine = SomeTerms(7, 13);
  auto first_req = client.QueryFrame(genuine);
  ASSERT_TRUE(first_req.ok());
  auto first_resp = server.HandleFrame(*first_req);

  // A repeated genuine-term set goes out as different bytes of the same
  // size, and its answer decodes to the same ranking.
  auto second_req = client.QueryFrame(genuine);
  ASSERT_TRUE(second_req.ok());
  EXPECT_NE(*first_req, *second_req);
  EXPECT_EQ(first_req->size(), second_req->size());
  // The client charges each whole frame to its uplink.
  EXPECT_EQ(client.costs().uplink_bytes,
            first_req->size() + second_req->size());
  auto second_resp = server.HandleFrame(*second_req);
  EXPECT_NE(first_resp, second_resp);
  EXPECT_EQ(first_resp.size(), second_resp.size());
  auto first_top = client.DecodeResultFrame(first_resp, 10);
  auto second_top = client.DecodeResultFrame(second_resp, 10);
  ASSERT_TRUE(first_top.ok() && second_top.ok());
  EXPECT_EQ(*first_top, *second_top);

  // Identical request bytes are answered with identical bytes, each time by
  // the engine.
  EXPECT_EQ(server.HandleFrame(*first_req), first_resp);
  EXPECT_EQ(server.stats().queries, 3u);
}

TEST_F(EmbellishServerTest, TranscriptHidesWhichQueriesRepeat) {
  // Session A issues {a1, b1} twice; session B issues {a1, b1} and then
  // {a2, b2}, from the same two buckets. The server must see the same
  // transcript shape of both, answering frame by frame or in one batch on
  // a pool.
  const testutil::TwoBucketTerms t =
      testutil::PickTwoBucketTerms(built_.index.IndexedTerms(), org_);
  ThreadPool pool(4);
  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "HandleBatch" : "HandleFrame");
    EmbellishServer server(catalog_.get(), {}, batched ? &pool : nullptr);
    SessionClient a = MakeClient(51, 951);
    SessionClient b = MakeClient(52, 952);
    server.HandleFrame(a.HelloFrame());
    server.HandleFrame(b.HelloFrame());

    auto [ta, tb] = testutil::RepeatedAndDistinctQueries(a, b, t);
    if (batched) {
      auto responses = server.HandleBatch({ta.requests[0], ta.requests[1],
                                           tb.requests[0], tb.requests[1]});
      ta.responses = {responses[0], responses[1]};
      tb.responses = {responses[2], responses[3]};
    } else {
      auto serve = [&](const std::vector<uint8_t>& request) {
        return server.HandleFrame(request);
      };
      testutil::AnswerEach(&ta, serve);
      testutil::AnswerEach(&tb, serve);
    }
    testutil::ExpectIndistinguishable(ta, tb);

    // Every answer is a result frame, and A's two answers rank alike.
    auto first = a.DecodeResultFrame(ta.responses[0], 10);
    auto second = a.DecodeResultFrame(ta.responses[1], 10);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(*first, *second);
    EXPECT_TRUE(b.DecodeResultFrame(tb.responses[0], 10).ok());
    EXPECT_TRUE(b.DecodeResultFrame(tb.responses[1], 10).ok());
  }
}

TEST_F(EmbellishServerTest, PirTranscriptHidesWhichColumnsRepeat) {
  // Session A asks for the columns of a1, b1, a1, b1; session B for a1, b1,
  // a2, b2, from the same two buckets, each under its own 256-bit modulus.
  // The server must see the same transcript shape of both, answering frame
  // by frame or all eight frames in one batch on a pool.
  const testutil::TwoBucketTerms t =
      testutil::PickTwoBucketTerms(built_.index.IndexedTerms(), org_);
  Rng rng(961);
  crypto::PirClient a = std::move(crypto::PirClient::Create(256, &rng)).value();
  crypto::PirClient b = std::move(crypto::PirClient::Create(256, &rng)).value();
  ThreadPool pool(4);
  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "HandleBatch" : "HandleFrame");
    EmbellishServer server(catalog_.get(), {}, batched ? &pool : nullptr);
    auto [ta, tb] =
        testutil::RepeatedAndDistinctPirQueries(61, a, 62, b, org_, t, &rng);
    if (batched) {
      std::vector<std::vector<uint8_t>> requests = ta.requests;
      requests.insert(requests.end(), tb.requests.begin(), tb.requests.end());
      auto responses = server.HandleBatch(requests);
      ASSERT_EQ(responses.size(), 8u);
      ta.responses.assign(responses.begin(), responses.begin() + 4);
      tb.responses.assign(responses.begin() + 4, responses.end());
    } else {
      auto serve = [&](const std::vector<uint8_t>& request) {
        return server.HandleFrame(request);
      };
      testutil::AnswerEach(&ta, serve);
      testutil::AnswerEach(&tb, serve);
    }
    testutil::ExpectIndistinguishable(ta, tb);
    EXPECT_EQ(server.stats().pir_queries, 8u);

    // Both of A's answers for a1 decode to a1's inverted list.
    for (size_t i : {0, 2}) {
      auto frame = DecodeFrame(ta.responses[i]);
      ASSERT_TRUE(frame.ok());
      ASSERT_EQ(frame->kind, FrameKind::kPirResult) << "response " << i;
      auto decoded = DecodePirResponse(frame->payload);
      ASSERT_TRUE(decoded.ok());
      auto bits = a.DecodeResponse(*decoded);
      ASSERT_TRUE(bits.ok());
      auto list = core::PostingsFromColumnBits(*bits);
      ASSERT_TRUE(list.ok());
      EXPECT_EQ(*list, *built_.index.postings(t.a1)) << "response " << i;
    }
  }
}

TEST_F(EmbellishServerTest, PirModulusPastTheBoundIsRefused) {
  // A modulus one byte wider than any PirClient creates would let a frame
  // size the answer (rows x value_size bytes) and the CPU spent on it. It
  // gets a typed error before any sweep, and the next honest frame is
  // answered.
  ThreadPool pool(4);
  EmbellishServer server(catalog_.get(), {}, &pool);
  const wordnet::TermId term = built_.index.IndexedTerms()[7];
  auto where = org_.Locate(term);
  ASSERT_TRUE(where.ok());
  const size_t cols = org_.bucket(where->bucket).size();
  Rng rng(981);

  crypto::PirQuery wide;
  wide.n = (bignum::RandomBits(crypto::kMaxPirModulusBits + 7, &rng) << 1) +
           bignum::BigInt(1);
  ASSERT_EQ((wide.n.BitLength() + 7) / 8, crypto::kMaxPirModulusBits / 8 + 1);
  for (size_t j = 0; j < cols; ++j) {
    wide.q.push_back(bignum::RandomBelow(wide.n, &rng));
  }
  auto refused = DecodeFrame(server.HandleFrame(EncodeFrame(
      FrameKind::kPirQuery, 81, EncodePirQuery(where->bucket, wide))));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, FrameKind::kError);
  Status transported;
  ASSERT_TRUE(DecodeError(refused->payload, &transported).ok());
  EXPECT_TRUE(transported.IsCorruption()) << transported.ToString();
  EXPECT_EQ(server.stats().pir_queries, 0u);
  EXPECT_EQ(server.stats().errors, 1u);

  crypto::PirClient client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = client.BuildQuery(where->slot, cols, &rng);
  ASSERT_TRUE(query.ok());
  auto answered = DecodeFrame(server.HandleFrame(EncodeFrame(
      FrameKind::kPirQuery, 81, EncodePirQuery(where->bucket, *query))));
  ASSERT_TRUE(answered.ok());
  ASSERT_EQ(answered->kind, FrameKind::kPirResult);
  auto decoded = DecodePirResponse(answered->payload);
  ASSERT_TRUE(decoded.ok());
  auto bits = client.DecodeResponse(*decoded);
  ASSERT_TRUE(bits.ok());
  auto list = core::PostingsFromColumnBits(*bits);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(*list, *built_.index.postings(term));
  EXPECT_EQ(server.stats().pir_queries, 1u);
}

TEST_F(EmbellishServerTest, HelloKeyPastTheBoundIsRefused) {
  // A session's key sizes the server's work on each of its PR queries. A
  // modulus one byte wider than any BenalohKeyPair::Generate makes gets a
  // typed error and registers nothing.
  EmbellishServer server(catalog_.get());
  Rng rng(982);
  auto refused = DecodeFrame(server.HandleFrame(EncodeFrame(
      FrameKind::kHello, 82,
      EncodeHello(testutil::OversizedBenalohKey(&rng)))));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, FrameKind::kError);
  Status transported;
  ASSERT_TRUE(DecodeError(refused->payload, &transported).ok());
  EXPECT_EQ(transported.ToString(),
            "Corruption: hello modulus size 513 outside (0, 512]");
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_EQ(server.stats().hellos, 0u);
}

TEST_F(EmbellishServerTest, IoIsChargedWithTheCatalogsDiskModel) {
  // The catalog lays its extents out with its disk model, and the server
  // charges reads with the same one: a PR and a PIR query each cost what
  // the core engines charge on the epoch's layout under that model.
  index::IndexCatalogOptions options;
  options.disk.block_bytes = 4096;
  options.disk.avg_seek_ms = 9.0;
  auto catalog = std::move(index::IndexCatalog::Freeze(&built_.index, &org_,
                                                       options))
                     .value();
  const auto epoch = catalog->Acquire();
  ASSERT_NE(epoch->layout(), nullptr);
  EmbellishServer server(catalog.get());

  SessionClient client = MakeClient(41, 941);
  server.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(7, 29));
  ASSERT_TRUE(request.ok());
  ASSERT_TRUE(client.DecodeResultFrame(server.HandleFrame(*request), 10).ok());
  const double pr_io_ms = server.stats().server_io_ms;
  auto query = core::DecodeQuery(DecodeFrame(*request)->payload,
                                 client.public_key());
  ASSERT_TRUE(query.ok());
  core::RetrievalCosts pr_catalog, pr_default;
  ASSERT_TRUE(core::PrivateRetrievalServer(&built_.index, &org_,
                                           epoch->layout(), options.disk)
                  .Process(*query, client.public_key(), &pr_catalog)
                  .ok());
  ASSERT_TRUE(core::PrivateRetrievalServer(&built_.index, &org_,
                                           epoch->layout())
                  .Process(*query, client.public_key(), &pr_default)
                  .ok());
  ASSERT_NE(pr_catalog.server_io_ms, pr_default.server_io_ms);
  EXPECT_DOUBLE_EQ(pr_io_ms, pr_catalog.server_io_ms);

  auto slot = org_.Locate(built_.index.IndexedTerms()[17]);
  ASSERT_TRUE(slot.ok());
  Rng rng(942);
  crypto::PirClient pir =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto pir_query =
      pir.BuildQuery(slot->slot, org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(pir_query.ok());
  auto answered = DecodeFrame(server.HandleFrame(EncodeFrame(
      FrameKind::kPirQuery, 41, EncodePirQuery(slot->bucket, *pir_query))));
  ASSERT_TRUE(answered.ok());
  ASSERT_EQ(answered->kind, FrameKind::kPirResult);
  core::RetrievalCosts pir_catalog;
  ASSERT_TRUE(core::PirRetrievalServer(&built_.index, &org_, epoch->layout(),
                                       options.disk)
                  .Answer(slot->bucket, *pir_query, &pir_catalog)
                  .ok());
  EXPECT_DOUBLE_EQ(server.stats().server_io_ms - pr_io_ms,
                   pir_catalog.server_io_ms);
}

TEST_F(EmbellishServerTest, ReHelloReplayIsNotTheOldAnswer) {
  // A session may re-register with a fresh public key. Replaying the same
  // query bytes afterwards must not return the answer under the superseded
  // key.
  EmbellishServer server(catalog_.get());

  SessionClient old_client = MakeClient(6, 306);
  server.HandleFrame(old_client.HelloFrame());
  auto request = old_client.QueryFrame(SomeTerms(11, 19));
  ASSERT_TRUE(request.ok());
  auto first_resp = server.HandleFrame(*request);
  ASSERT_TRUE(old_client.DecodeResultFrame(first_resp, 10).ok());

  // Same session id, different keypair.
  SessionClient new_client = MakeClient(6, 307);
  server.HandleFrame(new_client.HelloFrame());
  auto replayed = server.HandleFrame(*request);
  EXPECT_NE(replayed, first_resp);
  // The old ciphertexts are not valid under the new key, so the replay is
  // either rejected or re-processed — never the old bytes.
}

TEST_F(EmbellishServerTest, SessionTableIsBounded) {
  EmbellishServerOptions options;
  options.max_sessions = 2;
  EmbellishServer server(catalog_.get(), options);
  SessionClient a = MakeClient(21, 321);
  SessionClient b = MakeClient(22, 322);
  SessionClient c = MakeClient(23, 323);

  auto kind_of = [](const std::vector<uint8_t>& resp) {
    auto frame = DecodeFrame(resp);
    return frame.ok() ? frame->kind : FrameKind::kError;
  };
  EXPECT_EQ(kind_of(server.HandleFrame(a.HelloFrame())), FrameKind::kHelloOk);
  EXPECT_EQ(kind_of(server.HandleFrame(b.HelloFrame())), FrameKind::kHelloOk);
  // A third distinct session is refused...
  EXPECT_EQ(kind_of(server.HandleFrame(c.HelloFrame())), FrameKind::kError);
  EXPECT_EQ(server.session_count(), 2u);
  // ...but an existing session may always re-register.
  EXPECT_EQ(kind_of(server.HandleFrame(a.HelloFrame())), FrameKind::kHelloOk);
}

TEST_F(EmbellishServerTest, BatchedDispatchMatchesSerial) {
  ThreadPool pool(4);
  EmbellishServer batched(catalog_.get(), {}, &pool);
  EmbellishServer serial(catalog_.get());

  constexpr size_t kSessions = 6;
  std::vector<SessionClient> clients;
  std::vector<std::vector<uint8_t>> requests;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.push_back(MakeClient(100 + s, 400 + s));
    batched.HandleFrame(clients.back().HelloFrame());
    serial.HandleFrame(clients.back().HelloFrame());
    auto req = clients.back().QueryFrame(SomeTerms(s, 3 * s + 1));
    ASSERT_TRUE(req.ok());
    requests.push_back(std::move(*req));
  }

  auto batched_responses = batched.HandleBatch(requests);
  ASSERT_EQ(batched_responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batched_responses[i], serial.HandleFrame(requests[i]))
        << "request " << i;
    auto top = clients[i].DecodeResultFrame(batched_responses[i], 10);
    EXPECT_TRUE(top.ok()) << top.status().ToString();
  }
  EXPECT_EQ(batched.stats().batches, 1u);
  EXPECT_EQ(batched.stats().queries, kSessions);
}

TEST_F(EmbellishServerTest, PirQueriesThroughTheLoop) {
  EmbellishServer server(catalog_.get());

  // Pick an indexed term and retrieve its bucket column through the server
  // loop; compare against the direct PirRetrievalServer answer.
  auto terms = built_.index.IndexedTerms();
  wordnet::TermId term = terms[17];
  auto slot = org_.Locate(term);
  ASSERT_TRUE(slot.ok());

  core::PirRetrievalServer direct(&built_.index, &org_, nullptr);
  auto matrix = direct.BucketMatrix(slot->bucket);
  ASSERT_TRUE(matrix.ok());

  Rng query_rng(318);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &query_rng)).value();
  auto query = pir_client.BuildQuery(slot->slot, (*matrix)->cols(),
                                     &query_rng);
  ASSERT_TRUE(query.ok());

  auto request = EncodeFrame(FrameKind::kPirQuery, 9,
                             EncodePirQuery(slot->bucket, *query));
  auto response = server.HandleFrame(request);
  auto frame = DecodeFrame(response);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, FrameKind::kPirResult);
  auto decoded = DecodePirResponse(frame->payload);
  ASSERT_TRUE(decoded.ok());

  auto direct_answer = direct.Answer(slot->bucket, *query, nullptr);
  ASSERT_TRUE(direct_answer.ok());
  EXPECT_EQ(decoded->value_size, direct_answer->value_size);
  EXPECT_EQ(decoded->values, direct_answer->values);
  EXPECT_EQ(server.stats().pir_queries, 1u);
}

TEST_F(EmbellishServerTest, BatchedPirFailuresMatchHandleFrame) {
  // One batch of four PIR frames on a pool: two well-formed, one whose
  // query is one column wider than its bucket, and one whose modulus is
  // even. Both bad frames address a valid bucket and fail inside the PIR
  // engine. Each frame is answered on its own, so every response equals
  // HandleFrame's for the same frame: an error frame for each bad one and
  // the same answer bytes for each good one, on the monolithic server and
  // on each slice of a 2-way partition.
  auto terms = built_.index.IndexedTerms();
  auto first = org_.Locate(terms[23]);
  auto second = org_.Locate(terms[41]);
  ASSERT_TRUE(first.ok() && second.ok());
  const size_t first_cols = org_.bucket(first->bucket).size();
  Rng rng(973);
  crypto::PirClient pir =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto good = pir.BuildQuery(first->slot, first_cols, &rng);
  auto wide = pir.BuildQuery(first->slot, first_cols + 1, &rng);
  auto good2 = pir.BuildQuery(
      second->slot, org_.bucket(second->bucket).size(), &rng);
  ASSERT_TRUE(good.ok() && wide.ok() && good2.ok());
  crypto::PirQuery even = *good2;
  even.n = even.n + bignum::BigInt(1);

  ThreadPool pool(4);
  auto halves = testutil::FreezeCatalog(&built_.index, &org_, 2);
  const std::vector<std::vector<uint8_t>> requests = {
      EncodeFrame(FrameKind::kPirQuery, 31,
                  EncodePirQuery(first->bucket, *good)),
      EncodeFrame(FrameKind::kPirQuery, 32,
                  EncodePirQuery(first->bucket, *wide)),
      EncodeFrame(FrameKind::kPirQuery, 33,
                  EncodePirQuery(second->bucket, *good2)),
      EncodeFrame(FrameKind::kPirQuery, 34,
                  EncodePirQuery(second->bucket, even)),
  };
  for (size_t slice : {SIZE_MAX, size_t{0}, size_t{1}}) {
    SCOPED_TRACE("slice=" + std::to_string(slice));
    EmbellishServerOptions options;
    options.shard_slice = slice;
    options.shard_slice_count = 2;
    EmbellishServer batched(halves.get(), options, &pool);
    EmbellishServer serial(halves.get(), options);
    auto responses = batched.HandleBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(responses[i], serial.HandleFrame(requests[i]))
          << "request " << i;
      auto frame = DecodeFrame(responses[i]);
      ASSERT_TRUE(frame.ok());
      if (i % 2 == 0) {
        EXPECT_EQ(frame->kind, FrameKind::kPirResult) << "request " << i;
        continue;
      }
      // The engine, not the frame decoder or the address check, refused it.
      ASSERT_EQ(frame->kind, FrameKind::kError) << "request " << i;
      Status carried;
      ASSERT_TRUE(DecodeError(frame->payload, &carried).ok());
      EXPECT_TRUE(carried.IsInvalidArgument()) << carried.ToString();
    }
    const ServerStats stats = batched.stats();
    EXPECT_EQ(stats.errors, 2u);
    EXPECT_EQ(stats.pir_queries, 2u);
  }
}

TEST_F(EmbellishServerTest, ShardedPirReplaysAreRecomputedPerShard) {
  // PIR answers are never cached, on any slice: a replayed frame is
  // answered again from the slice's matrix — byte-identical — and the two
  // slices' answers still differ (per-slice matrices have different row
  // counts).
  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[7]);
  ASSERT_TRUE(slot.ok());
  Rng rng(912);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query =
      pir_client.BuildQuery(slot->slot, org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());

  const auto request = EncodeFrame(FrameKind::kPirQuery, 13,
                                  EncodePirQuery(slot->bucket, *query));
  auto halves = testutil::FreezeCatalog(&built_.index, &org_, 2);
  std::vector<std::vector<uint8_t>> responses;
  for (size_t shard = 0; shard < 2; ++shard) {
    EmbellishServerOptions options;
    options.shard_slice = shard;
    options.shard_slice_count = 2;
    EmbellishServer server(halves.get(), options);
    responses.push_back(server.HandleFrame(request));
    const double cpu_before_replay = server.stats().server_cpu_ms;
    EXPECT_EQ(server.HandleFrame(request), responses.back());
    EXPECT_GT(server.stats().server_cpu_ms, cpu_before_replay)
        << "shard " << shard << " replay was not recomputed";
    EXPECT_EQ(server.stats().pir_queries, 2u);
  }
  EXPECT_EQ(DecodeFrame(responses[0])->kind, FrameKind::kPirResult);
  EXPECT_NE(responses[0], responses[1]);
}

TEST_F(EmbellishServerTest, PirReplaysAcrossSessionsAreRecomputed) {
  // PIR answers depend only on the payload (the modulus travels inside it),
  // but they are never cached: every KO-PIR query carries fresh random
  // residues, so a stored answer could serve only a byte-exact replay. A
  // second session replaying the same payload is answered again — the same
  // answer bytes, each frame addressed to its own session.
  EmbellishServer server(catalog_.get());

  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[17]);
  ASSERT_TRUE(slot.ok());
  Rng rng(971);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = pir_client.BuildQuery(slot->slot,
                                     org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());
  auto payload = EncodePirQuery(slot->bucket, *query);

  auto first = server.HandleFrame(EncodeFrame(FrameKind::kPirQuery, 9,
                                              payload));
  const ServerStats after_first = server.stats();
  auto second = server.HandleFrame(EncodeFrame(FrameKind::kPirQuery, 10,
                                               payload));
  const ServerStats after_second = server.stats();
  EXPECT_EQ(after_second.pir_queries, 2u);
  EXPECT_GT(after_second.server_cpu_ms, after_first.server_cpu_ms)
      << "the replay was not recomputed";

  // Same answer bytes, each frame addressed to its own session.
  auto first_frame = DecodeFrame(first);
  auto second_frame = DecodeFrame(second);
  ASSERT_TRUE(first_frame.ok() && second_frame.ok());
  EXPECT_EQ(first_frame->kind, FrameKind::kPirResult);
  EXPECT_EQ(second_frame->kind, FrameKind::kPirResult);
  EXPECT_EQ(first_frame->session_id, 9u);
  EXPECT_EQ(second_frame->session_id, 10u);
  EXPECT_EQ(first_frame->payload, second_frame->payload);
}

TEST_F(EmbellishServerTest, PrAnswersAreSessionScoped) {
  // Replaying one session's query bytes under another session id is
  // answered under the other session's key (and fails — the ciphertexts are
  // not valid under it), while the owning session's replay is answered
  // with its original bytes.
  EmbellishServer server(catalog_.get());

  SessionClient alice = MakeClient(11, 311);
  SessionClient bob = MakeClient(12, 312);
  server.HandleFrame(alice.HelloFrame());
  server.HandleFrame(bob.HelloFrame());
  auto alice_request = alice.QueryFrame(SomeTerms(7, 13));
  ASSERT_TRUE(alice_request.ok());
  auto alice_answer = server.HandleFrame(*alice_request);
  auto alice_req_frame = DecodeFrame(*alice_request);
  ASSERT_TRUE(alice_req_frame.ok());
  auto replayed = server.HandleFrame(
      EncodeFrame(FrameKind::kQuery, 12, alice_req_frame->payload));
  auto replay_frame = DecodeFrame(replayed);
  ASSERT_TRUE(replay_frame.ok());
  EXPECT_NE(replayed, alice_answer);

  EXPECT_EQ(server.HandleFrame(*alice_request), alice_answer);
}

TEST_F(EmbellishServerTest, TopKThroughTheLoopMatchesEvaluateFull) {
  // The plaintext top-k path answers with the full-accumulation prefix on
  // every configuration, so the monolithic server and a coordinator over
  // slices produce byte-identical frames.
  EmbellishServer mono(catalog_.get());
  testutil::SliceRig rig = testutil::MakeSliceRig(&built_.index, &org_, 3);

  auto genuine = SomeTerms(5, 23);
  auto request = EncodeFrame(FrameKind::kTopKQuery, 6,
                             EncodeTopKQuery(10, genuine));
  auto mono_resp = mono.HandleFrame(request);
  EXPECT_EQ(rig.coordinator->HandleFrame(request), mono_resp);

  auto frame = DecodeFrame(mono_resp);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, FrameKind::kTopKResult);
  auto docs = DecodeTopKResult(frame->payload);
  ASSERT_TRUE(docs.ok());
  auto expected = index::EvaluateFull(built_.index, genuine);
  if (expected.size() > 10) expected.resize(10);
  EXPECT_EQ(*docs, expected);
  EXPECT_EQ(mono.stats().topk_queries, 1u);

  // A different session sending the same payload is answered again, with
  // the same payload addressed to it.
  auto other = mono.HandleFrame(EncodeFrame(FrameKind::kTopKQuery, 7,
                                            EncodeTopKQuery(10, genuine)));
  EXPECT_EQ(mono.stats().topk_queries, 2u);
  auto other_frame = DecodeFrame(other);
  ASSERT_TRUE(other_frame.ok());
  EXPECT_EQ(other_frame->session_id, 7u);
  EXPECT_EQ(other_frame->payload, frame->payload);

  // Malformed top-k payloads are answered, not fatal.
  auto hostile = mono.HandleFrame(
      EncodeFrame(FrameKind::kTopKQuery, 6, {1, 2, 3}));
  auto hostile_frame = DecodeFrame(hostile);
  ASSERT_TRUE(hostile_frame.ok());
  EXPECT_EQ(hostile_frame->kind, FrameKind::kError);
}

TEST_F(EmbellishServerTest, TermIdsPastTheTermTableReadAsUnindexed) {
  // Clients choose the u32 term ids of PR queries (into Algorithm 4) and of
  // top-k queries. The term table ends at the corpus's largest term id, and
  // an id at or past its end, up to 2^32 - 1, must read as unindexed: the
  // answer is byte-for-byte the answer without it, from the monolithic
  // server and from a coordinator over slices.
  const wordnet::TermId end =
      static_cast<wordnet::TermId>(built_.index.lists()->table_size());
  const std::vector<wordnet::TermId> hostile = {
      end, end + 1, wordnet::TermId{1} << 31, UINT32_MAX};
  for (wordnet::TermId t : hostile) {
    EXPECT_EQ(built_.index.postings(t), nullptr) << t;
  }
  EmbellishServer mono(catalog_.get());
  testutil::SliceRig rig = testutil::MakeSliceRig(&built_.index, &org_, 3);
  const auto genuine = SomeTerms(5, 23);
  std::vector<wordnet::TermId> widened_terms = genuine;
  widened_terms.insert(widened_terms.end(), hostile.begin(), hostile.end());

  SessionClient client = MakeClient(1, 301);
  auto request = client.QueryFrame(genuine);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  auto request_frame = DecodeFrame(*request);
  ASSERT_TRUE(request_frame.ok());
  auto query = core::DecodeQuery(request_frame->payload, client.public_key());
  ASSERT_TRUE(query.ok());
  core::EmbellishedQuery widened = *query;
  for (wordnet::TermId t : hostile) {
    widened.entries.push_back({t, query->entries.front().indicator});
  }
  const auto widened_request =
      EncodeFrame(FrameKind::kQuery, 1,
                  core::EncodeQuery(widened, client.public_key()));

  auto check = [&](auto& server) {
    EXPECT_EQ(server.HandleFrame(EncodeFrame(
                  FrameKind::kTopKQuery, 6, EncodeTopKQuery(10, widened_terms))),
              server.HandleFrame(EncodeFrame(FrameKind::kTopKQuery, 6,
                                             EncodeTopKQuery(10, genuine))));
    server.HandleFrame(client.HelloFrame());
    const auto answer = server.HandleFrame(*request);
    EXPECT_EQ(server.HandleFrame(widened_request), answer);
    auto top = client.DecodeResultFrame(answer, 10);
    ASSERT_TRUE(top.ok()) << top.status().ToString();
    EXPECT_FALSE(top->empty());
  };
  check(mono);
  check(*rig.coordinator);
}

TEST_F(EmbellishServerTest, ZeroKTopKOnShardedServerMatchesMonolithic) {
  // k = 0 decodes as a valid request; a coordinator over slices must
  // answer it with the monolithic server's empty result rather than crash
  // in the fan-out or the merge.
  EmbellishServer mono(catalog_.get());
  testutil::SliceRig rig = testutil::MakeSliceRig(&built_.index, &org_, 3);

  auto request = EncodeFrame(FrameKind::kTopKQuery, 6,
                             EncodeTopKQuery(0, SomeTerms(5, 23)));
  auto mono_resp = mono.HandleFrame(request);
  EXPECT_EQ(rig.coordinator->HandleFrame(request), mono_resp);

  auto frame = DecodeFrame(mono_resp);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->kind, FrameKind::kTopKResult);
  auto docs = DecodeTopKResult(frame->payload);
  ASSERT_TRUE(docs.ok());
  EXPECT_TRUE(docs->empty());
}

TEST_F(EmbellishServerTest, IdleSessionSweepBoundsKeyMemory) {
  // A registration storm of throwaway ids must not pin Benaloh keys
  // forever: idle sessions expire after session_idle_frames, so the table
  // stays bounded AND a genuine new session can register once the dead
  // entries age out — while active sessions survive the sweep.
  EmbellishServerOptions options;
  options.max_sessions = 4;
  options.session_idle_frames = 8;
  EmbellishServer server(catalog_.get(), options);

  std::vector<SessionClient> storm;
  for (size_t s = 0; s < 4; ++s) {
    storm.push_back(MakeClient(100 + s, 900 + s));
    auto frame = DecodeFrame(server.HandleFrame(storm.back().HelloFrame()));
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->kind, FrameKind::kHelloOk);
  }
  EXPECT_EQ(server.session_count(), 4u);

  // Table full, nothing idle yet: a fresh id is refused.
  SessionClient late = MakeClient(200, 950);
  auto refused = DecodeFrame(server.HandleFrame(late.HelloFrame()));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->kind, FrameKind::kError);

  // Keep session 100 active while the logical clock runs past the idle
  // horizon for the other three. Deliberately NOT kQuery frames: any
  // decodable frame naming the session counts as activity — a session
  // streaming only top-k (or PIR) traffic must not lose its registered key
  // mid-stream — and even a payload that fails to decode already proved
  // the session alive.
  for (size_t i = 0; i < 12; ++i) {
    server.HandleFrame(EncodeFrame(FrameKind::kTopKQuery, 100, {1, 2, 3}));
  }

  // Now the fresh id's hello sweeps the idle sessions and succeeds.
  auto admitted = DecodeFrame(server.HandleFrame(late.HelloFrame()));
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->kind, FrameKind::kHelloOk);
  EXPECT_LE(server.session_count(), 4u);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_expired, 3u);

  // The active session survived; an expired one must re-hello.
  auto active_query = storm[0].QueryFrame(SomeTerms(3, 9));
  ASSERT_TRUE(active_query.ok());
  EXPECT_TRUE(
      storm[0].DecodeResultFrame(server.HandleFrame(*active_query), 5).ok());
  auto expired_query = storm[1].QueryFrame(SomeTerms(4, 11));
  ASSERT_TRUE(expired_query.ok());
  auto expired_result = storm[1].DecodeResultFrame(
      server.HandleFrame(*expired_query), 5);
  ASSERT_FALSE(expired_result.ok());
  EXPECT_TRUE(expired_result.status().IsFailedPrecondition());
}

TEST_F(EmbellishServerTest, SliceServerServesOneShardsDocuments) {
  // A slice server's PR answers cover exactly its slice's documents, and
  // merging every slice's candidates reproduces the monolithic response —
  // the property the remote-shard coordinator is built on.
  constexpr size_t kSlices = 3;
  SessionClient client = MakeClient(31, 931);
  auto request = client.QueryFrame(SomeTerms(7, 29));
  ASSERT_TRUE(request.ok());

  EmbellishServer mono(catalog_.get());
  mono.HandleFrame(client.HelloFrame());
  auto mono_frame = DecodeFrame(mono.HandleFrame(*request));
  ASSERT_TRUE(mono_frame.ok());
  auto mono_result = core::DecodeResult(mono_frame->payload,
                                        client.public_key());
  ASSERT_TRUE(mono_result.ok());

  auto thirds = testutil::FreezeCatalog(&built_.index, &org_, kSlices);
  std::vector<core::EncryptedResult> partial;
  for (size_t s = 0; s < kSlices; ++s) {
    EmbellishServerOptions options;
    options.shard_slice = s;
    options.shard_slice_count = kSlices;
    EmbellishServer slice(thirds.get(), options);
    ASSERT_TRUE(slice.serves_slice());
    // The slice advertises itself monolithic; the coordinator owns the
    // global topology.
    auto hello = DecodeFrame(slice.HandleFrame(client.HelloFrame()));
    ASSERT_TRUE(hello.ok());
    auto topology = DecodeHelloOk(hello->payload);
    ASSERT_TRUE(topology.ok());
    EXPECT_EQ(topology->shard_count, 1u);
    auto frame = DecodeFrame(slice.HandleFrame(*request));
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->kind, FrameKind::kResult);
    auto result = core::DecodeResult(frame->payload, client.public_key());
    ASSERT_TRUE(result.ok());
    partial.push_back(std::move(*result));
  }
  core::EncryptedResult merged = core::MergeShardResults(std::move(partial));
  ASSERT_EQ(merged.candidates.size(), mono_result->candidates.size());
  EXPECT_EQ(core::EncodeResult(merged, client.public_key()),
            core::EncodeResult(*mono_result, client.public_key()));

  // An invalid slice configuration serves nothing: every request is
  // refused with a typed error, never answered from the whole index.
  EmbellishServerOptions invalid;
  invalid.shard_slice = 9;
  invalid.shard_slice_count = 3;
  EmbellishServer refusing(thirds.get(), invalid);
  EXPECT_FALSE(refusing.serves_slice());
  EXPECT_TRUE(refusing.slice_config_invalid());
  auto refused = DecodeFrame(refusing.HandleFrame(*request));
  ASSERT_TRUE(refused.ok());
  ASSERT_EQ(refused->kind, FrameKind::kError);
  Status carried;
  ASSERT_TRUE(DecodeError(refused->payload, &carried).ok());
  EXPECT_TRUE(carried.IsFailedPrecondition()) << carried.ToString();
}

}  // namespace
}  // namespace embellish::server
