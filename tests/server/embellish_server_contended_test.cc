// Batch×shard composition under contention: many concurrent sessions
// batching queries into a sharded EmbellishServer whose batch fan-out,
// per-query shard fan-out and PIR row loops all share ONE work-stealing
// executor. Every response frame must be bit-identical to a serial
// monolithic server's — nested parallelism is allowed to change only the
// clock — at 1/2/4/8 shards, with concurrent HandleBatch callers hammering
// the same server. Runs under TSan in CI (the test name matches the
// thread-sanitize job's filter).

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "index/builder.h"
#include "server/embellish_server.h"
#include "server/session_client.h"
#include "testutil.h"

namespace embellish::server {
namespace {

class EmbellishServerContendedTest : public ::testing::Test {
 protected:
  EmbellishServerContendedTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 331)),
        corp_(testutil::SmallCorpus(lex_, 150, 332)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)) {}

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
};

TEST_F(EmbellishServerContendedTest,
       BatchShardCompositionBitIdenticalAtEveryShardCount) {
  constexpr size_t kSessions = 4;
  constexpr size_t kQueriesPerSession = 3;
  constexpr size_t kBatchCallers = 3;

  // Sessions and their uplink bytes, built once; the serial monolithic
  // server provides the reference bytes for every configuration.
  std::vector<SessionClient> clients;
  std::vector<std::vector<uint8_t>> hellos;
  std::vector<std::vector<uint8_t>> requests;
  for (size_t s = 0; s < kSessions; ++s) {
    clients.push_back(MakeClient(100 + s, 400 + s));
    hellos.push_back(clients.back().HelloFrame());
    for (size_t q = 0; q < kQueriesPerSession; ++q) {
      auto req = clients.back().QueryFrame(SomeTerms(3 * s + q, 11 * q + s));
      ASSERT_TRUE(req.ok()) << req.status().ToString();
      requests.push_back(std::move(*req));
      requests.push_back(EncodeFrame(
          FrameKind::kTopKQuery, 100 + s,
          EncodeTopKQuery(10, SomeTerms(3 * s + q, 11 * q + s))));
    }
  }

  EmbellishServer mono(&built_.index, &org_, nullptr);
  for (const auto& hello : hellos) mono.HandleFrame(hello);
  std::vector<std::vector<uint8_t>> reference;
  reference.reserve(requests.size());
  for (const auto& request : requests) {
    reference.push_back(mono.HandleFrame(request));
  }

  ThreadPool pool(4);
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmbellishServerOptions options;
    options.shard_count = shards;
    options.shard_threads = 2;  // capped nested fan-out, still parallel
    EmbellishServer server(&built_.index, &org_, nullptr, options, &pool);
    for (const auto& hello : hellos) server.HandleFrame(hello);

    // Several HandleBatch callers pound the server concurrently, each with
    // the full request stream: batch regions, nested shard regions and the
    // engines' own regions all contend for the one pool.
    std::vector<std::vector<std::vector<uint8_t>>> responses(kBatchCallers);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kBatchCallers; ++c) {
      callers.emplace_back(
          [&, c] { responses[c] = server.HandleBatch(requests); });
    }
    for (auto& t : callers) t.join();

    for (size_t c = 0; c < kBatchCallers; ++c) {
      ASSERT_EQ(responses[c].size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(responses[c][i], reference[i])
            << "caller " << c << " request " << i;
      }
    }
  }
}

TEST_F(EmbellishServerContendedTest, BatchedPirBitIdenticalUnderContention) {
  // The per-shard PIR mutex that used to serialize whole answer
  // computations is gone: PIR frames of one batch are answered in shared
  // per-shard sweeps, and requests addressing different shards (and
  // different callers' batches) compute concurrently. Under three
  // concurrent HandleBatch callers the bytes must still match the serial
  // HandleFrame path of an identically configured server, at 1/2/4/8
  // shards. Runs under TSan in CI.
  constexpr size_t kBatchCallers = 3;
  constexpr size_t kPirClients = 3;

  auto terms = built_.index.IndexedTerms();
  Rng rng(4242);
  // Distinct clients → distinct moduli: the shared sweep must keep every
  // query in its own Montgomery ring.
  std::vector<crypto::PirClient> pir_clients;
  for (size_t c = 0; c < kPirClients; ++c) {
    pir_clients.push_back(
        std::move(crypto::PirClient::Create(256, &rng)).value());
  }

  ThreadPool pool(4);
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmbellishServerOptions options;
    options.shard_count = shards;
    options.shard_threads = 2;
    EmbellishServer server(&built_.index, &org_, nullptr, options, &pool);
    EmbellishServer serial(&built_.index, &org_, nullptr, options);

    // Each client asks for a couple of terms; on a sharded server every
    // (shard, bucket) pair is addressed so one batch mixes all shards.
    std::vector<std::vector<uint8_t>> requests;
    for (size_t c = 0; c < kPirClients; ++c) {
      for (size_t q = 0; q < 2; ++q) {
        auto slot = org_.Locate(terms[(13 * c + 7 * q + 5) % terms.size()]);
        ASSERT_TRUE(slot.ok());
        auto query = pir_clients[c].BuildQuery(
            slot->slot, org_.bucket(slot->bucket).size(), &rng);
        ASSERT_TRUE(query.ok());
        if (server.shard_count() > 1) {
          for (size_t shard = 0; shard < server.shard_count(); ++shard) {
            requests.push_back(EncodeFrame(
                FrameKind::kPirQuery, 100 + c,
                EncodePirQuery(server.PirBucketField(shard, slot->bucket),
                               *query)));
          }
        } else {
          requests.push_back(EncodeFrame(FrameKind::kPirQuery, 100 + c,
                                         EncodePirQuery(slot->bucket,
                                                        *query)));
        }
      }
    }

    std::vector<std::vector<uint8_t>> reference;
    reference.reserve(requests.size());
    for (const auto& request : requests) {
      reference.push_back(serial.HandleFrame(request));
      auto ref_frame = DecodeFrame(reference.back());
      ASSERT_TRUE(ref_frame.ok());
      ASSERT_EQ(ref_frame->kind, FrameKind::kPirResult);
    }

    std::vector<std::vector<std::vector<uint8_t>>> responses(kBatchCallers);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kBatchCallers; ++c) {
      callers.emplace_back(
          [&, c] { responses[c] = server.HandleBatch(requests); });
    }
    for (auto& t : callers) t.join();

    for (size_t c = 0; c < kBatchCallers; ++c) {
      ASSERT_EQ(responses[c].size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(responses[c][i], reference[i])
            << "caller " << c << " request " << i;
      }
    }

    // Every PIR frame went through the deferred shared-sweep path, and the
    // batched counters reconcile with the per-request ones.
    ServerStats stats = server.stats();
    EXPECT_EQ(stats.pir_batched_queries, kBatchCallers * requests.size());
    EXPECT_EQ(stats.pir_queries, kBatchCallers * requests.size());
    EXPECT_GE(stats.pir_batch_sweeps,
              kBatchCallers * std::min<size_t>(shards, requests.size()));
  }
}

TEST_F(EmbellishServerContendedTest, TinyBatchesRunInlineAndStayIdentical) {
  // The 1-2 request heuristic: same bytes, no pool fan-out. Nothing here
  // can observe "ran inline" directly, so the assertion is behavioral —
  // handling via HandleBatch at sizes 1 and 2 still matches HandleFrame.
  ThreadPool pool(4);
  EmbellishServer server(&built_.index, &org_, nullptr, {}, &pool);
  EmbellishServer serial(&built_.index, &org_, nullptr);

  SessionClient client = MakeClient(7, 77);
  server.HandleFrame(client.HelloFrame());
  serial.HandleFrame(client.HelloFrame());
  auto q1 = client.QueryFrame(SomeTerms(2, 9));
  auto q2 = client.QueryFrame(SomeTerms(4, 13));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  auto one = server.HandleBatch({*q1});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], serial.HandleFrame(*q1));

  auto two = server.HandleBatch({*q1, *q2});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], one[0]);
  EXPECT_EQ(two[1], serial.HandleFrame(*q2));

  EXPECT_EQ(server.stats().batches, 2u);
}

}  // namespace
}  // namespace embellish::server
