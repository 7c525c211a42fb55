// Replicated shard groups behind the coordinator: every replica of a slice
// answers with bytes identical to the monolithic server, a dead replica
// costs capacity (failover) rather than availability, hedged duplicates are
// seq-fenced so a stale response can never be merged, circuit breakers with
// probe re-admission re-discover healed replicas, and opt-in degraded mode
// answers PR/top-k from surviving slices with a typed missing-slice marker.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/private_retrieval.h"
#include "core/wire_format.h"
#include "index/builder.h"
#include "index/sharding.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "testutil.h"

namespace embellish::server {
namespace {

// A transport whose peer can be killed and revived mid-test.
class KillSwitchTransport : public ShardTransport {
 public:
  explicit KillSwitchTransport(ShardTransport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (dead_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("replica killed");
    }
    return inner_->RoundTrip(request);
  }

  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  void Revive() { dead_.store(false, std::memory_order_relaxed); }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  ShardTransport* inner_;  // not owned
  std::atomic<bool> dead_{false};
  std::atomic<size_t> calls_{0};
};

class ReplicaTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 3;
  static constexpr size_t kReplicas = 2;
  // A slow primary's delay: far past hedge_delay_ms = 0, so a hedge always
  // fires and wins first, however loaded the test machine.
  static constexpr uint32_t kSlowMs = 200;

  ReplicaTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 221)),
        corp_(testutil::SmallCorpus(lex_, 150, 222)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)),
        catalog_(testutil::FreezeCatalog(&built_.index, &org_, kShards)),
        mono_(catalog_.get()) {
    for (size_t s = 0; s < kShards; ++s) {
      for (size_t r = 0; r < kReplicas; ++r) {
        EmbellishServerOptions options;
        options.shard_slice = s;
        options.shard_slice_count = kShards;
        slices_.push_back(
            std::make_unique<EmbellishServer>(catalog_.get(), options));
        endpoints_.push_back(
            std::make_unique<ShardEndpoint>(slices_.back().get(), s));
        inner_transports_.push_back(
            std::make_unique<InProcessTransport>(endpoints_.back().get()));
        kills_.push_back(std::make_unique<KillSwitchTransport>(
            inner_transports_.back().get()));
      }
    }
  }

  KillSwitchTransport* kill(size_t shard, size_t replica) {
    return kills_[shard * kReplicas + replica].get();
  }

  EmbellishServer* slice(size_t shard, size_t replica) {
    return slices_[shard * kReplicas + replica].get();
  }

  // Replica groups over the kill switches; `wrap` may substitute a replica's
  // transport (e.g. with a FaultyTransport layered on top).
  std::vector<std::vector<ShardTransport*>> MakeGroups() {
    std::vector<std::vector<ShardTransport*>> groups(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      for (size_t r = 0; r < kReplicas; ++r) {
        groups[s].push_back(kill(s, r));
      }
    }
    return groups;
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

  static Status RequireTypedError(const std::vector<uint8_t>& response) {
    auto frame = DecodeFrame(response);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (!frame.ok()) return Status::Internal("undecodable response");
    EXPECT_EQ(frame->kind, FrameKind::kError);
    Status transported;
    EXPECT_TRUE(DecodeError(frame->payload, &transported).ok());
    EXPECT_FALSE(transported.ok());
    return transported;
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  index::BuildOutput built_;
  core::BucketOrganization org_;
  // The index split kShards ways; the monolithic server answers over the
  // whole of it, and every replica of a slice over that slice.
  std::unique_ptr<index::IndexCatalog> catalog_;
  EmbellishServer mono_;
  std::vector<std::unique_ptr<EmbellishServer>> slices_;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints_;
  std::vector<std::unique_ptr<InProcessTransport>> inner_transports_;
  std::vector<std::unique_ptr<KillSwitchTransport>> kills_;
};

TEST_F(ReplicaTest, EveryReplicaAnswersBitIdentically) {
  // With all replicas healthy the replicated coordinator is
  // indistinguishable from the single-replica one: monolithic bytes, no
  // failovers, no hedges, no degraded answers.
  ShardCoordinator coordinator(MakeGroups());
  SessionClient client = MakeClient(1, 701);
  mono_.HandleFrame(client.HelloFrame());
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(coordinator.HandleFrame(*request), mono_.HandleFrame(*request));

  auto topk = EncodeFrame(FrameKind::kTopKQuery, 1,
                          EncodeTopKQuery(10, SomeTerms(3, 71)));
  const std::vector<uint8_t> topk_reference = mono_.HandleFrame(topk);
  EXPECT_EQ(coordinator.HandleFrame(topk), topk_reference);

  // The second replica of every slice is just as good: a coordinator wired
  // to only replica 1 serves the same bytes.
  std::vector<std::vector<ShardTransport*>> replica1_groups(kShards);
  for (size_t s = 0; s < kShards; ++s) replica1_groups[s] = {kill(s, 1)};
  ShardCoordinator coordinator_r1(replica1_groups);
  EXPECT_EQ(DecodeFrame(coordinator_r1.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  EXPECT_EQ(coordinator_r1.HandleFrame(*request),
            mono_.HandleFrame(*request));
  EXPECT_EQ(coordinator_r1.HandleFrame(topk), topk_reference);

  CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.hedges_fired, 0u);
  EXPECT_EQ(stats.degraded_answers, 0u);
}

TEST_F(ReplicaTest, DeadReplicaFailsOverWithoutChangingBytes) {
  kill(1, 0)->Kill();
  ShardCoordinator coordinator(MakeGroups());
  SessionClient client = MakeClient(2, 702);
  mono_.HandleFrame(client.HelloFrame());
  // Handshake and registration survive the dead replica: the slice is
  // usable through its second replica.
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  auto request = client.QueryFrame(SomeTerms(5, 9));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(coordinator.HandleFrame(*request), mono_.HandleFrame(*request));

  CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.degraded_answers, 0u);
}

TEST_F(ReplicaTest, BreakerProbeReAdmitsHealedReplica) {
  kill(1, 0)->Kill();
  ShardCoordinatorOptions options;
  options.breaker_threshold = 1;   // one failure opens the circuit
  options.probe_probability = 1.0; // every order probes an open replica
  ShardCoordinator coordinator(MakeGroups(), options);
  SessionClient client = MakeClient(3, 703);
  mono_.HandleFrame(client.HelloFrame());
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  auto request = client.QueryFrame(SomeTerms(2, 4));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(coordinator.HandleFrame(*request), mono_.HandleFrame(*request));

  // Replica (1,0) healed — but it was dead through the registration, so the
  // probe first surfaces its lost session; the coordinator's self-healing
  // re-registration converges it and the answer stays bit-identical.
  kill(1, 0)->Revive();
  const size_t calls_before = kill(1, 0)->calls();
  auto request2 = client.QueryFrame(SomeTerms(11, 19));
  ASSERT_TRUE(request2.ok());
  EXPECT_EQ(coordinator.HandleFrame(*request2),
            mono_.HandleFrame(*request2));
  // The probe actually sent the healed replica traffic again.
  EXPECT_GT(kill(1, 0)->calls(), calls_before);
}

TEST_F(ReplicaTest, HedgeWinsWhenPrimaryIsSlow) {
  // Every slice's primary is slow: with hedging armed, the duplicate to the
  // second replica answers every logical trip long before the primary does
  // — bytes identical, and the hedge counters prove the path was exercised.
  FaultyTransportOptions slow_options;
  slow_options.schedule = {TransportFault::kDelay};
  slow_options.cycle = true;
  slow_options.delay_ms = kSlowMs;
  std::vector<std::unique_ptr<FaultyTransport>> slow;
  std::vector<std::vector<ShardTransport*>> groups = MakeGroups();
  for (size_t s = 0; s < kShards; ++s) {
    slow.push_back(std::make_unique<FaultyTransport>(kill(s, 0), slow_options));
    groups[s][0] = slow.back().get();
  }

  ShardCoordinatorOptions options;
  options.hedge_delay_ms = 0;
  ShardCoordinator coordinator(groups, options);
  SessionClient client = MakeClient(4, 704);
  mono_.HandleFrame(client.HelloFrame());
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  for (size_t round = 0; round < 3; ++round) {
    auto request = client.QueryFrame(SomeTerms(round + 2, round + 13));
    ASSERT_TRUE(request.ok());
    EXPECT_EQ(coordinator.HandleFrame(*request),
              mono_.HandleFrame(*request));
  }
  CoordinatorStats stats = coordinator.stats();
  EXPECT_GT(stats.hedges_fired, 0u);
  EXPECT_GT(stats.hedge_wins, 0u);
  EXPECT_EQ(stats.degraded_answers, 0u);
}

TEST_F(ReplicaTest, StaleHedgeResponseIsNeverMerged) {
  // Slow primary, reordering hedge replica: every hedge delivers the
  // *previous* round trip's response, whose envelope seq belongs to an
  // older request. The seq fence must reject it every time — the slow
  // primary's own answer is what gets merged, never the stale bytes. With
  // the primary dead the client sees typed errors, and a healed primary
  // immediately restores bit-identical answers.
  FaultyTransportOptions slow_options;
  slow_options.schedule = {TransportFault::kDelay};
  slow_options.cycle = true;
  slow_options.delay_ms = kSlowMs;
  FaultyTransport slow(kill(1, 0), slow_options);
  FaultyTransportOptions reorder_options;
  reorder_options.schedule = {TransportFault::kReorder};
  reorder_options.cycle = true;
  FaultyTransport reordering(kill(1, 1), reorder_options);

  std::vector<std::vector<ShardTransport*>> groups = MakeGroups();
  groups[1][0] = &slow;
  groups[1][1] = &reordering;

  ShardCoordinatorOptions options;
  options.hedge_delay_ms = 0;
  options.breaker_threshold = 0;  // keep the replica order fixed
  options.probe_probability = 0;
  ShardCoordinator storm(groups, options);
  SessionClient client = MakeClient(5, 705);
  mono_.HandleFrame(client.HelloFrame());
  // Register (the reordering replica never acks, but one ack per slice
  // registers the session).
  EXPECT_EQ(DecodeFrame(storm.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  auto request = client.QueryFrame(SomeTerms(7, 23));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> reference = mono_.HandleFrame(*request);

  // Every slice-1 trip hedges onto the reordering replica while the primary
  // is still out; the stale response is refused and the primary answers.
  for (size_t round = 0; round < 4; ++round) {
    EXPECT_EQ(storm.HandleFrame(*request), reference);
  }
  EXPECT_GT(storm.stats().hedges_fired, 0u);
  EXPECT_GE(reordering.stats().reorders, 1u);

  // Now the primary dies: only the stale hedge replica is left.
  kill(1, 0)->Kill();
  for (size_t round = 0; round < 4; ++round) {
    Status error = RequireTypedError(storm.HandleFrame(*request));
    EXPECT_TRUE(error.IsUnavailable()) << error.ToString();
  }

  // Primary healed: the next query must merge bit-identically again (the
  // held stale response on the hedge replica can never leak into it).
  kill(1, 0)->Revive();
  EXPECT_EQ(storm.HandleFrame(*request), reference);
}

TEST_F(ReplicaTest, DegradedModeAnswersFromSurvivors) {
  ShardCoordinatorOptions options;
  options.allow_partial_results = true;
  ShardCoordinator coordinator(MakeGroups(), options);
  SessionClient client = MakeClient(6, 706);
  mono_.HandleFrame(client.HelloFrame());
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  // Healthy: partial mode never activates, bytes are monolithic.
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(coordinator.HandleFrame(*request), mono_.HandleFrame(*request));
  EXPECT_EQ(coordinator.stats().degraded_answers, 0u);

  // The whole replica group of slice 1 dies.
  kill(1, 0)->Kill();
  kill(1, 1)->Kill();

  // PR: answered from slices 0 and 2, marked degraded with missing = {1},
  // and the partial payload is exactly the merge of the survivors' own
  // responses.
  auto request2 = client.QueryFrame(SomeTerms(11, 19));
  ASSERT_TRUE(request2.ok());
  auto degraded = DecodeFrame(coordinator.HandleFrame(*request2));
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->kind, FrameKind::kDegradedResult);
  EXPECT_EQ(degraded->session_id, client.session_id());
  auto partial = DecodeDegradedResult(degraded->payload);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->inner_kind, FrameKind::kResult);
  EXPECT_EQ(partial->missing, std::vector<uint32_t>{1});

  std::vector<core::EncryptedResult> survivor_results;
  for (size_t s : {0u, 2u}) {
    auto slice_frame = DecodeFrame(slice(s, 0)->HandleFrame(*request2));
    ASSERT_TRUE(slice_frame.ok());
    ASSERT_EQ(slice_frame->kind, FrameKind::kResult);
    auto result =
        core::DecodeResult(slice_frame->payload, client.public_key());
    ASSERT_TRUE(result.ok());
    survivor_results.push_back(std::move(*result));
  }
  core::EncryptedResult survivor_merge =
      core::MergeShardResults(std::move(survivor_results));
  EXPECT_EQ(partial->inner_payload,
            core::EncodeResult(survivor_merge, client.public_key()));

  // Top-k: same shape, same survivor-exact merge.
  auto topk = EncodeFrame(FrameKind::kTopKQuery, client.session_id(),
                          EncodeTopKQuery(10, SomeTerms(3, 71)));
  auto degraded_topk = DecodeFrame(coordinator.HandleFrame(topk));
  ASSERT_TRUE(degraded_topk.ok());
  ASSERT_EQ(degraded_topk->kind, FrameKind::kDegradedResult);
  auto partial_topk = DecodeDegradedResult(degraded_topk->payload);
  ASSERT_TRUE(partial_topk.ok());
  EXPECT_EQ(partial_topk->inner_kind, FrameKind::kTopKResult);
  EXPECT_EQ(partial_topk->missing, std::vector<uint32_t>{1});
  std::vector<std::vector<index::ScoredDoc>> survivor_topk;
  for (size_t s : {0u, 2u}) {
    auto slice_frame = DecodeFrame(slice(s, 0)->HandleFrame(topk));
    ASSERT_TRUE(slice_frame.ok());
    ASSERT_EQ(slice_frame->kind, FrameKind::kTopKResult);
    auto docs = DecodeTopKResult(slice_frame->payload);
    ASSERT_TRUE(docs.ok());
    survivor_topk.push_back(std::move(*docs));
  }
  EXPECT_EQ(partial_topk->inner_payload,
            EncodeTopKResult(index::MergeShardTopK(survivor_topk, 10)));

  // PIR stays strict: the addressed slice either answers or errors.
  EXPECT_EQ(coordinator.stats().degraded_answers, 2u);

  // Healed: full answers resume (the degraded response was never cached).
  kill(1, 0)->Revive();
  kill(1, 1)->Revive();
  EXPECT_EQ(coordinator.HandleFrame(*request2),
            mono_.HandleFrame(*request2));
}

TEST_F(ReplicaTest, StrictModeFailsClosedWhenSliceDies) {
  ShardCoordinator coordinator(MakeGroups());  // allow_partial off
  SessionClient client = MakeClient(7, 707);
  EXPECT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  kill(1, 0)->Kill();
  kill(1, 1)->Kill();
  auto request = client.QueryFrame(SomeTerms(5, 9));
  ASSERT_TRUE(request.ok());
  Status error = RequireTypedError(coordinator.HandleFrame(*request));
  EXPECT_TRUE(error.IsUnavailable()) << error.ToString();
  EXPECT_EQ(coordinator.stats().degraded_answers, 0u);
}

}  // namespace
}  // namespace embellish::server
