// Coordinator fault injection: under every FaultyTransport schedule —
// dropped, truncated, bit-flipped, reordered and delayed response frames,
// plus seeded random fault storms — the coordinator must answer the
// affected request with a typed error frame (or, for benign delays, the
// correct bytes), never hang, never crash, and never return a wrong merged
// result; requests that do not touch the faulted shard are unaffected.

#include <gtest/gtest.h>

#include <atomic>

#include "core/wire_format.h"
#include "index/builder.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "slice_rig.h"
#include "testutil.h"
#include "transcript.h"

namespace embellish::server {
namespace {

class CoordinatorFaultTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 3;

  CoordinatorFaultTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 211)),
        corp_(testutil::SmallCorpus(lex_, 150, 212)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)),
        catalog_(testutil::FreezeCatalog(&built_.index, &org_, kShards)),
        mono_(catalog_.get()) {
    for (size_t s = 0; s < kShards; ++s) {
      EmbellishServerOptions options;
      options.shard_slice = s;
      options.shard_slice_count = kShards;
      slices_.push_back(
          std::make_unique<EmbellishServer>(catalog_.get(), options));
      endpoints_.push_back(
          std::make_unique<ShardEndpoint>(slices_.back().get(), s));
      inner_transports_.push_back(
          std::make_unique<InProcessTransport>(endpoints_.back().get()));
    }
  }

  // A coordinator whose shard `faulty_shard` runs `options`-scheduled
  // faults; the other shards get clean transports. Passing kShards faults
  // every shard. The coordinator is handshaken before faults start, so
  // schedules apply to request traffic only (the handshake ping would
  // otherwise consume entry 0).
  std::unique_ptr<ShardCoordinator> MakeCoordinator(
      size_t faulty_shard, FaultyTransportOptions options) {
    faulty_.clear();
    std::vector<ShardTransport*> raw;
    for (size_t s = 0; s < kShards; ++s) {
      if (s == faulty_shard || faulty_shard == kShards) {
        FaultyTransportOptions padded = options;
        if (!padded.schedule.empty()) {
          // Entry 0 covers the handshake ping.
          padded.schedule.insert(padded.schedule.begin(),
                                 TransportFault::kNone);
        }
        faulty_.push_back(std::make_unique<FaultyTransport>(
            inner_transports_[s].get(), std::move(padded)));
        raw.push_back(faulty_.back().get());
      } else {
        raw.push_back(inner_transports_[s].get());
      }
    }
    auto coordinator = std::make_unique<ShardCoordinator>(raw);
    if (!options.schedule.empty()) {
      EXPECT_TRUE(coordinator->Handshake().ok());
    }
    // Fuzz mode (fault_rate > 0) may eat the handshake pings themselves;
    // the coordinator retries lazily on each request, which is part of
    // what the storm test exercises.
    return coordinator;
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

  // Asserts `response` is a well-formed kError frame carrying a typed,
  // decodable status, and returns it.
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
  // whole of it.
  std::unique_ptr<index::IndexCatalog> catalog_;
  EmbellishServer mono_;
  std::vector<std::unique_ptr<EmbellishServer>> slices_;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints_;
  std::vector<std::unique_ptr<InProcessTransport>> inner_transports_;
  std::vector<std::unique_ptr<FaultyTransport>> faulty_;
};

TEST_F(CoordinatorFaultTest, EachFaultKindYieldsTypedErrorThenRecovers) {
  SessionClient client = MakeClient(1, 601);
  mono_.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> reference = mono_.HandleFrame(*request);

  for (TransportFault fault :
       {TransportFault::kDrop, TransportFault::kTruncate,
        TransportFault::kBitFlip, TransportFault::kReorder}) {
    SCOPED_TRACE(static_cast<int>(fault));
    FaultyTransportOptions options;
    // hello (clean), faulted query, then clean recovery.
    options.schedule = {TransportFault::kNone, fault};
    auto coordinator = MakeCoordinator(/*faulty_shard=*/1, options);

    ASSERT_EQ(DecodeFrame(coordinator->HandleFrame(client.HelloFrame()))
                  ->kind,
              FrameKind::kHelloOk);
    Status error = RequireTypedError(coordinator->HandleFrame(*request));
    EXPECT_TRUE(error.IsUnavailable()) << error.ToString();
    EXPECT_EQ(faulty_[0]->faults_injected(), 1u);

    // The fault window is over: the same request now merges bit-identically
    // to the monolithic server. No poisoned state survives.
    EXPECT_EQ(coordinator->HandleFrame(*request), reference);
    CoordinatorStats stats = coordinator->stats();
    EXPECT_EQ(stats.shard_failures, 1u);
  }
}

TEST_F(CoordinatorFaultTest, DelayIsNotAnError) {
  SessionClient client = MakeClient(2, 602);
  mono_.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(5, 9));
  ASSERT_TRUE(request.ok());

  FaultyTransportOptions options;
  options.schedule = {TransportFault::kNone, TransportFault::kDelay};
  options.delay_ms = 5;
  auto coordinator = MakeCoordinator(/*faulty_shard=*/0, options);
  coordinator->HandleFrame(client.HelloFrame());
  // A bounded delay changes only the clock, never the bytes.
  EXPECT_EQ(coordinator->HandleFrame(*request), mono_.HandleFrame(*request));
  EXPECT_EQ(coordinator->stats().shard_failures, 0u);
}

TEST_F(CoordinatorFaultTest, HealthyShardRequestsAreUnaffected) {
  // While shard 1's transport eats every response, PIR requests addressed
  // to the other shards keep answering normally.
  FaultyTransportOptions options;
  options.schedule = {TransportFault::kDrop};
  options.cycle = true;
  auto coordinator = MakeCoordinator(/*faulty_shard=*/1, options);

  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[29]);
  ASSERT_TRUE(slot.ok());
  Rng rng(611);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto query = pir_client.BuildQuery(slot->slot,
                                     org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(query.ok());

  for (size_t shard : {0u, 2u}) {
    auto request = EncodeFrame(
        FrameKind::kPirQuery, 12,
        EncodePirQuery(coordinator->PirBucketField(shard, slot->bucket),
                       *query));
    auto frame = DecodeFrame(coordinator->HandleFrame(request));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->kind, FrameKind::kPirResult) << "shard " << shard;
  }
  // The faulted shard's PIR requests error, typed.
  auto dead = EncodeFrame(
      FrameKind::kPirQuery, 12,
      EncodePirQuery(coordinator->PirBucketField(1, slot->bucket), *query));
  Status error = RequireTypedError(coordinator->HandleFrame(dead));
  EXPECT_TRUE(error.IsUnavailable());
}

TEST_F(CoordinatorFaultTest, ReorderedResponsesNeverMisMerge) {
  // Two reordered round trips deliver each other's responses; the seq echo
  // must catch the swap — both answers are typed errors or correct bytes,
  // never a merge over the wrong shard response.
  SessionClient client = MakeClient(3, 603);
  mono_.HandleFrame(client.HelloFrame());
  auto request_a = client.QueryFrame(SomeTerms(2, 4));
  auto request_b = client.QueryFrame(SomeTerms(11, 19));
  ASSERT_TRUE(request_a.ok() && request_b.ok());
  const auto reference_a = mono_.HandleFrame(*request_a);
  const auto reference_b = mono_.HandleFrame(*request_b);

  FaultyTransportOptions options;
  options.schedule = {TransportFault::kNone, TransportFault::kReorder,
                      TransportFault::kReorder};
  auto coordinator = MakeCoordinator(/*faulty_shard=*/2, options);
  coordinator->HandleFrame(client.HelloFrame());

  for (const auto& [request, reference] :
       {std::pair(&*request_a, &reference_a),
        std::pair(&*request_b, &reference_b)}) {
    auto response = coordinator->HandleFrame(*request);
    if (response == *reference) continue;  // delivered in time after all
    Status error = RequireTypedError(response);
    EXPECT_TRUE(error.IsUnavailable()) << error.ToString();
  }
  // Clean afterwards.
  EXPECT_EQ(coordinator->HandleFrame(*request_a), reference_a);
}

TEST_F(CoordinatorFaultTest, SeededFaultStormNeverCorruptsAnswers) {
  // Fuzz mode: every shard's transport injects seeded random faults on ~35%
  // of round trips across a mixed PR / PIR / top-k workload. Every response
  // must be either bit-identical to the reference answer — a fault-free
  // coordinator over in-process slices fed the same bytes — or a
  // well-formed typed error frame.
  testutil::SliceRig rig = testutil::MakeSliceRig(catalog_.get(), kShards);
  ShardCoordinator& reference = *rig.coordinator;

  SessionClient client = MakeClient(4, 604);
  reference.HandleFrame(client.HelloFrame());

  FaultyTransportOptions options;
  options.fault_rate = 0.35;
  options.seed = 977;
  options.delay_ms = 1;
  auto coordinator = MakeCoordinator(/*faulty_shard=*/kShards, options);

  // Register the session, retrying through the storm (registration itself
  // may be eaten; the loop proves hellos are also hang- and crash-free).
  bool registered = false;
  for (int attempt = 0; attempt < 50 && !registered; ++attempt) {
    auto frame = DecodeFrame(coordinator->HandleFrame(client.HelloFrame()));
    ASSERT_TRUE(frame.ok());
    registered = frame->kind == FrameKind::kHelloOk;
    if (!registered) ASSERT_EQ(frame->kind, FrameKind::kError);
  }
  ASSERT_TRUE(registered);

  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[17]);
  ASSERT_TRUE(slot.ok());
  Rng rng(612);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto pir_query = pir_client.BuildQuery(
      slot->slot, org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(pir_query.ok());

  size_t clean = 0, errored = 0;
  for (size_t round = 0; round < 10; ++round) {
    auto pr_request = client.QueryFrame(SomeTerms(2, 4));
    ASSERT_TRUE(pr_request.ok());
    std::vector<std::vector<uint8_t>> requests{
        *pr_request,
        EncodeFrame(FrameKind::kPirQuery, 4,
                    EncodePirQuery(coordinator->PirBucketField(
                                       round % kShards, slot->bucket),
                                   *pir_query)),
        EncodeFrame(FrameKind::kTopKQuery, 4,
                    EncodeTopKQuery(10, SomeTerms(2, 4)))};
    for (const auto& request : requests) {
      auto response = coordinator->HandleFrame(request);
      if (response == reference.HandleFrame(request)) {
        ++clean;
      } else {
        Status error = RequireTypedError(response);
        EXPECT_FALSE(error.ok());
        ++errored;
      }
    }
  }
  // The storm actually exercised both paths.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(errored, 0u);
  size_t injected = 0;
  for (const auto& f : faulty_) injected += f->faults_injected();
  EXPECT_GT(injected, 0u);
}

// A transport whose peer can be killed mid-test, and brought back as a
// restarted peer.
class KillableTransport : public ShardTransport {
 public:
  explicit KillableTransport(ShardTransport* inner) : inner_(inner) {}
  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    if (dead_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("replica killed");
    }
    return inner_.load(std::memory_order_relaxed)->RoundTrip(request);
  }
  void Kill() { dead_.store(true, std::memory_order_relaxed); }
  // Routes further trips to `inner` (not owned) and answers them again.
  void Revive(ShardTransport* inner) {
    inner_.store(inner, std::memory_order_relaxed);
    dead_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<ShardTransport*> inner_;
  std::atomic<bool> dead_{false};
};

TEST_F(CoordinatorFaultTest, DegradedTranscriptHidesWhichQueriesRepeat) {
  // The transcript case over degraded partial results: slice 1 dies after
  // both sessions register, and the survivors' merges must not tell a
  // session repeating {a1, b1} from one issuing {a1, b1} and {a2, b2}.
  const testutil::TwoBucketTerms t =
      testutil::PickTwoBucketTerms(built_.index.IndexedTerms(), org_);
  KillableTransport dying(inner_transports_[1].get());
  ShardCoordinatorOptions options;
  options.allow_partial_results = true;
  ShardCoordinator coordinator(
      std::vector<ShardTransport*>{inner_transports_[0].get(), &dying,
                                   inner_transports_[2].get()},
      options);
  SessionClient a = MakeClient(13, 613);
  SessionClient b = MakeClient(14, 614);
  ASSERT_EQ(DecodeFrame(coordinator.HandleFrame(a.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  ASSERT_EQ(DecodeFrame(coordinator.HandleFrame(b.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  dying.Kill();

  auto [ta, tb] = testutil::RepeatedAndDistinctQueries(a, b, t);
  auto serve = [&](const std::vector<uint8_t>& request) {
    return coordinator.HandleFrame(request);
  };
  testutil::AnswerEach(&ta, serve);
  testutil::AnswerEach(&tb, serve);
  for (const auto& response : ta.responses) {
    EXPECT_EQ(DecodeFrame(response)->kind, FrameKind::kDegradedResult);
  }
  testutil::ExpectIndistinguishable(ta, tb);
}

TEST_F(CoordinatorFaultTest, CutoverSurvivesASliceRefusingEveryTrip) {
  // A slice refuses every trip while the writer cuts over, then comes back
  // restarted, with an empty session table. The cutover still completes and
  // counts the repair it left behind; the next query re-handshakes,
  // re-registers its session on the restarted slice, and merges
  // bit-identically to the monolithic server.
  SessionClient client = MakeClient(11, 611);
  mono_.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> reference = mono_.HandleFrame(*request);

  KillableTransport flaky(inner_transports_[1].get());
  ShardCoordinator coordinator(std::vector<ShardTransport*>{
      inner_transports_[0].get(), &flaky, inner_transports_[2].get()});
  ASSERT_EQ(DecodeFrame(coordinator.HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);
  ASSERT_EQ(coordinator.HandleFrame(*request), reference);
  const uint64_t epoch = coordinator.epoch();

  flaky.Kill();
  Status cutover = coordinator.AdvanceEpoch();
  EXPECT_TRUE(cutover.ok()) << cutover.ToString();
  EXPECT_EQ(coordinator.epoch(), epoch + 1);
  EXPECT_GE(coordinator.stats().deferred_repairs, 1u);

  EmbellishServerOptions options;
  options.shard_slice = 1;
  options.shard_slice_count = kShards;
  EmbellishServer restarted(catalog_.get(), options);
  ShardEndpoint endpoint(&restarted, 1);
  InProcessTransport transport(&endpoint);
  flaky.Revive(&transport);
  EXPECT_EQ(coordinator.HandleFrame(*request), reference);
}

TEST_F(CoordinatorFaultTest, CutoverSurvivesARefusedReHello) {
  // The slice answers the cutover's ping but its ack of the session's
  // re-hello is lost: the cutover completes, counts one deferred repair,
  // and the session's next query is still byte-identical.
  SessionClient client = MakeClient(12, 612);
  mono_.HandleFrame(client.HelloFrame());
  auto request = client.QueryFrame(SomeTerms(5, 9));
  ASSERT_TRUE(request.ok());
  const std::vector<uint8_t> reference = mono_.HandleFrame(*request);

  FaultyTransportOptions options;
  // hello, cutover ping, cutover re-hello (dropped), then clean.
  options.schedule = {TransportFault::kNone, TransportFault::kNone,
                      TransportFault::kDrop};
  auto coordinator = MakeCoordinator(/*faulty_shard=*/2, options);
  ASSERT_EQ(DecodeFrame(coordinator->HandleFrame(client.HelloFrame()))->kind,
            FrameKind::kHelloOk);

  Status cutover = coordinator->AdvanceEpoch();
  EXPECT_TRUE(cutover.ok()) << cutover.ToString();
  EXPECT_EQ(faulty_[0]->stats().drops, 1u);
  EXPECT_EQ(coordinator->stats().deferred_repairs, 1u);
  EXPECT_EQ(coordinator->HandleFrame(*request), reference);
}

TEST_F(CoordinatorFaultTest, ReplicatedStormWithMidRunKillStaysSound) {
  // The full stack at once: two replicas per slice, seeded random faults on
  // ~35% of every replica's round trips, hedging armed, retry/failover on,
  // degraded mode opted in — and halfway through, replica 0 of every slice
  // is killed outright. Every answer must be bit-identical to the healthy
  // reference, a well-formed degraded partial naming its missing slices, or
  // a typed error. Never a hang, never a silent wrong merge.
  testutil::SliceRig rig = testutil::MakeSliceRig(catalog_.get(), kShards);
  ShardCoordinator& reference = *rig.coordinator;

  // Replica 1: a second, independent server per slice.
  std::vector<std::unique_ptr<EmbellishServer>> slices2;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints2;
  std::vector<std::unique_ptr<InProcessTransport>> transports2;
  for (size_t s = 0; s < kShards; ++s) {
    EmbellishServerOptions options;
    options.shard_slice = s;
    options.shard_slice_count = kShards;
    slices2.push_back(
        std::make_unique<EmbellishServer>(catalog_.get(), options));
    endpoints2.push_back(
        std::make_unique<ShardEndpoint>(slices2.back().get(), s));
    transports2.push_back(
        std::make_unique<InProcessTransport>(endpoints2.back().get()));
  }

  // Both replicas of every slice run the fault storm; replica 0 is
  // additionally killable.
  std::vector<std::unique_ptr<FaultyTransport>> storm_faulty;
  std::vector<std::unique_ptr<KillableTransport>> killable;
  std::vector<std::vector<ShardTransport*>> groups(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    FaultyTransportOptions fo;
    fo.fault_rate = 0.35;
    fo.delay_ms = 1;
    fo.seed = 8000 + s;
    storm_faulty.push_back(std::make_unique<FaultyTransport>(
        inner_transports_[s].get(), fo));
    killable.push_back(
        std::make_unique<KillableTransport>(storm_faulty.back().get()));
    groups[s].push_back(killable.back().get());
    fo.seed = 9000 + s;
    storm_faulty.push_back(std::make_unique<FaultyTransport>(
        transports2[s].get(), fo));
    groups[s].push_back(storm_faulty.back().get());
  }

  ShardCoordinatorOptions options;
  options.max_attempts = 2;
  options.hedge_delay_ms = 0;
  options.allow_partial_results = true;
  ThreadPool pool(3);
  ShardCoordinator coordinator(groups, options, &pool);

  SessionClient client = MakeClient(9, 609);
  reference.HandleFrame(client.HelloFrame());
  bool registered = false;
  for (int attempt = 0; attempt < 50 && !registered; ++attempt) {
    auto frame = DecodeFrame(coordinator.HandleFrame(client.HelloFrame()));
    ASSERT_TRUE(frame.ok());
    registered = frame->kind == FrameKind::kHelloOk;
    if (!registered) ASSERT_EQ(frame->kind, FrameKind::kError);
  }
  ASSERT_TRUE(registered);

  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[17]);
  ASSERT_TRUE(slot.ok());
  Rng rng(613);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto pir_query = pir_client.BuildQuery(
      slot->slot, org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(pir_query.ok());

  size_t clean = 0, degraded = 0, errored = 0;
  for (size_t round = 0; round < 10; ++round) {
    if (round == 5) {
      for (auto& k : killable) k->Kill();  // replica 0 of every slice dies
    }
    auto pr_request = client.QueryFrame(SomeTerms(2, 4));
    ASSERT_TRUE(pr_request.ok());
    std::vector<std::vector<uint8_t>> requests{
        *pr_request,
        EncodeFrame(FrameKind::kPirQuery, 9,
                    EncodePirQuery(coordinator.PirBucketField(
                                       round % kShards, slot->bucket),
                                   *pir_query)),
        EncodeFrame(FrameKind::kTopKQuery, 9,
                    EncodeTopKQuery(10, SomeTerms(2, 4)))};
    for (const auto& request : requests) {
      const std::vector<uint8_t> ref = reference.HandleFrame(request);
      const std::vector<uint8_t> response = coordinator.HandleFrame(request);
      if (response == ref) {
        ++clean;
        continue;
      }
      auto frame = DecodeFrame(response);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      if (frame->kind == FrameKind::kDegradedResult) {
        // A degraded answer must carry a well-formed marker and a payload
        // that decodes under the matching inner kind.
        auto partial = DecodeDegradedResult(frame->payload);
        ASSERT_TRUE(partial.ok()) << partial.status().ToString();
        EXPECT_FALSE(partial->missing.empty());
        EXPECT_LT(partial->missing.back(), kShards);
        if (partial->inner_kind == FrameKind::kResult) {
          EXPECT_TRUE(core::DecodeResult(partial->inner_payload,
                                         client.public_key())
                          .ok());
        } else {
          ASSERT_EQ(partial->inner_kind, FrameKind::kTopKResult);
          EXPECT_TRUE(DecodeTopKResult(partial->inner_payload).ok());
        }
        ++degraded;
        continue;
      }
      Status error = RequireTypedError(response);
      EXPECT_FALSE(error.ok());
      ++errored;
    }
  }
  // The storm exercised the paths it was built to exercise.
  EXPECT_GT(clean, 0u);
  EXPECT_GT(degraded + errored, 0u);
  size_t injected = 0;
  for (const auto& f : storm_faulty) injected += f->stats().total();
  EXPECT_GT(injected, 0u);
}

TEST_F(CoordinatorFaultTest, FaultKindCountersMatchInjection) {
  // The per-kind counters let this suite assert which fault class actually
  // fired instead of trusting the seed: a scheduled truncate shows up as
  // exactly one truncation, nothing else.
  SessionClient client = MakeClient(10, 610);
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());

  FaultyTransportOptions options;
  options.schedule = {TransportFault::kNone, TransportFault::kTruncate,
                      TransportFault::kDrop};
  auto coordinator = MakeCoordinator(/*faulty_shard=*/1, options);
  coordinator->HandleFrame(client.HelloFrame());
  coordinator->HandleFrame(*request);  // eats the truncate
  coordinator->HandleFrame(*request);  // eats the drop
  FaultyTransportStats stats = faulty_[0]->stats();
  EXPECT_EQ(stats.truncations, 1u);
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_EQ(stats.bit_flips, 0u);
  EXPECT_EQ(stats.reorders, 0u);
  EXPECT_EQ(stats.delays, 0u);
  EXPECT_EQ(stats.total(), faulty_[0]->faults_injected());
  // calls: handshake ping + hello + 2 faulted queries (+ the hello retry
  // traffic the schedule's kNone padding absorbed) — at least 4.
  EXPECT_GE(stats.calls, 4u);
}

}  // namespace
}  // namespace embellish::server
