// The async stack end to end: ShardCoordinator fanning out over
// MultiplexedTransports (one non-blocking socket per shard, all on one
// EventLoop) and serving clients through the AsyncFrontEnd. Three claims:
//
//   1. Every PR / PIR / top-k response is byte-identical to the monolithic
//      and in-process sharded servers at 1/2/4/8 shards — through the
//      multiplexed fan-out AND through the async front end on top.
//   2. With multiplexed transports, no executor worker ever parks on
//      transport I/O: stats().blocking_io_trips stays 0.
//   3. The PR 4 fault storm and the PR 6 replicated kill storm hold
//      unchanged when their transports are multiplexed: every answer is
//      clean bytes, a well-formed degraded partial, or a typed error.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "core/wire_format.h"
#include "index/builder.h"
#include "server/async_frontend.h"
#include "server/event_loop.h"
#include "server/io_util.h"
#include "server/multiplexed_transport.h"
#include "server/session_client.h"
#include "server/shard_coordinator.h"
#include "testutil.h"

namespace embellish::server {
namespace {

// A TCP slice-server fleet: one listener + blocking serve thread per shard.
class ShardFleet {
 public:
  ~ShardFleet() { Stop(); }

  uint16_t Add(ShardEndpoint* endpoint) {
    uint16_t port = 0;
    auto listen_fd = ListenOnLoopback(&port);
    EXPECT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    listen_fds_.push_back(*listen_fd);
    threads_.emplace_back([fd = *listen_fd, endpoint] {
      (void)ServeShardConnections(fd, endpoint);
    });
    return port;
  }

  // Call only after every transport into the fleet has been destroyed
  // (the serve loops return to accept() once their connection closes).
  void Stop() {
    for (int fd : listen_fds_) {
      shutdown(fd, SHUT_RDWR);
      close(fd);
    }
    listen_fds_.clear();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

 private:
  std::vector<int> listen_fds_;
  std::vector<std::thread> threads_;
};

// A blocking framed client for the front-end side.
class WireClient {
 public:
  explicit WireClient(uint16_t port) {
    auto fd = ConnectWithDeadline("127.0.0.1", port, 5000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.ok() ? *fd : -1;
    if (fd_ >= 0) EXPECT_TRUE(SetBlocking(fd_).ok());
  }
  ~WireClient() {
    if (fd_ >= 0) close(fd_);
  }

  std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& request) {
    EXPECT_TRUE(WriteAll(fd_, request.data(), request.size(),
                         DeadlineFromNow(10000))
                    .ok());
    auto response =
        ReadFrameFd(fd_, kMaxTransportFrameBytes, DeadlineFromNow(30000));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *std::move(response) : std::vector<uint8_t>{};
  }

 private:
  int fd_ = -1;
};

// KillableTransport that keeps the inner transport's async submit, so the
// replicated kill storm's trips stay on the event loop.
class AsyncKillableTransport : public ShardTransport {
 public:
  explicit AsyncKillableTransport(ShardTransport* inner) : inner_(inner) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    if (dead_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("replica killed");
    }
    return inner_->RoundTrip(request);
  }

  bool SupportsAsyncSubmit() const override {
    return inner_->SupportsAsyncSubmit();
  }

  void SubmitRoundTrip(const std::vector<uint8_t>& request,
                       RoundTripCompletion done) override {
    if (dead_.load(std::memory_order_relaxed)) {
      done(Status::Unavailable("replica killed"));
      return;
    }
    inner_->SubmitRoundTrip(request, std::move(done));
  }

  void Kill() { dead_.store(true, std::memory_order_relaxed); }

 private:
  ShardTransport* inner_;  // not owned
  std::atomic<bool> dead_{false};
};

class AsyncStackTest : public ::testing::Test {
 protected:
  AsyncStackTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 211)),
        corp_(testutil::SmallCorpus(lex_, 150, 212)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)) {}

  void SetUp() override {
    auto loop = EventLoop::Create();
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    loop_ = std::move(*loop);
    ASSERT_TRUE(loop_->Start().ok());
  }

  void TearDown() override { loop_->Stop(); }

  // `slices[s]`, `endpoints[s]` for an N-way document partition.
  void MakeSlices(size_t shards,
                  std::vector<std::unique_ptr<EmbellishServer>>* slices,
                  std::vector<std::unique_ptr<ShardEndpoint>>* endpoints) {
    for (size_t s = 0; s < shards; ++s) {
      EmbellishServerOptions options;
      options.shard_slice = s;
      options.shard_slice_count = shards;
      slices->push_back(std::make_unique<EmbellishServer>(&built_.index,
                                                          &org_, nullptr,
                                                          options));
      endpoints->push_back(
          std::make_unique<ShardEndpoint>(slices->back().get(), s));
    }
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
  std::unique_ptr<EventLoop> loop_;
};

TEST_F(AsyncStackTest, CoordinatorFrontEndRefusesZeroDispatchers) {
  // dispatch_threads = 0 would run HandleBatch on the loop thread, where the
  // fan-out waits for completions only that thread can deliver. ServeAsync
  // refuses the configuration (typed) instead of wedging the loop.
  std::vector<std::unique_ptr<EmbellishServer>> slices;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints;
  MakeSlices(1, &slices, &endpoints);
  ShardFleet fleet;
  const uint16_t shard_port = fleet.Add(endpoints[0].get());
  {
    auto mux = MultiplexedTransport::Connect("127.0.0.1", shard_port,
                                             loop_.get());
    ASSERT_TRUE(mux.ok()) << mux.status().ToString();
    ShardCoordinator coordinator(std::vector<ShardTransport*>{mux->get()});
    ASSERT_TRUE(coordinator.Handshake().ok());

    uint16_t port = 0;
    auto listen_fd = ListenOnLoopback(&port);
    ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    AsyncFrontEndOptions options;
    options.dispatch_threads = 0;
    auto front_end = coordinator.ServeAsync(*listen_fd, loop_.get(), options);
    ASSERT_FALSE(front_end.ok());
    EXPECT_TRUE(front_end.status().IsInvalidArgument())
        << front_end.status().ToString();
    // The listener it took over is closed: nothing accepts on the port.
    EXPECT_FALSE(ConnectWithDeadline("127.0.0.1", port, 1000).ok());
  }
  fleet.Stop();
}

TEST_F(AsyncStackTest, BitIdenticalThroughMuxAndFrontEndAtAllShardCounts) {
  EmbellishServer mono(&built_.index, &org_, nullptr);
  SessionClient client = MakeClient(1, 701);
  auto request = client.QueryFrame(SomeTerms(3, 71));
  ASSERT_TRUE(request.ok());
  auto topk = EncodeFrame(FrameKind::kTopKQuery, 1,
                          EncodeTopKQuery(10, SomeTerms(3, 71)));

  auto terms = built_.index.IndexedTerms();
  auto slot = org_.Locate(terms[29]);
  ASSERT_TRUE(slot.ok());
  Rng rng(711);
  crypto::PirClient pir_client =
      std::move(crypto::PirClient::Create(256, &rng)).value();
  auto pir_query = pir_client.BuildQuery(
      slot->slot, org_.bucket(slot->bucket).size(), &rng);
  ASSERT_TRUE(pir_query.ok());

  for (size_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EmbellishServerOptions shard_options;
    shard_options.shard_count = shards;
    EmbellishServer sharded(&built_.index, &org_, nullptr, shard_options);

    std::vector<std::unique_ptr<EmbellishServer>> slices;
    std::vector<std::unique_ptr<ShardEndpoint>> endpoints;
    MakeSlices(shards, &slices, &endpoints);
    ShardFleet fleet;

    {
      std::vector<std::unique_ptr<MultiplexedTransport>> muxes;
      std::vector<ShardTransport*> raw;
      for (size_t s = 0; s < shards; ++s) {
        uint16_t port = fleet.Add(endpoints[s].get());
        auto mux = MultiplexedTransport::Connect("127.0.0.1", port,
                                                 loop_.get());
        ASSERT_TRUE(mux.ok()) << mux.status().ToString();
        muxes.push_back(std::move(*mux));
        raw.push_back(muxes.back().get());
      }
      ShardCoordinator coordinator(raw);
      ASSERT_TRUE(coordinator.Handshake().ok());

      // Direct HandleFrame through the multiplexed fan-out.
      mono.HandleFrame(client.HelloFrame());
      EXPECT_EQ(coordinator.HandleFrame(client.HelloFrame()),
                sharded.HandleFrame(client.HelloFrame()));
      EXPECT_EQ(coordinator.HandleFrame(*request), mono.HandleFrame(*request));
      EXPECT_EQ(coordinator.HandleFrame(topk), mono.HandleFrame(topk));
      for (size_t shard = 0; shard < shards; ++shard) {
        auto pir_request = EncodeFrame(
            FrameKind::kPirQuery, 1,
            EncodePirQuery(coordinator.PirBucketField(shard, slot->bucket),
                           *pir_query));
        EXPECT_EQ(coordinator.HandleFrame(pir_request),
                  sharded.HandleFrame(pir_request))
            << "shard " << shard;
      }

      // And the same bytes once more through the async front end: client
      // socket -> event loop -> dispatcher -> multiplexed fan-out.
      uint16_t front_port = 0;
      auto front_listen = ListenOnLoopback(&front_port);
      ASSERT_TRUE(front_listen.ok());
      auto front_end = coordinator.ServeAsync(*front_listen, loop_.get());
      ASSERT_TRUE(front_end.ok()) << front_end.status().ToString();
      {
        WireClient wire(front_port);
        // The hello advertises the topology, so it matches the sharded
        // server (not the monolithic one); query bytes match both.
        EXPECT_EQ(wire.RoundTrip(client.HelloFrame()),
                  sharded.HandleFrame(client.HelloFrame()));
        EXPECT_EQ(wire.RoundTrip(*request), mono.HandleFrame(*request));
        EXPECT_EQ(wire.RoundTrip(topk), mono.HandleFrame(topk));
      }
      (*front_end)->Shutdown();

      // The acceptance invariant: with every transport multiplexed, no
      // executor worker ever parked on blocking transport I/O.
      CoordinatorStats stats = coordinator.stats();
      EXPECT_EQ(stats.blocking_io_trips, 0u);
      EXPECT_GT(stats.async_io_trips, 0u);
      EXPECT_EQ(stats.errors, 0u);
    }
    fleet.Stop();
  }
}

TEST_F(AsyncStackTest, FaultStormOverMultiplexedTransportsStaysSound) {
  // The PR 4 seeded fault storm, transports swapped for
  // FaultyTransport(MultiplexedTransport): ~35% of round trips are
  // dropped / truncated / bit-flipped / reordered / delayed ABOVE the
  // correlation layer, across a mixed PR / PIR / top-k workload. Every
  // response must be bit-identical to the in-process reference or a typed
  // error — the mux must never let a fault turn into a wrong merge.
  constexpr size_t kShards = 3;
  EmbellishServerOptions ref_options;
  ref_options.shard_count = kShards;
  EmbellishServer reference(&built_.index, &org_, nullptr, ref_options);

  std::vector<std::unique_ptr<EmbellishServer>> slices;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints;
  MakeSlices(kShards, &slices, &endpoints);
  ShardFleet fleet;

  {
    std::vector<std::unique_ptr<MultiplexedTransport>> muxes;
    std::vector<std::unique_ptr<FaultyTransport>> faulty;
    std::vector<ShardTransport*> raw;
    for (size_t s = 0; s < kShards; ++s) {
      uint16_t port = fleet.Add(endpoints[s].get());
      auto mux =
          MultiplexedTransport::Connect("127.0.0.1", port, loop_.get());
      ASSERT_TRUE(mux.ok()) << mux.status().ToString();
      muxes.push_back(std::move(*mux));
      FaultyTransportOptions fo;
      fo.fault_rate = 0.35;
      fo.seed = 977 + s;
      fo.delay_ms = 1;
      faulty.push_back(
          std::make_unique<FaultyTransport>(muxes.back().get(), fo));
      raw.push_back(faulty.back().get());
    }
    ShardCoordinator coordinator(raw);

    SessionClient client = MakeClient(4, 704);
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
    Rng rng(712);
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
                      EncodePirQuery(coordinator.PirBucketField(
                                         round % kShards, slot->bucket),
                                     *pir_query)),
          EncodeFrame(FrameKind::kTopKQuery, 4,
                      EncodeTopKQuery(10, SomeTerms(2, 4)))};
      for (const auto& request : requests) {
        auto response = coordinator.HandleFrame(request);
        if (response == reference.HandleFrame(request)) {
          ++clean;
        } else {
          Status error = RequireTypedError(response);
          EXPECT_FALSE(error.ok());
          ++errored;
        }
      }
    }
    EXPECT_GT(clean, 0u);
    EXPECT_GT(errored, 0u);
    size_t injected = 0;
    for (const auto& f : faulty) injected += f->faults_injected();
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(coordinator.stats().blocking_io_trips, 0u);
  }
  fleet.Stop();
}

TEST_F(AsyncStackTest, ReplicatedKillStormOverMultiplexedTransportsStaysSound) {
  // The PR 6 replicated storm on the submit-and-await fan-out: two
  // multiplexed replicas per slice, seeded faults on both, hedging armed,
  // failover on, degraded mode opted in — and halfway through, replica 0 of
  // every slice is killed. Every answer must be clean bytes, a well-formed
  // degraded partial, or a typed error.
  constexpr size_t kShards = 3;
  EmbellishServerOptions ref_options;
  ref_options.shard_count = kShards;
  EmbellishServer reference(&built_.index, &org_, nullptr, ref_options);

  std::vector<std::unique_ptr<EmbellishServer>> slices1, slices2;
  std::vector<std::unique_ptr<ShardEndpoint>> endpoints1, endpoints2;
  MakeSlices(kShards, &slices1, &endpoints1);
  MakeSlices(kShards, &slices2, &endpoints2);
  ShardFleet fleet;

  {
    std::vector<std::unique_ptr<MultiplexedTransport>> muxes;
    std::vector<std::unique_ptr<FaultyTransport>> faulty;
    std::vector<std::unique_ptr<AsyncKillableTransport>> killable;
    std::vector<std::vector<ShardTransport*>> groups(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      for (int replica = 0; replica < 2; ++replica) {
        ShardEndpoint* endpoint =
            replica == 0 ? endpoints1[s].get() : endpoints2[s].get();
        uint16_t port = fleet.Add(endpoint);
        auto mux =
            MultiplexedTransport::Connect("127.0.0.1", port, loop_.get());
        ASSERT_TRUE(mux.ok()) << mux.status().ToString();
        muxes.push_back(std::move(*mux));
        FaultyTransportOptions fo;
        fo.fault_rate = 0.35;
        fo.delay_ms = 1;
        fo.seed = (replica == 0 ? 8000 : 9000) + s;
        faulty.push_back(
            std::make_unique<FaultyTransport>(muxes.back().get(), fo));
        if (replica == 0) {
          killable.push_back(
              std::make_unique<AsyncKillableTransport>(faulty.back().get()));
          groups[s].push_back(killable.back().get());
        } else {
          groups[s].push_back(faulty.back().get());
        }
      }
    }

    ShardCoordinatorOptions options;
    options.max_attempts = 2;
    options.hedge_delay_ms = 0;
    options.allow_partial_results = true;
    ShardCoordinator coordinator(groups, options);

    SessionClient client = MakeClient(9, 709);
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
    Rng rng(713);
    crypto::PirClient pir_client =
        std::move(crypto::PirClient::Create(256, &rng)).value();
    auto pir_query = pir_client.BuildQuery(
        slot->slot, org_.bucket(slot->bucket).size(), &rng);
    ASSERT_TRUE(pir_query.ok());

    size_t clean = 0, degraded = 0, errored = 0;
    for (size_t round = 0; round < 10; ++round) {
      if (round == 5) {
        for (auto& k : killable) k->Kill();
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
        const std::vector<uint8_t> response =
            coordinator.HandleFrame(request);
        if (response == ref) {
          ++clean;
          continue;
        }
        auto frame = DecodeFrame(response);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        if (frame->kind == FrameKind::kDegradedResult) {
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
    EXPECT_GT(clean, 0u);
    EXPECT_GT(degraded + errored, 0u);
    size_t injected = 0;
    for (const auto& f : faulty) injected += f->stats().total();
    EXPECT_GT(injected, 0u);
    EXPECT_EQ(coordinator.stats().blocking_io_trips, 0u);
    EXPECT_GT(coordinator.stats().async_io_trips, 0u);
  }
  fleet.Stop();
}

}  // namespace
}  // namespace embellish::server
