// Correlation tests for the multiplexed transport: the test adopts one end
// of a socketpair and plays the byzantine peer on the other — responding
// out of order, duplicating, fabricating, poisoning the stream, or dying —
// and every in-flight round trip must either receive exactly its own
// response or fail with a typed status. A wrong-submitter delivery is the
// one outcome that must be impossible.

#include "server/multiplexed_transport.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "server/framing.h"
#include "server/io_util.h"
#include "server/shard_transport.h"

namespace embellish::server {
namespace {

// One submitted round trip's observable outcome, awaitable from the test
// thread (completions run on the loop thread).
struct Outcome {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<std::vector<uint8_t>> result = std::vector<uint8_t>{};

  ShardTransport::RoundTripCompletion Completion() {
    return [this](Result<std::vector<uint8_t>> r) {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
      cv.notify_one();
    };
  }

  Result<std::vector<uint8_t>> Await() {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [this] { return done; }))
        << "round trip never completed";
    return std::move(result);
  }

  bool completed() {
    std::lock_guard<std::mutex> lock(mu);
    return done;
  }
};

class MultiplexedTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loop = EventLoop::Create();
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    loop_ = std::move(*loop);
    ASSERT_TRUE(loop_->Start().ok());
  }

  void TearDown() override {
    transport_.reset();  // before the loop stops, per the contract
    if (peer_fd_ >= 0) close(peer_fd_);
    loop_->Stop();
  }

  // Adopts one end of a socketpair; the test keeps the (blocking) peer end.
  void AdoptPair(const MultiplexedTransportOptions& options = {}) {
    int fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    peer_fd_ = fds[1];
    auto transport = MultiplexedTransport::Adopt(fds[0], loop_.get(), options);
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    transport_ = std::move(*transport);
  }

  static std::vector<uint8_t> Request(uint64_t seq, uint64_t epoch = 1) {
    return EncodeFrame(FrameKind::kShardRequest, 0,
                       EncodeShardEnvelope(0, epoch, seq, {}));
  }

  // A response whose inner frame carries `seq` in its session id, so the
  // test can verify WHICH response each submitter received.
  static std::vector<uint8_t> Response(uint64_t seq, uint64_t epoch = 1) {
    auto inner = EncodeFrame(FrameKind::kHelloOk, seq, EncodeHelloOk(1, 4));
    return EncodeFrame(FrameKind::kShardResponse, 0,
                       EncodeShardEnvelope(0, epoch, seq, inner));
  }

  static uint64_t SeqOf(const std::vector<uint8_t>& response) {
    auto outer = DecodeFrame(response);
    if (!outer.ok()) return ~0ull;
    auto envelope = DecodeShardEnvelope(outer->payload);
    return envelope.ok() ? envelope->seq : ~0ull;
  }

  // Peer side: blocking framed I/O with a test-failure deadline.
  std::vector<uint8_t> PeerReadFrame() {
    auto frame =
        ReadFrameFd(peer_fd_, kMaxTransportFrameBytes, DeadlineFromNow(10000));
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? *std::move(frame) : std::vector<uint8_t>{};
  }

  void PeerWrite(const std::vector<uint8_t>& bytes) {
    ASSERT_TRUE(WriteAll(peer_fd_, bytes.data(), bytes.size()).ok());
  }

  void AwaitStats(std::function<bool(const MultiplexedTransportStats&)> pred) {
    for (int i = 0; i < 2000; ++i) {
      if (pred(transport_->stats())) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "stats predicate never satisfied";
  }

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<MultiplexedTransport> transport_;
  int peer_fd_ = -1;
};

TEST_F(MultiplexedTransportTest, ReorderedResponsesReachTheRightSubmitters) {
  AdoptPair();
  Outcome out1, out2, out3;
  transport_->SubmitRoundTrip(Request(1), out1.Completion());
  transport_->SubmitRoundTrip(Request(2), out2.Completion());
  transport_->SubmitRoundTrip(Request(3), out3.Completion());

  // Drain all three requests, then answer them backwards.
  std::vector<uint64_t> seen;
  for (int i = 0; i < 3; ++i) seen.push_back(SeqOf(PeerReadFrame()));
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2, 3}));
  PeerWrite(Response(3));
  PeerWrite(Response(1));
  PeerWrite(Response(2));

  auto r1 = out1.Await();
  auto r2 = out2.Await();
  auto r3 = out3.Await();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(SeqOf(*r1), 1u);
  EXPECT_EQ(SeqOf(*r2), 2u);
  EXPECT_EQ(SeqOf(*r3), 3u);

  auto stats = transport_->stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.orphan_responses, 0u);
  EXPECT_EQ(stats.resets, 0u);
}

TEST_F(MultiplexedTransportTest, DuplicateAndFabricatedResponsesAreOrphaned) {
  AdoptPair();
  Outcome out1, out2;
  transport_->SubmitRoundTrip(Request(1), out1.Completion());
  transport_->SubmitRoundTrip(Request(2), out2.Completion());
  PeerReadFrame();
  PeerReadFrame();

  // A fabricated seq nobody asked for, a real answer, the same answer
  // replayed, and a stale-epoch replay of the other in-flight seq. Only the
  // two real answers may reach a submitter — and each exactly its own.
  PeerWrite(Response(99));
  PeerWrite(Response(1));
  PeerWrite(Response(1));
  PeerWrite(Response(2, /*epoch=*/7));  // epoch mismatch: not in-flight
  PeerWrite(Response(2));

  auto r1 = out1.Await();
  auto r2 = out2.Await();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(SeqOf(*r1), 1u);
  EXPECT_EQ(SeqOf(*r2), 2u);

  AwaitStats([](const MultiplexedTransportStats& s) {
    return s.orphan_responses == 3;
  });
  auto stats = transport_->stats();
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.resets, 0u);  // orphans are dropped, not poison
}

TEST_F(MultiplexedTransportTest, DuplicateInFlightKeyIsRejected) {
  AdoptPair();
  Outcome first, second;
  transport_->SubmitRoundTrip(Request(5), first.Completion());
  transport_->SubmitRoundTrip(Request(5), second.Completion());

  auto rejected = second.Await();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();

  // The first submission is unharmed.
  PeerReadFrame();
  PeerWrite(Response(5));
  auto r = first.Await();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SeqOf(*r), 5u);
}

TEST_F(MultiplexedTransportTest, PeerDeathFailsEveryInFlightTripTyped) {
  AdoptPair();
  Outcome out1, out2;
  transport_->SubmitRoundTrip(Request(1), out1.Completion());
  transport_->SubmitRoundTrip(Request(2), out2.Completion());
  PeerReadFrame();
  PeerReadFrame();

  close(peer_fd_);
  peer_fd_ = -1;

  auto r1 = out1.Await();
  auto r2 = out2.Await();
  ASSERT_FALSE(r1.ok());
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r1.status().IsUnavailable()) << r1.status().ToString();
  EXPECT_TRUE(r2.status().IsUnavailable()) << r2.status().ToString();
  EXPECT_EQ(transport_->stats().resets, 1u);

  // An adopted socket has no endpoint to reconnect to: the next submit
  // fails typed instead of hanging.
  Outcome after;
  transport_->SubmitRoundTrip(Request(3), after.Completion());
  auto r3 = after.Await();
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsUnavailable()) << r3.status().ToString();
}

TEST_F(MultiplexedTransportTest, UncorrelatableErrorFramePoisonsTheStream) {
  AdoptPair();
  Outcome out1, out2;
  transport_->SubmitRoundTrip(Request(1), out1.Completion());
  transport_->SubmitRoundTrip(Request(2), out2.Completion());
  PeerReadFrame();
  PeerReadFrame();

  // An outer kError carries no envelope: it cannot name the request it
  // answers, so on a pipelined connection it must fail BOTH trips with the
  // transported status — never be merged into either.
  PeerWrite(EncodeFrame(FrameKind::kError, 0,
                        EncodeError(Status::Busy("shard overloaded"))));

  auto r1 = out1.Await();
  auto r2 = out2.Await();
  ASSERT_FALSE(r1.ok());
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r1.status().IsBusy()) << r1.status().ToString();
  EXPECT_TRUE(r2.status().IsBusy()) << r2.status().ToString();
  EXPECT_EQ(transport_->stats().resets, 1u);
}

TEST_F(MultiplexedTransportTest, GarbageBytesPoisonTheStream) {
  AdoptPair();
  Outcome out;
  transport_->SubmitRoundTrip(Request(1), out.Completion());
  PeerReadFrame();

  // Not a frame at all: the stream is no longer frame-aligned.
  std::vector<uint8_t> garbage(64, 0xAB);
  PeerWrite(garbage);

  auto r = out.Await();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(transport_->stats().resets, 1u);
}

TEST_F(MultiplexedTransportTest, TimeoutFailsOneTripButSparesItsSiblings) {
  MultiplexedTransportOptions options;
  options.io_timeout_ms = 100;
  AdoptPair(options);

  Outcome slow, fast;
  transport_->SubmitRoundTrip(Request(1), slow.Completion());
  transport_->SubmitRoundTrip(Request(2), fast.Completion());
  PeerReadFrame();
  PeerReadFrame();
  // Answer only seq 2; seq 1 expires.
  PeerWrite(Response(2));

  auto fast_r = fast.Await();
  ASSERT_TRUE(fast_r.ok());
  EXPECT_EQ(SeqOf(*fast_r), 2u);

  auto slow_r = slow.Await();
  ASSERT_FALSE(slow_r.ok());
  EXPECT_TRUE(slow_r.status().IsUnavailable()) << slow_r.status().ToString();
  EXPECT_EQ(transport_->stats().timeouts, 1u);
  // The connection survived the timeout...
  EXPECT_EQ(transport_->stats().resets, 0u);

  // ...so the late answer arrives as an orphan, and new trips still work.
  PeerWrite(Response(1));
  AwaitStats([](const MultiplexedTransportStats& s) {
    return s.orphan_responses == 1;
  });
  Outcome next;
  transport_->SubmitRoundTrip(Request(3), next.Completion());
  PeerReadFrame();
  PeerWrite(Response(3));
  auto next_r = next.Await();
  ASSERT_TRUE(next_r.ok());
  EXPECT_EQ(SeqOf(*next_r), 3u);
}

TEST_F(MultiplexedTransportTest, NonShardRequestFramesAreRejectedInline) {
  AdoptPair();
  Outcome out;
  transport_->SubmitRoundTrip(EncodeFrame(FrameKind::kQuery, 1, {}),
                              out.Completion());
  auto r = out.Await();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(MultiplexedTransportTest, BlockingRoundTripRefusedOnLoopThread) {
  AdoptPair();
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status = Status::OK();
  loop_->RunInLoop([&] {
    auto r = transport_->RoundTrip(Request(1));
    std::lock_guard<std::mutex> lock(mu);
    status = r.status();
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] { return done; }));
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

TEST_F(MultiplexedTransportTest, ConnectVariantReconnectsAfterPeerRestart) {
  // A real listener whose first connection dies after one frame — the
  // restarted-shard scenario. The mux does not resend (in-flight trips fail
  // typed on the reset); but the NEXT submit must transparently reconnect.
  uint16_t port = 0;
  auto listen_fd = ListenOnLoopback(&port);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();

  std::thread serve([fd = *listen_fd] {
    for (int conn_index = 0;; ++conn_index) {
      int conn = accept(fd, nullptr, nullptr);
      if (conn < 0) return;
      for (;;) {
        auto request = ReadFrameFd(conn, kMaxTransportFrameBytes);
        if (!request.ok()) break;
        auto outer = DecodeFrame(*request);
        if (!outer.ok()) break;
        auto envelope = DecodeShardEnvelope(outer->payload);
        if (!envelope.ok()) break;
        auto response = Response(envelope->seq, envelope->epoch);
        if (!WriteAll(conn, response.data(), response.size()).ok()) break;
        if (conn_index == 0) break;  // first connection dies after one frame
      }
      close(conn);
    }
  });

  {
    auto transport = MultiplexedTransport::Connect("127.0.0.1", port,
                                                   loop_.get());
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();

    auto r1 = (*transport)->RoundTrip(Request(1));
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(SeqOf(*r1), 1u);

    // The server closed that connection; wait for the mux to notice.
    for (int i = 0; i < 2000 && (*transport)->stats().resets == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ((*transport)->stats().resets, 1u);

    // The next submit reconnects (non-blocking, on the loop) and succeeds.
    auto r2 = (*transport)->RoundTrip(Request(2));
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(SeqOf(*r2), 2u);
  }

  shutdown(*listen_fd, SHUT_RDWR);
  close(*listen_fd);
  serve.join();
}

TEST_F(MultiplexedTransportTest, ConnectToDeadPortFailsTyped) {
  // Grab a port, then close it so nothing listens there.
  uint16_t port = 0;
  auto fd = ListenOnLoopback(&port);
  ASSERT_TRUE(fd.ok());
  close(*fd);
  auto transport = MultiplexedTransport::Connect("127.0.0.1", port,
                                                 loop_.get());
  ASSERT_FALSE(transport.ok());
  EXPECT_TRUE(transport.status().IsUnavailable())
      << transport.status().ToString();
}

TEST_F(MultiplexedTransportTest, DestructorFailsInFlightTripsCleanly) {
  AdoptPair();
  Outcome out;
  transport_->SubmitRoundTrip(Request(1), out.Completion());
  PeerReadFrame();
  transport_.reset();  // never answered
  auto r = out.Await();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
}

}  // namespace
}  // namespace embellish::server
