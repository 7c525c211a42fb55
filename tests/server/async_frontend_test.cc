// AsyncFrontEnd behavior tests: response bytes identical to the blocking
// HandleFrame surface, per-connection response ordering under concurrent
// dispatch, slow-client isolation (a trickler parked mid-frame must not
// delay anyone else), mid-frame disconnect accounting, shedding with typed
// kBusy, the zero-dispatcher synchronous fallback, and Nagle's algorithm
// off on accepted sockets.

#include "server/async_frontend.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "index/builder.h"
#include "server/embellish_server.h"
#include "server/framing.h"
#include "server/io_util.h"
#include "server/session_client.h"
#include "server/shard_transport.h"
#include "testutil.h"

namespace embellish::server {
namespace {

// A blocking framed client for the test side of the socket.
class BlockingClient {
 public:
  explicit BlockingClient(uint16_t port) {
    auto fd = ConnectWithDeadline("127.0.0.1", port, 5000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    fd_ = fd.ok() ? *fd : -1;
    if (fd_ >= 0) EXPECT_TRUE(SetBlocking(fd_).ok());
  }
  ~BlockingClient() { Close(); }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

  void Send(const std::vector<uint8_t>& frame) {
    ASSERT_TRUE(WriteAll(fd_, frame.data(), frame.size(),
                         DeadlineFromNow(5000))
                    .ok());
  }

  std::vector<uint8_t> Recv() {
    auto frame =
        ReadFrameFd(fd_, kMaxTransportFrameBytes, DeadlineFromNow(10000));
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? *std::move(frame) : std::vector<uint8_t>{};
  }

  std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& frame) {
    Send(frame);
    return Recv();
  }

 private:
  int fd_ = -1;
};

class AsyncFrontEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loop = EventLoop::Create();
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    loop_ = std::move(*loop);
    ASSERT_TRUE(loop_->Start().ok());
  }

  void TearDown() override {
    front_end_.reset();
    loop_->Stop();
  }

  // Serves `handler` on a fresh loopback listener; returns the port.
  uint16_t Serve(AsyncFrontEnd::BatchHandler handler,
                 const AsyncFrontEndOptions& options = {}) {
    uint16_t port = 0;
    auto listen_fd = ListenOnLoopback(&port);
    EXPECT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    auto front_end = AsyncFrontEnd::Create(*listen_fd, loop_.get(),
                                           std::move(handler), options);
    EXPECT_TRUE(front_end.ok()) << front_end.status().ToString();
    front_end_ = std::move(*front_end);
    return port;
  }

  void AwaitStats(std::function<bool(const AsyncFrontEndStats&)> pred) {
    for (int i = 0; i < 5000; ++i) {
      if (pred(front_end_->stats())) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "stats predicate never satisfied";
  }

  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<AsyncFrontEnd> front_end_;
};

// Echoes each request back, tagged, after decoding — a deterministic
// handler whose responses identify their requests.
std::vector<std::vector<uint8_t>> EchoHandler(
    const std::vector<std::vector<uint8_t>>& requests) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(requests.size());
  for (const auto& request : requests) {
    auto frame = DecodeFrame(request);
    if (!frame.ok()) {
      out.push_back(EncodeFrame(FrameKind::kError, 0,
                                EncodeError(frame.status())));
      continue;
    }
    out.push_back(
        EncodeFrame(FrameKind::kResult, frame->session_id, frame->payload));
  }
  return out;
}

std::vector<uint8_t> TaggedRequest(uint64_t tag) {
  return EncodeFrame(FrameKind::kQuery, tag,
                     std::vector<uint8_t>{static_cast<uint8_t>(tag), 7, 9});
}

TEST_F(AsyncFrontEndTest, EchoRoundTripsAndStats) {
  uint16_t port = Serve(EchoHandler);
  BlockingClient client(port);
  for (uint64_t tag = 1; tag <= 5; ++tag) {
    auto response = client.RoundTrip(TaggedRequest(tag));
    auto frame = DecodeFrame(response);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->kind, FrameKind::kResult);
    EXPECT_EQ(frame->session_id, tag);
  }
  client.Close();
  AwaitStats([](const AsyncFrontEndStats& s) {
    return s.connections_closed == 1 && s.open_connections == 0;
  });
  auto stats = front_end_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_in, 5u);
  EXPECT_EQ(stats.responses_out, 5u);
  EXPECT_EQ(stats.mid_frame_disconnects, 0u);
}

TEST_F(AsyncFrontEndTest, PipelinedResponsesKeepRequestOrder) {
  // Many dispatcher threads, one-frame batches: handler calls complete out
  // of order on purpose (odd tags sleep), but one connection's responses
  // must still come back in request order.
  AsyncFrontEndOptions options;
  options.dispatch_threads = 4;
  options.max_batch = 1;
  uint16_t port = Serve(
      [](const std::vector<std::vector<uint8_t>>& requests) {
        auto frame = DecodeFrame(requests[0]);
        if (frame.ok() && frame->session_id % 2 == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        return EchoHandler(requests);
      },
      options);

  BlockingClient client(port);
  constexpr uint64_t kFrames = 16;
  for (uint64_t tag = 0; tag < kFrames; ++tag) {
    client.Send(TaggedRequest(tag));
  }
  for (uint64_t tag = 0; tag < kFrames; ++tag) {
    auto frame = DecodeFrame(client.Recv());
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->session_id, tag) << "responses reordered";
  }
}

TEST_F(AsyncFrontEndTest, TricklerParkedMidFrameDelaysNobody) {
  uint16_t port = Serve(EchoHandler);

  // The trickler sends half a frame and then goes quiet, holding its
  // connection mid-frame. In the thread-per-connection world this parked a
  // server thread; here it must cost nothing but buffered bytes.
  BlockingClient trickler(port);
  auto slow_frame = TaggedRequest(77);
  const size_t half = slow_frame.size() / 2;
  ASSERT_TRUE(WriteAll(trickler.fd(), slow_frame.data(), half).ok());

  // Fast client round trips complete under their deadline while the
  // trickler is parked (Recv enforces a hard deadline: a stall fails).
  BlockingClient fast(port);
  for (uint64_t tag = 0; tag < 32; ++tag) {
    auto frame = DecodeFrame(fast.RoundTrip(TaggedRequest(tag)));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->session_id, tag);
  }

  // The trickler is not broken, just slow: the rest of its frame still
  // gets its answer.
  ASSERT_TRUE(WriteAll(trickler.fd(), slow_frame.data() + half,
                       slow_frame.size() - half)
                  .ok());
  auto frame = DecodeFrame(trickler.Recv());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->session_id, 77u);
}

TEST_F(AsyncFrontEndTest, MidFrameDisconnectFreesTheConnection) {
  uint16_t port = Serve(EchoHandler);
  {
    BlockingClient client(port);
    auto request = TaggedRequest(1);
    ASSERT_TRUE(
        WriteAll(client.fd(), request.data(), request.size() / 2).ok());
    AwaitStats([](const AsyncFrontEndStats& s) {
      return s.connections_accepted == 1;
    });
  }  // disconnect with half a frame buffered
  AwaitStats([](const AsyncFrontEndStats& s) {
    return s.mid_frame_disconnects == 1 && s.open_connections == 0 &&
           s.connections_closed == 1;
  });
  EXPECT_EQ(front_end_->stats().frames_in, 0u);
}

TEST_F(AsyncFrontEndTest, QueueOverflowShedsWithTypedBusy) {
  // One dispatcher parked in the handler + a one-slot queue: the third
  // frame in flight must be shed with kBusy — and because responses are
  // re-sequenced per connection, the shed answer still arrives in order.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool in_handler = false;
  bool release = false;
  AsyncFrontEndOptions options;
  options.dispatch_threads = 1;
  options.max_batch = 1;
  options.max_pending = 1;
  uint16_t port = Serve(
      [&](const std::vector<std::vector<uint8_t>>& requests) {
        {
          std::unique_lock<std::mutex> lock(gate_mu);
          in_handler = true;
          gate_cv.notify_all();
          gate_cv.wait(lock, [&] { return release; });
        }
        return EchoHandler(requests);
      },
      options);

  BlockingClient client(port);
  client.Send(TaggedRequest(0));
  {
    // The dispatcher now holds frame 0; the queue is empty again.
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return in_handler; }));
  }
  client.Send(TaggedRequest(1));  // fills the one queue slot
  AwaitStats([](const AsyncFrontEndStats& s) { return s.frames_in == 2; });
  client.Send(TaggedRequest(2));  // queue full: shed
  AwaitStats([](const AsyncFrontEndStats& s) { return s.shed == 1; });

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    release = true;
  }
  gate_cv.notify_all();

  auto first = DecodeFrame(client.Recv());
  auto second = DecodeFrame(client.Recv());
  auto third = DecodeFrame(client.Recv());
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(first->session_id, 0u);
  EXPECT_EQ(second->session_id, 1u);
  ASSERT_EQ(third->kind, FrameKind::kError);
  Status transported = Status::OK();
  ASSERT_TRUE(DecodeError(third->payload, &transported).ok());
  EXPECT_TRUE(transported.IsBusy()) << transported.ToString();
}

TEST_F(AsyncFrontEndTest, ZeroDispatcherFallbackServesOnTheLoopThread) {
  AsyncFrontEndOptions options;
  options.dispatch_threads = 0;
  uint16_t port = Serve(EchoHandler, options);
  BlockingClient client(port);
  for (uint64_t tag = 0; tag < 8; ++tag) {
    auto frame = DecodeFrame(client.RoundTrip(TaggedRequest(tag)));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->session_id, tag);
  }
  EXPECT_EQ(front_end_->stats().shed, 0u);
}

TEST_F(AsyncFrontEndTest, AcceptedSocketsDisableNagle) {
  // Responses are small frames: with Nagle on, one queued behind an
  // unacknowledged predecessor waits out the client's delayed ACK.
  uint16_t port = Serve(EchoHandler);
  BlockingClient client(port);
  ASSERT_FALSE(client.RoundTrip(TaggedRequest(1)).empty());  // accepted

  sockaddr_in client_local{};
  sockaddr_in client_peer{};
  socklen_t len = sizeof(client_local);
  ASSERT_EQ(getsockname(client.fd(),
                        reinterpret_cast<sockaddr*>(&client_local), &len),
            0);
  len = sizeof(client_peer);
  ASSERT_EQ(getpeername(client.fd(),
                        reinterpret_cast<sockaddr*>(&client_peer), &len),
            0);
  auto same = [](const sockaddr_in& a, const sockaddr_in& b) {
    return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
  };

  // The front end shares this process: its end of the connection is the
  // socket whose local address is the client's peer and vice versa.
  int accepted = -1;
  for (int fd = 0; fd < 1024 && accepted < 0; ++fd) {
    if (fd == client.fd()) continue;
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t local_len = sizeof(local);
    socklen_t peer_len = sizeof(peer);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&local), &local_len) !=
            0 ||
        getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0 ||
        local.sin_family != AF_INET) {
      continue;
    }
    if (same(local, client_peer) && same(peer, client_local)) accepted = fd;
  }
  ASSERT_GE(accepted, 0) << "the front end's accepted socket was not found";
  int nodelay = 0;
  socklen_t nodelay_len = sizeof(nodelay);
  ASSERT_EQ(getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                       &nodelay_len),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST_F(AsyncFrontEndTest, ConnectionCapRefusesTheExcess) {
  AsyncFrontEndOptions options;
  options.max_connections = 1;
  uint16_t port = Serve(EchoHandler, options);
  BlockingClient first(port);
  // Prove the first connection is live before the second arrives.
  auto frame = DecodeFrame(first.RoundTrip(TaggedRequest(1)));
  ASSERT_TRUE(frame.ok());

  BlockingClient second(port);
  AwaitStats([](const AsyncFrontEndStats& s) {
    return s.connections_refused == 1;
  });
  // The refused socket is closed by the server: a read sees EOF/reset, not
  // a hang.
  auto refused =
      ReadFrameFd(second.fd(), kMaxTransportFrameBytes, DeadlineFromNow(5000));
  EXPECT_FALSE(refused.ok());
}

TEST_F(AsyncFrontEndTest, LargeResponseDrainsThroughBackpressure) {
  // A response far above the outbox high-water mark, to a client that
  // delays reading: the write path must park on EPOLLOUT (pausing reads),
  // then drain the full payload intact.
  AsyncFrontEndOptions options;
  options.outbox_high_water = 64 << 10;
  std::vector<uint8_t> big(8u << 20);
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
  }
  auto response = EncodeFrame(FrameKind::kResult, 42, big);
  uint16_t port = Serve(
      [response](const std::vector<std::vector<uint8_t>>& requests) {
        return std::vector<std::vector<uint8_t>>(requests.size(), response);
      },
      options);

  BlockingClient client(port);
  client.Send(TaggedRequest(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto received = client.Recv();
  EXPECT_EQ(received, response);
}

TEST_F(AsyncFrontEndTest, EmbellishServerServeAsyncBytesMatchHandleFrame) {
  // The full stack, minus the network: the async front end over a real
  // EmbellishServer must hand back exactly HandleFrame's bytes for the
  // hello + PR query flow.
  auto lex = testutil::SmallSyntheticLexicon(600, 311);
  auto corp = testutil::SmallCorpus(lex, 60, 312);
  auto built = std::move(index::BuildIndex(corp, {})).value();
  auto org = testutil::MakeBuckets(lex, 4, 64);
  EmbellishServer server(&built.index, &org, nullptr);
  EmbellishServer reference(&built.index, &org, nullptr);

  uint16_t port = 0;
  auto listen_fd = ListenOnLoopback(&port);
  ASSERT_TRUE(listen_fd.ok());
  auto front_end = server.ServeAsync(*listen_fd, loop_.get());
  ASSERT_TRUE(front_end.ok()) << front_end.status().ToString();
  front_end_ = std::move(*front_end);

  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  SessionClient client =
      std::move(SessionClient::Create(3, &org, ko, 313)).value();
  auto terms = built.index.IndexedTerms();
  auto request = client.QueryFrame({terms[2], terms[17]});
  ASSERT_TRUE(request.ok());

  BlockingClient wire(port);
  EXPECT_EQ(wire.RoundTrip(client.HelloFrame()),
            reference.HandleFrame(client.HelloFrame()));
  EXPECT_EQ(wire.RoundTrip(*request), reference.HandleFrame(*request));
}

}  // namespace
}  // namespace embellish::server
