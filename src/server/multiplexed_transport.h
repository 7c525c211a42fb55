// One non-blocking connection per replica, N round trips in flight on it.
//
// The coordinator's TCP transport. A blocking socket transport would pin
// one thread per in-flight round trip: the thread writes the request and
// then parks in recv until the response arrives. MultiplexedTransport
// removes that coupling. It owns a single non-blocking socket registered
// on an EventLoop; SubmitRoundTrip enqueues the request frame from any
// thread and returns immediately, and the loop thread correlates response
// frames back to their submitters by the (epoch, seq) pair every
// kShardRequest envelope already carries — the same echo the coordinator
// validates end-to-end. Overlapped coordinator fan-out therefore pins zero
// workers on transport I/O; they submit, then one of them awaits all
// completions.
//
// Correlation is strict: a response whose (epoch, seq) matches no in-flight
// request — a duplicate, a stale replay from before a reconnect, or a
// hostile fabrication — is counted and dropped, never delivered to the
// wrong submitter. A response stream that stops making sense as frames
// (corrupt header, outer kError that cannot name a request) poisons the
// connection: every in-flight trip fails with a typed status and the next
// submit reconnects. The coordinator's hedging, failover, breakers and
// kBusy shedding sit on top — they only ever see per-trip typed outcomes.
//
// Threading: SubmitRoundTrip and RoundTrip are thread-safe. All connection
// and correlation state is confined to the loop thread (submissions hop
// there via RunInLoop), so none of it is locked. Completions run on the
// loop thread and must not block — the coordinator's awaiting side only
// takes a mutex + condition variable signal.

#ifndef EMBELLISH_SERVER_MULTIPLEXED_TRANSPORT_H_
#define EMBELLISH_SERVER_MULTIPLEXED_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "server/event_loop.h"
#include "server/io_util.h"
#include "server/shard_transport.h"

namespace embellish::server {

struct MultiplexedTransportOptions {
  int connect_timeout_ms = 5000;
  /// Per-round-trip deadline, submit to completion, on CLOCK_MONOTONIC.
  int io_timeout_ms = 5000;
};

/// \brief Counters for the correlation machinery (all cumulative).
struct MultiplexedTransportStats {
  size_t requests = 0;          ///< round trips submitted
  size_t responses = 0;         ///< responses correlated and delivered
  size_t orphan_responses = 0;  ///< responses matching no in-flight seq
  size_t timeouts = 0;          ///< trips that expired before a response
  size_t resets = 0;            ///< connection teardowns (error / poison)
};

/// \brief ShardTransport over one multiplexed non-blocking connection.
class MultiplexedTransport : public ShardTransport {
 public:
  /// \brief Connects eagerly (blocking, with deadline — call from setup, not
  ///        the loop thread) and registers the socket on `loop`, which must
  ///        be started and must outlive the transport. Destroy the transport
  ///        before stopping the loop.
  static Result<std::unique_ptr<MultiplexedTransport>> Connect(
      const std::string& host, uint16_t port, EventLoop* loop,
      const MultiplexedTransportOptions& options = {});

  /// \brief Adopts an already-connected socket (e.g. one end of a
  ///        socketpair) — the correlation-test hook where the test plays the
  ///        byzantine peer. The transport owns `fd`. No reconnect endpoint:
  ///        after a reset, submits fail until the transport is replaced.
  static Result<std::unique_ptr<MultiplexedTransport>> Adopt(
      int fd, EventLoop* loop, const MultiplexedTransportOptions& options = {});

  ~MultiplexedTransport() override;
  MultiplexedTransport(const MultiplexedTransport&) = delete;
  MultiplexedTransport& operator=(const MultiplexedTransport&) = delete;

  /// \brief Blocking convenience over SubmitRoundTrip (handshakes, tests).
  ///        FailedPrecondition when called on the loop thread — that would
  ///        deadlock the completion it is waiting for.
  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override;

  bool SupportsAsyncSubmit() const override { return true; }

  /// \brief Submits one round trip; `done` runs exactly once, on the loop
  ///        thread (or inline on parse failure). The request must be a
  ///        kShardRequest frame — its envelope (epoch, seq) is the
  ///        correlation key, so a duplicate in-flight key is rejected.
  void SubmitRoundTrip(const std::vector<uint8_t>& request,
                       RoundTripCompletion done) override;

  MultiplexedTransportStats stats() const;

 private:
  enum class ConnState { kDisconnected, kConnecting, kConnected };

  using Key = std::pair<uint64_t, uint64_t>;  // (epoch, seq)

  struct Pending {
    RoundTripCompletion done;
    uint64_t timer_id = 0;
  };

  MultiplexedTransport(EventLoop* loop, std::string host, uint16_t port,
                       bool can_reconnect,
                       const MultiplexedTransportOptions& options);

  Status Register(int fd, ConnState state);

  // All of the below run on the loop thread only.
  void SubmitInLoop(Key key, std::vector<uint8_t> request,
                    RoundTripCompletion done);
  Status StartConnectInLoop();
  void FinishConnect();
  void OnIoEvent(uint32_t events);
  void OnReadable();
  void OnWritable();
  void HandleResponseFrame(std::vector<uint8_t> frame);
  void OnTimeout(Key key);
  void UpdateInterest();
  // Fails every in-flight trip with `cause`, closes the socket, and leaves
  // the transport kDisconnected (the next submit reconnects when possible).
  void ResetConnection(const Status& cause);
  void TeardownInLoop();

  EventLoop* const loop_;  // not owned
  const std::string host_;
  const uint16_t port_;
  const bool can_reconnect_;
  const MultiplexedTransportOptions options_;

  // Loop-confined connection + correlation state (no locks by design).
  int fd_ = -1;
  ConnState state_ = ConnState::kDisconnected;
  uint32_t interest_ = 0;  // current epoll interest mask for fd_
  uint64_t connect_timer_id_ = 0;
  FrameReader reader_{kMaxTransportFrameBytes};
  FrameWriter writer_;
  std::map<Key, Pending> pending_;

  std::atomic<size_t> requests_{0};
  std::atomic<size_t> responses_{0};
  std::atomic<size_t> orphan_responses_{0};
  std::atomic<size_t> timeouts_{0};
  std::atomic<size_t> resets_{0};
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_MULTIPLEXED_TRANSPORT_H_
