// Transports carrying framed requests between a ShardCoordinator and its
// shard servers, plus the shard-side endpoint that unwraps them.
//
// A ShardTransport is a request/response channel for server/framing.h
// frames: the coordinator writes one kShardRequest frame and reads exactly
// one response frame. Two implementations live here; the TCP transport is
// MultiplexedTransport (server/multiplexed_transport.h):
//
//   InProcessTransport  wraps a ShardEndpoint directly — zero copies beyond
//                       the frames themselves; used by tests, benches and
//                       single-box deployments, and the configuration whose
//                       responses the bit-identity suite pins against the
//                       in-process sharded server. It has no native async
//                       submit: each round trip completes inline on the
//                       submitting thread.
//   FaultyTransport     a decorator injecting deterministic transport
//                       faults (drop / truncate / bit-flip / reorder /
//                       delay) for the coordinator fault-injection suite.
//
// The ShardEndpoint is the server side of the shard protocol: it validates
// the kShardRequest envelope (shard id, fencing epoch), hands the inner
// frame to its EmbellishServer — typically one serving a single slice (see
// EmbellishServerOptions::shard_slice) — and wraps the response in a
// kShardResponse envelope echoing shard id / epoch / seq so the coordinator
// can detect misrouted, stale or reordered responses. An empty inner frame
// is a ping answered with the shard's topology (kHelloOk).

#ifndef EMBELLISH_SERVER_SHARD_TRANSPORT_H_
#define EMBELLISH_SERVER_SHARD_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "server/embellish_server.h"
#include "server/framing.h"

namespace embellish::server {

/// \brief Largest frame a transport will read off a socket. A hostile or
///        corrupt length field must bound the allocation it can force.
inline constexpr size_t kMaxTransportFrameBytes = (64u << 20) + kFrameHeaderBytes;

/// \brief A request/response channel for framed bytes. Every
///        implementation must be thread-safe: the coordinator issues
///        concurrent RoundTrip/SubmitRoundTrip calls on one transport
///        without serializing them.
class ShardTransport {
 public:
  /// \brief Delivers one round trip's outcome. May run on any thread (for a
  ///        MultiplexedTransport: the event-loop thread) and must not block.
  using RoundTripCompletion =
      std::function<void(Result<std::vector<uint8_t>>)>;

  virtual ~ShardTransport() = default;

  /// \brief Sends one frame and blocks for the response frame. Any
  ///        transport-level failure (peer dead, timeout, short read) is a
  ///        non-OK status — implementations must not hang forever and must
  ///        not crash, whatever the peer does.
  virtual Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) = 0;

  /// \brief True when SubmitRoundTrip is genuinely non-blocking: in-flight
  ///        requests interleave on the channel and complete on another
  ///        thread, so no submitting thread parks on transport I/O. The
  ///        coordinator submits either way; this only selects which of
  ///        CoordinatorStats' async_io_trips / blocking_io_trips counts the
  ///        attempt.
  virtual bool SupportsAsyncSubmit() const { return false; }

  /// \brief Starts one round trip and delivers the outcome to `done`
  ///        exactly once. May be called from another transport's
  ///        completion (the coordinator resubmits failovers there). The
  ///        base implementation completes inline through the blocking
  ///        RoundTrip on the calling thread.
  virtual void SubmitRoundTrip(const std::vector<uint8_t>& request,
                               RoundTripCompletion done) {
    done(RoundTrip(request));
  }
};

/// \brief Server side of the shard protocol: envelope validation + fencing
///        around an EmbellishServer. Thread-safe.
class ShardEndpoint {
 public:
  /// \brief `server` must outlive the endpoint and is typically a slice
  ///        server (shard_slice == shard_id) over the shared index.
  ShardEndpoint(EmbellishServer* server, size_t shard_id);

  /// \brief Handles one kShardRequest frame; always returns a response
  ///        frame (kShardResponse on success, kError otherwise).
  std::vector<uint8_t> HandleFrame(const std::vector<uint8_t>& request);

  size_t shard_id() const { return shard_id_; }

 private:
  EmbellishServer* server_;  // not owned
  const size_t shard_id_;

  // Highest coordinator epoch seen; envelopes from lower epochs are fenced
  // out so a superseded coordinator cannot keep driving the shard.
  std::mutex epoch_mu_;
  uint64_t last_epoch_ = 0;
};

/// \brief In-process transport: the "wire" is a function call.
class InProcessTransport : public ShardTransport {
 public:
  /// \brief `endpoint` must outlive the transport.
  explicit InProcessTransport(ShardEndpoint* endpoint) : endpoint_(endpoint) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override {
    return endpoint_->HandleFrame(request);
  }

 private:
  ShardEndpoint* endpoint_;  // not owned
};

// --- Loopback serving -------------------------------------------------------

/// \brief Binds a listening socket on 127.0.0.1 (port 0 = kernel-assigned;
///        `*port` returns the bound port). Returns the listen fd.
Result<int> ListenOnLoopback(uint16_t* port);

/// \brief Accept loop serving `endpoint` on `listen_fd`: one connection at
///        a time (a coordinator holds one connection per shard), one
///        request frame -> one response frame until the peer disconnects.
///        Returns when accept fails (e.g. the fd was closed or shut down) —
///        the shutdown path for tests and shard processes.
Status ServeShardConnections(int listen_fd, ShardEndpoint* endpoint);

// --- Fault injection --------------------------------------------------------

/// \brief What a FaultyTransport does to one round trip.
enum class TransportFault : uint8_t {
  kNone,      ///< deliver faithfully
  kDrop,      ///< deliver the request, lose the response (reads as timeout)
  kTruncate,  ///< chop the response at a seeded offset
  kBitFlip,   ///< flip one seeded bit of the response
  kReorder,   ///< deliver the previous round trip's response instead
  kDelay,     ///< deliver intact after a bounded sleep (not an error)
};

/// \brief Per-kind injection counters, so fault tests can assert each fault
///        class actually fired instead of trusting the seed.
struct FaultyTransportStats {
  size_t calls = 0;        ///< round trips attempted through the decorator
  size_t drops = 0;
  size_t truncations = 0;
  size_t bit_flips = 0;
  size_t reorders = 0;
  size_t delays = 0;

  /// \brief All injected faults (kNone excluded; delays count — they are
  ///        injected even though they are not errors).
  size_t total() const {
    return drops + truncations + bit_flips + reorders + delays;
  }
};

/// \brief Deterministic fault schedule.
struct FaultyTransportOptions {
  /// Explicit per-call schedule, consumed one entry per RoundTrip; calls
  /// past the end behave as kNone (or cycle when `cycle` is set). When the
  /// schedule is empty, each call draws a fault with probability
  /// `fault_rate` from the seeded generator — the fuzz mode.
  std::vector<TransportFault> schedule;
  bool cycle = false;
  uint64_t seed = 1;       ///< seeds fault choice, truncation points, bits
  double fault_rate = 0.0;
  uint32_t delay_ms = 2;
};

/// \brief Decorator wrapping any transport with seeded, reproducible
///        transport faults. Thread-safe. RoundTrip holds a single mutex
///        across the inner round trip (direct blocking callers serialize);
///        SubmitRoundTrip — the coordinator's path — holds it only around
///        the fault draw and the response mutation, so concurrent in-flight
///        submits stay concurrent — the decorator composes with the
///        multiplexer instead of flattening it.
class FaultyTransport : public ShardTransport {
 public:
  /// \brief `inner` must outlive the decorator.
  FaultyTransport(ShardTransport* inner, FaultyTransportOptions options);

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request) override;

  /// \brief Async submission is exposed iff the inner transport exposes it;
  ///        the same fault schedule applies to submitted trips. A kDelay
  ///        completion is deferred off-thread, so it stalls neither the
  ///        inner transport's event loop nor, over an inline inner
  ///        transport, the submitting thread: the replica is slow, and the
  ///        coordinator can hedge past it.
  bool SupportsAsyncSubmit() const override {
    return inner_->SupportsAsyncSubmit();
  }
  void SubmitRoundTrip(const std::vector<uint8_t>& request,
                       RoundTripCompletion done) override;

  /// \brief Faults actually injected so far (kNone entries excluded).
  size_t faults_injected() const;

  /// \brief Per-fault-kind injection counters.
  FaultyTransportStats stats() const;

 private:
  TransportFault NextFaultLocked();

  // Applies `fault`'s response-side damage (truncate / bit-flip / reorder
  // swap / drop) to one inner outcome; kNone and kDelay pass through.
  // Caller holds mu_ (for the rng and the reorder hold slot).
  Result<std::vector<uint8_t>> MutateResponseLocked(
      TransportFault fault, Result<std::vector<uint8_t>> response);

  ShardTransport* inner_;  // not owned
  const FaultyTransportOptions options_;
  mutable std::mutex mu_;
  Rng rng_;
  FaultyTransportStats stats_;  // guarded by mu_
  std::vector<uint8_t> held_;  // kReorder: response awaiting late delivery
  bool has_held_ = false;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_SHARD_TRANSPORT_H_
