// The async client-facing front end: an accept/read/dispatch/write pipeline
// on one EventLoop, where no thread ever blocks on a socket.
//
// The blocking serving loops (ServeShardConnections, the test harnesses)
// dedicate a thread per connection and park it in recv between frames — a
// slow or trickling client pins that thread for its connection's lifetime.
// The AsyncFrontEnd replaces that shape:
//
//   accept    the listener is level-triggered on the loop; accepts drain
//             until EAGAIN, each connection getting loop-confined state
//             (FrameReader, FrameWriter, ordering tickets) keyed by a
//             monotonically increasing connection id — NOT the fd, which
//             the kernel recycles;
//   read      readable sockets Pump into their FrameReader under a per-call
//             byte budget, so a firehosing client yields the loop back; a
//             byte-at-a-time trickler costs exactly its bytes, never a
//             parked thread (slow-client isolation);
//   dispatch  complete frames are ticketed and queued to a small pool of
//             dispatcher threads that call the batch handler (the
//             EmbellishServer / ShardCoordinator HandleBatch surface, whose
//             response bytes are untouched by any of this). The handler
//             never runs on the loop thread, so it may await completions
//             the loop delivers (a coordinator's multiplexed fan-out). The
//             queue is bounded: overflow is shed immediately with a typed
//             kBusy error frame, not queued without bound;
//   write     responses post back to the loop, are re-sequenced per
//             connection by ticket (concurrent batches must not reorder one
//             connection's responses), and drain through the FrameWriter as
//             the socket accepts them. A connection whose outbox exceeds
//             outbox_high_water stops being read until it drains below half
//             — per-connection backpressure instead of unbounded buffering.
//
// A disconnect mid-frame is counted and frees the connection's state
// immediately: no fd, session buffer, or ticket map outlives its
// connection.
//
// This is the one component that refuses work for load: the servers behind
// it answer every frame they are given. The decision to shed reads the
// queue length alone, before the frame is decoded, and every shed frame
// gets the same bytes (session id 0), so a shed tells a client nothing
// about any request's content.

#ifndef EMBELLISH_SERVER_ASYNC_FRONTEND_H_
#define EMBELLISH_SERVER_ASYNC_FRONTEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "server/event_loop.h"
#include "server/io_util.h"

namespace embellish::server {

struct AsyncFrontEndOptions {
  /// Dispatcher threads running the batch handler; at least 1 (Create
  /// refuses 0).
  size_t dispatch_threads = 1;

  /// Most frames one handler call receives (across connections).
  size_t max_batch = 8;

  /// Bound on frames queued for dispatch; overflow is shed with kBusy.
  size_t max_pending = 4096;

  /// Largest frame a client may declare.
  size_t max_frame_bytes = (64u << 20) + 24;

  /// A connection's outbox size that pauses reading it (resumes at half).
  size_t outbox_high_water = 4u << 20;

  /// Open-connection cap; 0 is unlimited. Excess accepts close immediately.
  size_t max_connections = 0;
};

struct AsyncFrontEndStats {
  size_t connections_accepted = 0;
  size_t connections_closed = 0;
  size_t connections_refused = 0;  ///< over max_connections
  size_t frames_in = 0;            ///< complete request frames read
  size_t responses_out = 0;        ///< response frames fully handed to send
  size_t shed = 0;                 ///< frames refused with kBusy (queue full)
  size_t mid_frame_disconnects = 0;
  size_t open_connections = 0;     ///< gauge, not cumulative
};

/// \brief Event-loop front end for any HandleBatch-shaped server.
class AsyncFrontEnd {
 public:
  /// \brief `responses[i]` must answer `requests[i]`; called from dispatcher
  ///        threads, never the loop thread.
  using BatchHandler = std::function<std::vector<std::vector<uint8_t>>(
      const std::vector<std::vector<uint8_t>>&)>;

  /// \brief Takes ownership of `listen_fd` (made non-blocking) and serves it
  ///        on `loop`, which must be started, outlive the front end, and not
  ///        be stopped before Shutdown(). InvalidArgument, with `listen_fd`
  ///        closed, when options.dispatch_threads is 0.
  static Result<std::unique_ptr<AsyncFrontEnd>> Create(
      int listen_fd, EventLoop* loop, BatchHandler handler,
      const AsyncFrontEndOptions& options = {});

  /// \brief Shutdown() then join.
  ~AsyncFrontEnd();
  AsyncFrontEnd(const AsyncFrontEnd&) = delete;
  AsyncFrontEnd& operator=(const AsyncFrontEnd&) = delete;

  /// \brief Stops accepting, closes every connection, drains and joins the
  ///        dispatcher threads. Idempotent; callable from any thread except
  ///        the loop thread.
  void Shutdown();

  AsyncFrontEndStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    FrameReader reader;
    FrameWriter writer;
    bool reading_paused = false;
    uint64_t next_ticket = 0;   // assigned to frames in arrival order
    uint64_t next_to_send = 0;  // re-sequencing cursor for responses
    std::map<uint64_t, std::vector<uint8_t>> ready;  // out-of-order responses
    explicit Conn(size_t max_frame_bytes) : reader(max_frame_bytes) {}
  };

  struct Work {
    uint64_t conn_id = 0;
    uint64_t ticket = 0;
    std::vector<uint8_t> frame;
  };

  AsyncFrontEnd(int listen_fd, EventLoop* loop, BatchHandler handler,
                const AsyncFrontEndOptions& options);

  Status Start();
  void DispatcherMain();

  // All of the below run on the loop thread.
  void OnAcceptable();
  void OnConnEvent(uint64_t conn_id, uint32_t events);
  void DispatchFrame(uint64_t conn_id, std::vector<uint8_t> frame);
  void Deliver(uint64_t conn_id, uint64_t ticket, std::vector<uint8_t> response);
  void FlushConn(uint64_t conn_id, Conn& conn);
  void UpdateReadInterest(Conn& conn);
  void CloseConn(uint64_t conn_id);
  void TeardownInLoop();

  EventLoop* const loop_;  // not owned
  const BatchHandler handler_;
  const AsyncFrontEndOptions options_;

  // Loop-confined.
  int listen_fd_ = -1;
  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, Conn> conns_;

  // Dispatch queue (shared with dispatcher threads).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;
  bool stopping_ = false;
  std::vector<std::thread> dispatchers_;
  std::atomic<bool> shutdown_done_{false};

  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> connections_closed_{0};
  std::atomic<size_t> connections_refused_{0};
  std::atomic<size_t> frames_in_{0};
  std::atomic<size_t> responses_out_{0};
  std::atomic<size_t> shed_{0};
  std::atomic<size_t> mid_frame_disconnects_{0};
  std::atomic<size_t> open_connections_{0};
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_ASYNC_FRONTEND_H_
