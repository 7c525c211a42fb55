// Shared socket I/O primitives for the framed wire protocol.
//
// Two families live here:
//
//   Blocking-with-deadline helpers — ReadExactly / WriteAll / ReadFrameFd —
//   the one copy of the bounded read-exactly / write-all loops that
//   ServeShardConnections, blocking client tools and the test harnesses
//   share. All waits are poll()-based against an absolute
//   CLOCK_MONOTONIC deadline, so (a) a trickling peer cannot extend a round
//   trip indefinitely the way per-syscall SO_RCVTIMEO timeouts allowed (each
//   progressing byte reset the timer), and (b) a wall-clock step can never
//   spuriously expire — or indefinitely extend — an in-flight operation.
//
//   Incremental frame state machines — FrameReader / FrameWriter — the
//   resumable encode/decode halves the event loop runs over non-blocking
//   fds. They own their buffers, parse exactly the header layout framing.h
//   defines (payload size at offset 16, bounded before any allocation), and
//   hand out complete raw frames for DecodeFrame to validate — the wire
//   bytes and the checksum/validation logic are untouched; only the
//   blocking-ness of their assembly changed.

#ifndef EMBELLISH_SERVER_IO_UTIL_H_
#define EMBELLISH_SERVER_IO_UTIL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"

namespace embellish::server {

/// \brief Sentinel for "no deadline" in the blocking helpers.
inline constexpr int64_t kNoDeadline = -1;

/// \brief Milliseconds on CLOCK_MONOTONIC — the only clock I/O deadlines
///        are allowed to reference (wall clocks step; monotonic does not).
int64_t MonotonicMillis();

/// \brief Absolute monotonic deadline `timeout_ms` from now (kNoDeadline
///        when `timeout_ms` < 0).
int64_t DeadlineFromNow(int timeout_ms);

/// \brief Puts `fd` into O_NONBLOCK mode.
Status SetNonBlocking(int fd);

/// \brief Clears O_NONBLOCK on `fd`.
Status SetBlocking(int fd);

/// \brief Connects a TCP socket to `host:port` (numeric IPv4) under a
///        monotonic connect deadline: non-blocking connect + poll, then
///        SO_ERROR — never a wall-clock-sensitive blocking connect. The
///        returned fd is in O_NONBLOCK mode with TCP_NODELAY set; blocking
///        callers follow up with SetBlocking.
Result<int> ConnectWithDeadline(const std::string& host, uint16_t port,
                                int timeout_ms);

/// \brief A non-blocking connect in flight (or already done, for loopback).
struct ConnectStart {
  int fd = -1;
  bool connected = false;  ///< false: await POLLOUT/EPOLLOUT, check SO_ERROR
};

/// \brief Begins a non-blocking TCP connect to `host:port` (numeric IPv4)
///        and returns immediately: the building block for event-loop
///        reconnects that must never block the loop thread. The fd is
///        O_NONBLOCK with TCP_NODELAY set. When `connected` is false the
///        caller waits for writability and then reads SO_ERROR to learn the
///        outcome (ConnectWithDeadline is exactly that, with a poll()).
Result<ConnectStart> StartConnect(const std::string& host, uint16_t port);

/// \brief Writes all `size` bytes, handling EINTR and partial writes, with
///        MSG_NOSIGNAL (a dead peer is EPIPE, never SIGPIPE). `deadline_ms`
///        is an absolute MonotonicMillis() deadline bounding the WHOLE
///        write; kNoDeadline blocks until completion or error. Works on
///        blocking and non-blocking fds alike (would-block waits in poll).
Status WriteAll(int fd, const uint8_t* data, size_t size,
                int64_t deadline_ms = kNoDeadline);

/// \brief Reads exactly `size` bytes, handling EINTR and partial reads,
///        bounded by the same absolute-monotonic-deadline contract as
///        WriteAll. A clean EOF (or any error) is Unavailable.
Status ReadExactly(int fd, uint8_t* data, size_t size,
                   int64_t deadline_ms = kNoDeadline);

/// \brief Reads one complete frame off `fd`: the fixed header first (whose
///        declared payload size is bounded by `max_frame_bytes` before any
///        allocation), then the payload. The deadline bounds the whole
///        frame, not each syscall.
Result<std::vector<uint8_t>> ReadFrameFd(int fd, size_t max_frame_bytes,
                                         int64_t deadline_ms = kNoDeadline);

// --- Incremental state machines ---------------------------------------------

/// \brief Resumable frame assembly over a non-blocking fd. Pump() drains
///        whatever the socket currently holds into the owned buffer;
///        Next() peels complete raw frames off it. A frame split across any
///        number of reads — down to one byte at a time — assembles
///        identically to a blocking read; a declared payload beyond
///        `max_frame_bytes` is detected from the header alone, before any
///        allocation or further buffering.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes);

  /// \brief Non-blocking read pump. Returns ok(true) while the peer is
  ///        still connected (stopped at would-block or the per-call byte
  ///        budget), ok(false) on clean EOF, and an error status on socket
  ///        errors or an oversized declared frame. The per-call budget
  ///        keeps one firehosing connection from starving its siblings on
  ///        a level-triggered loop — unread bytes stay in the kernel buffer
  ///        and re-arm the next epoll wake.
  Result<bool> Pump(int fd);

  /// \brief Extracts the next complete frame into `*frame`. ok(true) when
  ///        one was produced, ok(false) when more bytes are needed;
  ///        Corruption when the buffered header declares an oversized
  ///        payload (the connection is no longer frame-aligned).
  Result<bool> Next(std::vector<uint8_t>* frame);

  /// \brief True when a partial frame is buffered — a disconnect now is a
  ///        mid-frame disconnect.
  bool mid_frame() const { return buffered_bytes() != 0; }

  size_t buffered_bytes() const { return buf_.size() - pos_; }

  /// \brief Drops all buffered bytes — for reuse across reconnects (stale
  ///        partial frames from a dead connection must never prefix the new
  ///        one's stream).
  void Reset() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  // No complete frame buffered: compact the consumed prefix when it has
  // grown past a chunk, then report "need more bytes".
  Result<bool> CompactAndWait();

  const size_t max_frame_bytes_;
  std::vector<uint8_t> buf_;  // owned accumulation buffer
  size_t pos_ = 0;            // parse cursor into buf_
};

/// \brief Resumable frame emission over a non-blocking fd: Enqueue whole
///        encoded frames, Flush() as far as the socket accepts, resume
///        after the next writability wake. Byte order is exactly enqueue
///        order — responses cannot interleave mid-frame.
class FrameWriter {
 public:
  void Enqueue(std::vector<uint8_t> frame);

  /// \brief Writes queued bytes until drained or would-block. ok(true)
  ///        when everything queued has been written, ok(false) when bytes
  ///        remain and the socket is full; errors are fatal to the
  ///        connection (a partially written frame cannot be resynced).
  Result<bool> Flush(int fd);

  bool empty() const { return queue_.empty(); }
  size_t pending_bytes() const { return pending_bytes_; }

  /// \brief Drops everything queued (reconnect: a partially sent frame is
  ///        unrecoverable on a new connection).
  void Reset() {
    queue_.clear();
    head_offset_ = 0;
    pending_bytes_ = 0;
  }

 private:
  std::deque<std::vector<uint8_t>> queue_;
  size_t head_offset_ = 0;  // bytes of queue_.front() already written
  size_t pending_bytes_ = 0;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_IO_UTIL_H_
