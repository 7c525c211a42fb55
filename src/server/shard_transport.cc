#include "server/shard_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "server/io_util.h"

namespace embellish::server {

// --- ShardEndpoint ----------------------------------------------------------

ShardEndpoint::ShardEndpoint(EmbellishServer* server, size_t shard_id)
    : server_(server), shard_id_(shard_id) {}

std::vector<uint8_t> ShardEndpoint::HandleFrame(
    const std::vector<uint8_t>& request) {
  auto error = [](const Status& status) {
    return EncodeFrame(FrameKind::kError, 0, EncodeError(status));
  };

  // Invalid slice parameters never change: refuse every envelope so the
  // coordinator's handshake fails loudly. Whether a valid slice can answer
  // is decided by the server on the epoch it pins for the answer (a
  // mismatch is a typed kUnavailable inner error frame).
  if (server_->slice_config_invalid()) {
    return error(Status::FailedPrecondition(StringPrintf(
        "shard %zu's server has an invalid slice configuration", shard_id_)));
  }

  auto frame = DecodeFrame(request);
  if (!frame.ok()) return error(frame.status());
  if (frame->kind != FrameKind::kShardRequest) {
    return error(Status::InvalidArgument(
        "shard endpoint accepts only shard-request envelopes"));
  }
  auto envelope = DecodeShardEnvelope(frame->payload);
  if (!envelope.ok()) return error(envelope.status());
  if (envelope->shard_id != shard_id_) {
    return error(Status::FailedPrecondition(StringPrintf(
        "envelope addresses shard %zu but this endpoint serves shard %zu",
        envelope->shard_id, shard_id_)));
  }
  {
    // Fencing: adopt higher epochs (a new coordinator took over), refuse
    // lower ones (a superseded coordinator must not keep driving us).
    std::lock_guard<std::mutex> lock(epoch_mu_);
    if (envelope->epoch < last_epoch_) {
      return error(Status::FailedPrecondition(StringPrintf(
          "stale coordinator epoch %llu (shard has seen %llu)",
          static_cast<unsigned long long>(envelope->epoch),
          static_cast<unsigned long long>(last_epoch_))));
    }
    last_epoch_ = envelope->epoch;
  }

  // An empty inner frame is a ping: liveness + topology discovery.
  std::vector<uint8_t> inner_response =
      envelope->inner.empty() ? server_->HandlePing()
                              : server_->HandleFrame(envelope->inner);
  return EncodeFrame(FrameKind::kShardResponse, frame->session_id,
                     EncodeShardEnvelope(shard_id_, envelope->epoch,
                                         envelope->seq, inner_response));
}

// --- Loopback serving -------------------------------------------------------

Result<int> ListenOnLoopback(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StringPrintf("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port != nullptr ? *port : 0);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, 16) != 0) {
    int err = errno;
    close(fd);
    return Status::IoError(StringPrintf("bind/listen: %s",
                                        std::strerror(err)));
  }
  if (port != nullptr) {
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      int err = errno;
      close(fd);
      return Status::IoError(StringPrintf("getsockname: %s",
                                          std::strerror(err)));
    }
    *port = ntohs(addr.sin_port);
  }
  return fd;
}

Status ServeShardConnections(int listen_fd, ShardEndpoint* endpoint) {
  // Backoff for fd exhaustion: repeated EMFILE/ENFILE must not spin a core
  // (accept fails instantly when the process is out of descriptors, so a
  // flat short sleep still burns ~100 wakeups/sec for the whole outage).
  // Doubles 10ms -> ~1s and resets on any successful accept.
  constexpr auto kBackoffFloor = std::chrono::milliseconds(10);
  constexpr auto kBackoffCeil = std::chrono::milliseconds(1000);
  auto backoff = kBackoffFloor;
  for (;;) {
    int conn = accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      // Transient accept failures must not kill a long-running shard
      // process: a peer that reset while queued (ECONNABORTED/EPROTO) or
      // a momentary fd shortage during a reconnect storm just retries.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, kBackoffCeil);
        continue;
      }
      // The normal shutdown path: the owner closed / shut down listen_fd.
      return Status::OK();
    }
    backoff = kBackoffFloor;
    int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    for (;;) {
      // No read deadline: a shard waits indefinitely for its coordinator's
      // next request (requests may also arrive pipelined from a
      // MultiplexedTransport; responses go back in request order, which is
      // exactly the order the multiplexer's seqs expect).
      auto request = ReadFrameFd(conn, kMaxTransportFrameBytes);
      if (!request.ok()) break;  // peer gone or hostile length; drop it
      std::vector<uint8_t> response = endpoint->HandleFrame(*request);
      if (!WriteAll(conn, response.data(), response.size()).ok()) break;
    }
    close(conn);
  }
}

// --- Fault injection --------------------------------------------------------

FaultyTransport::FaultyTransport(ShardTransport* inner,
                                 FaultyTransportOptions options)
    : inner_(inner), options_(std::move(options)), rng_(options_.seed) {}

size_t FaultyTransport::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.total();
}

FaultyTransportStats FaultyTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

TransportFault FaultyTransport::NextFaultLocked() {
  const size_t call = stats_.calls++;
  TransportFault fault = TransportFault::kNone;
  if (!options_.schedule.empty()) {
    if (call < options_.schedule.size()) {
      fault = options_.schedule[call];
    } else if (options_.cycle) {
      fault = options_.schedule[call % options_.schedule.size()];
    }
  } else if (options_.fault_rate > 0 && rng_.Bernoulli(options_.fault_rate)) {
    // kNone excluded: a drawn fault is a fault.
    fault = static_cast<TransportFault>(
        1 + rng_.Uniform(static_cast<uint64_t>(TransportFault::kDelay)));
  }
  switch (fault) {
    case TransportFault::kNone: break;
    case TransportFault::kDrop: ++stats_.drops; break;
    case TransportFault::kTruncate: ++stats_.truncations; break;
    case TransportFault::kBitFlip: ++stats_.bit_flips; break;
    case TransportFault::kReorder: ++stats_.reorders; break;
    case TransportFault::kDelay: ++stats_.delays; break;
  }
  return fault;
}

Result<std::vector<uint8_t>> FaultyTransport::MutateResponseLocked(
    TransportFault fault, Result<std::vector<uint8_t>> inner) {
  switch (fault) {
    case TransportFault::kNone:
    case TransportFault::kDelay:
      return inner;
    case TransportFault::kDrop:
      // The shard processed the request; its response never arrives. This
      // is what a timeout on a live-but-unreachable shard looks like.
      return Status::Unavailable("injected fault: response frame dropped");
    case TransportFault::kTruncate: {
      if (!inner.ok()) return inner;
      std::vector<uint8_t> response = std::move(*inner);
      // Chop strictly short of the full length so a scheduled truncation
      // always damages the frame (an intact delivery would make
      // "fault => typed error" assertions seed-dependent).
      if (!response.empty()) {
        response.resize(rng_.Uniform(response.size()));
      }
      return response;
    }
    case TransportFault::kBitFlip: {
      if (!inner.ok()) return inner;
      std::vector<uint8_t> response = std::move(*inner);
      if (!response.empty()) {
        const size_t bit = rng_.Uniform(response.size() * 8);
        response[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      return response;
    }
    case TransportFault::kReorder: {
      // Swap this response with the previously held one; the first reorder
      // (nothing held yet) degrades to a drop. The stale response carries a
      // stale envelope seq, which the coordinator must reject.
      if (!inner.ok()) return inner;
      std::vector<uint8_t> out;
      const bool had_held = has_held_;
      if (had_held) out = std::move(held_);
      held_ = std::move(*inner);
      has_held_ = true;
      if (!had_held) {
        return Status::Unavailable(
            "injected fault: response reordered past its request");
      }
      return out;
    }
  }
  return Status::Internal("unreachable fault kind");
}

Result<std::vector<uint8_t>> FaultyTransport::RoundTrip(
    const std::vector<uint8_t>& request) {
  // One mutex across the whole inner round trip: direct blocking callers
  // serialize through the decorator.
  std::lock_guard<std::mutex> lock(mu_);
  const TransportFault fault = NextFaultLocked();
  if (fault == TransportFault::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.delay_ms));
  }
  return MutateResponseLocked(fault, inner_->RoundTrip(request));
}

void FaultyTransport::SubmitRoundTrip(const std::vector<uint8_t>& request,
                                      RoundTripCompletion done) {
  TransportFault fault;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fault = NextFaultLocked();
  }
  inner_->SubmitRoundTrip(
      request, [this, fault, done = std::move(done)](
                   Result<std::vector<uint8_t>> inner) mutable {
        Result<std::vector<uint8_t>> mutated = [&] {
          std::lock_guard<std::mutex> lock(mu_);
          return MutateResponseLocked(fault, std::move(inner));
        }();
        if (fault == TransportFault::kDelay && options_.delay_ms > 0) {
          // The inner completion typically runs on an event-loop thread; a
          // sleep there would delay every other in-flight trip too, which
          // is not what kDelay models. Deliver late from a detached thread.
          std::thread([delay = options_.delay_ms, done = std::move(done),
                       m = std::move(mutated)]() mutable {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
            done(std::move(m));
          }).detach();
          return;
        }
        done(std::move(mutated));
      });
}

}  // namespace embellish::server
