#include "server/async_frontend.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "server/framing.h"

namespace embellish::server {

Result<std::unique_ptr<AsyncFrontEnd>> AsyncFrontEnd::Create(
    int listen_fd, EventLoop* loop, BatchHandler handler,
    const AsyncFrontEndOptions& options) {
  if (options.dispatch_threads == 0) {
    close(listen_fd);
    return Status::InvalidArgument(
        "the front end needs dispatch_threads >= 1: the handler never runs "
        "on the loop thread");
  }
  EMB_RETURN_NOT_OK(SetNonBlocking(listen_fd));
  std::unique_ptr<AsyncFrontEnd> front_end(
      new AsyncFrontEnd(listen_fd, loop, std::move(handler), options));
  EMB_RETURN_NOT_OK(front_end->Start());
  return front_end;
}

AsyncFrontEnd::AsyncFrontEnd(int listen_fd, EventLoop* loop,
                             BatchHandler handler,
                             const AsyncFrontEndOptions& options)
    : loop_(loop),
      handler_(std::move(handler)),
      options_(options),
      listen_fd_(listen_fd) {}

Status AsyncFrontEnd::Start() {
  EMB_RETURN_NOT_OK(
      loop_->Add(listen_fd_, EPOLLIN, [this](uint32_t) { OnAcceptable(); }));
  dispatchers_.reserve(options_.dispatch_threads);
  for (size_t i = 0; i < options_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatcherMain(); });
  }
  return Status::OK();
}

AsyncFrontEnd::~AsyncFrontEnd() { Shutdown(); }

void AsyncFrontEnd::Shutdown() {
  bool expected = false;
  if (!shutdown_done_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  if (loop_->IsRunning() && !loop_->InLoopThread()) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    loop_->RunInLoop([this, &mu, &cv, &done] {
      TeardownInLoop();
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&done] { return done; });
  } else {
    TeardownInLoop();
  }
}

void AsyncFrontEnd::TeardownInLoop() {
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [id, conn] : conns_) {
    (void)id;
    loop_->Remove(conn.fd);
    close(conn.fd);
    connections_closed_.fetch_add(1, std::memory_order_relaxed);
  }
  conns_.clear();
  open_connections_.store(0, std::memory_order_relaxed);
}

void AsyncFrontEnd::OnAcceptable() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or a transient accept error: re-armed
    }
    if (options_.max_connections != 0 &&
        conns_.size() >= options_.max_connections) {
      close(fd);
      connections_refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Responses are small frames written as they complete: with Nagle on,
    // one queued behind an unacknowledged predecessor waits out the
    // client's delayed ACK.
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint64_t conn_id = next_conn_id_++;
    auto [it, inserted] =
        conns_.emplace(conn_id, Conn(options_.max_frame_bytes));
    it->second.fd = fd;
    Status added = loop_->Add(
        fd, EPOLLIN, [this, conn_id](uint32_t ev) { OnConnEvent(conn_id, ev); });
    if (!added.ok()) {
      conns_.erase(conn_id);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void AsyncFrontEnd::OnConnEvent(uint64_t conn_id, uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;

  if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
      !conn.reading_paused) {
    Result<bool> open = conn.reader.Pump(conn.fd);
    if (!open.ok()) {
      CloseConn(conn_id);
      return;
    }
    std::vector<uint8_t> frame;
    for (;;) {
      Result<bool> has = conn.reader.Next(&frame);
      if (!has.ok()) {
        // Oversized declared frame: the stream cannot be resynced.
        CloseConn(conn_id);
        return;
      }
      if (!*has) break;
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      DispatchFrame(conn_id, std::move(frame));
      // A shed delivers inline and may have closed the connection.
      if (conns_.find(conn_id) == conns_.end()) return;
    }
    if (!*open) {
      if (conn.reader.mid_frame()) {
        mid_frame_disconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(conn_id);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    auto again = conns_.find(conn_id);
    if (again != conns_.end()) FlushConn(conn_id, again->second);
  }
}

void AsyncFrontEnd::DispatchFrame(uint64_t conn_id,
                                  std::vector<uint8_t> frame) {
  Conn& conn = conns_.at(conn_id);
  const uint64_t ticket = conn.next_ticket++;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() < options_.max_pending && !stopping_) {
      queue_.push_back(Work{conn_id, ticket, std::move(frame)});
      queue_cv_.notify_one();
      return;
    }
  }
  // Queue full: shed with a typed kBusy error the client can retry, through
  // the same ticketed delivery so response order still holds. The frame is
  // never decoded, and every shed answer is the same bytes.
  shed_.fetch_add(1, std::memory_order_relaxed);
  Deliver(conn_id, ticket,
          EncodeFrame(FrameKind::kError, 0,
                      EncodeError(Status::Busy(
                          "server dispatch queue full; request shed"))));
}

void AsyncFrontEnd::DispatcherMain() {
  for (;;) {
    std::vector<Work> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, drained
      const size_t take = std::min(queue_.size(), options_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    std::vector<std::vector<uint8_t>> requests;
    requests.reserve(batch.size());
    for (Work& w : batch) requests.push_back(std::move(w.frame));
    std::vector<std::vector<uint8_t>> responses = handler_(requests);
    responses.resize(batch.size());  // a short handler answer closes as empty
    auto shared_batch = std::make_shared<std::vector<Work>>(std::move(batch));
    auto shared_responses =
        std::make_shared<std::vector<std::vector<uint8_t>>>(
            std::move(responses));
    loop_->RunInLoop([this, shared_batch, shared_responses] {
      for (size_t i = 0; i < shared_batch->size(); ++i) {
        Deliver((*shared_batch)[i].conn_id, (*shared_batch)[i].ticket,
                std::move((*shared_responses)[i]));
      }
    });
  }
}

void AsyncFrontEnd::Deliver(uint64_t conn_id, uint64_t ticket,
                            std::vector<uint8_t> response) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection died before its answer
  Conn& conn = it->second;
  conn.ready.emplace(ticket, std::move(response));
  // Release the in-order prefix: concurrent dispatcher batches may finish
  // out of order, but one connection's responses go out in request order.
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_to_send) {
    std::vector<uint8_t> next = std::move(conn.ready.begin()->second);
    conn.ready.erase(conn.ready.begin());
    ++conn.next_to_send;
    if (next.empty()) {
      // An empty response (handler under-answered): drop the connection
      // rather than desync its response ordering.
      CloseConn(conn_id);
      return;
    }
    responses_out_.fetch_add(1, std::memory_order_relaxed);
    conn.writer.Enqueue(std::move(next));
  }
  FlushConn(conn_id, conn);
}

void AsyncFrontEnd::FlushConn(uint64_t conn_id, Conn& conn) {
  Result<bool> drained = conn.writer.Flush(conn.fd);
  if (!drained.ok()) {
    CloseConn(conn_id);
    return;
  }
  UpdateReadInterest(conn);
}

void AsyncFrontEnd::UpdateReadInterest(Conn& conn) {
  // Backpressure: above the high-water mark the connection stops being
  // read (its kernel receive buffer then pushes back on the client);
  // reading resumes once the outbox drains below half.
  if (!conn.reading_paused &&
      conn.writer.pending_bytes() > options_.outbox_high_water) {
    conn.reading_paused = true;
  } else if (conn.reading_paused &&
             conn.writer.pending_bytes() <= options_.outbox_high_water / 2) {
    conn.reading_paused = false;
  }
  const uint32_t events =
      (conn.reading_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
      (conn.writer.empty() ? 0u : static_cast<uint32_t>(EPOLLOUT));
  (void)loop_->Modify(conn.fd, events);
}

void AsyncFrontEnd::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_->Remove(it->second.fd);
  close(it->second.fd);
  conns_.erase(it);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
}

AsyncFrontEndStats AsyncFrontEnd::stats() const {
  AsyncFrontEndStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  out.connections_refused =
      connections_refused_.load(std::memory_order_relaxed);
  out.frames_in = frames_in_.load(std::memory_order_relaxed);
  out.responses_out = responses_out_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.mid_frame_disconnects =
      mid_frame_disconnects_.load(std::memory_order_relaxed);
  out.open_connections = open_connections_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace embellish::server
