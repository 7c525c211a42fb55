#include "server/embellish_server.h"

#include <algorithm>
#include <utility>

#include "common/answer_path.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/wire_format.h"
#include "index/topk.h"
#include "server/async_frontend.h"

namespace embellish::server {

EmbellishServer::EmbellishServer(index::IndexCatalog* catalog,
                                 const EmbellishServerOptions& options,
                                 ThreadPool* pool)
    : options_(options),
      pool_(pool),
      catalog_(catalog),
      bucket_count_(catalog_->Acquire()->buckets().bucket_count()),
      sessions_(options.max_sessions, options.session_idle_frames) {
  // Resolve the initial epoch eagerly so construction surfaces any
  // topology problem immediately (and the first request pays no assembly).
  engines_ = BuildEngines(catalog_->Acquire());
}

std::shared_ptr<const EmbellishServer::EpochEngines>
EmbellishServer::BuildEngines(
    std::shared_ptr<const index::IndexEpoch> snapshot) const {
  auto engines = std::make_shared<EpochEngines>();
  const index::IndexEpoch& epoch = *snapshot;
  engines->epoch = std::move(snapshot);
  engines->serve_index = &epoch.index();
  engines->serve_layout = epoch.layout();

  // Slice resolution against THIS epoch, so the answer and the decision
  // that it may be given come from one pin. A slice of a partition the
  // epoch does not have is refused, never answered from the whole index:
  // behind a coordinator that would merge every other slice's documents
  // twice.
  const size_t slice = options_.shard_slice;
  const size_t slices = options_.shard_slice_count;
  if (slice_config_invalid()) {
    engines->refusal = Status::FailedPrecondition(StringPrintf(
        "invalid slice configuration: slice %zu of %zu", slice, slices));
    return engines;
  }
  if (serves_slice() && slices > 1) {
    if (epoch.shard_count() != slices) {
      engines->refusal = Status::Unavailable(StringPrintf(
          "slice %zu of %zu cannot answer epoch %llu, which has %zu shards",
          slice, slices, static_cast<unsigned long long>(epoch.epoch()),
          epoch.shard_count()));
      return engines;
    }
    engines->serve_index = &epoch.sharded()->shard(slice);
    engines->serve_layout = epoch.shard_layouts() != nullptr
                                ? &(*epoch.shard_layouts())[slice]
                                : nullptr;
  }
  // The catalog's disk model: the one its layouts were built with.
  const storage::DiskModelOptions& disk = catalog_->options().disk;
  engines->pr = std::make_unique<core::PrivateRetrievalServer>(
      engines->serve_index, &epoch.buckets(), engines->serve_layout, disk,
      core::PrivateRetrievalServerOptions{}, pool_);
  engines->pir = std::make_unique<core::PirRetrievalServer>(
      engines->serve_index, &epoch.buckets(), engines->serve_layout, disk,
      pool_);
  return engines;
}

std::shared_ptr<const EmbellishServer::EpochEngines>
EmbellishServer::ResolveEngines() const {
  std::shared_ptr<const index::IndexEpoch> snapshot = catalog_->Acquire();
  {
    std::lock_guard<std::mutex> lock(engines_mu_);
    if (engines_ != nullptr && engines_->epoch == snapshot) return engines_;
  }
  // A new epoch was installed: assemble a bundle for it OUTSIDE the lock
  // (pointer assembly only — no index builds, so this is answer-path safe
  // and concurrent resolvers merely race to install equivalent bundles).
  std::shared_ptr<const EpochEngines> built = BuildEngines(std::move(snapshot));
  std::lock_guard<std::mutex> lock(engines_mu_);
  if (engines_ != nullptr &&
      engines_->epoch->epoch() >= built->epoch->epoch()) {
    // A racer installed this epoch (its lazy PIR matrices may already be
    // warm — prefer it), or a newer one (never regress).
    return engines_;
  }
  engines_ = std::move(built);
  return engines_;
}

bool EmbellishServer::serves_slice() const {
  return options_.shard_slice != SIZE_MAX && !slice_config_invalid();
}

bool EmbellishServer::slice_config_invalid() const {
  return options_.shard_slice != SIZE_MAX &&
         options_.shard_slice >= options_.shard_slice_count;
}

std::vector<uint8_t> EmbellishServer::HandlePing() const {
  std::shared_ptr<const EpochEngines> engines = ResolveEngines();
  if (!engines->refusal.ok()) {
    return EncodeFrame(FrameKind::kError, 0, EncodeError(engines->refusal));
  }
  return EncodeFrame(FrameKind::kHelloOk, 0, EncodeHelloOk(1, bucket_count_));
}

void EmbellishServer::MergeDelta(const ServerStats& d) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats& t = totals_;
  t.frames += d.frames;
  t.hellos += d.hellos;
  t.queries += d.queries;
  t.pir_queries += d.pir_queries;
  t.topk_queries += d.topk_queries;
  t.errors += d.errors;
  t.shed += d.shed;
  t.uplink_bytes += d.uplink_bytes;
  t.downlink_bytes += d.downlink_bytes;
  t.server_cpu_ms += d.server_cpu_ms;
  t.server_io_ms += d.server_io_ms;
}

size_t EmbellishServer::AcquireInflight(size_t want) {
  if (options_.max_inflight == 0) return want;
  size_t current = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    const size_t room = options_.max_inflight > current
                            ? options_.max_inflight - current
                            : 0;
    const size_t grant = std::min(want, room);
    if (grant == 0) return 0;
    if (inflight_.compare_exchange_weak(current, current + grant,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return grant;
    }
  }
}

void EmbellishServer::ReleaseInflight(size_t granted) {
  if (options_.max_inflight == 0 || granted == 0) return;
  inflight_.fetch_sub(granted, std::memory_order_acq_rel);
}

EmbellishServer::RequestOutcome EmbellishServer::BusyOutcome() {
  RequestOutcome outcome = ErrorOutcome(
      0, Status::Busy("server in-flight budget exhausted; request shed"));
  outcome.delta.shed = 1;
  outcome.delta.frames = 1;
  outcome.delta.downlink_bytes = outcome.response.size();
  return outcome;
}

std::vector<uint8_t> EmbellishServer::HandleFrame(
    const std::vector<uint8_t>& request) {
  // Pin the current epoch for this frame; a successor installing mid-flight
  // changes nothing we can observe.
  std::shared_ptr<const EpochEngines> engines = ResolveEngines();
  common::ScopedAnswerPath answer_path;
  RequestOutcome outcome;
  if (AcquireInflight(1) == 0) {
    outcome = BusyOutcome();
  } else {
    outcome = ProcessOne(*engines, request);
    ReleaseInflight(1);
  }
  MergeDelta(outcome.delta);
  return std::move(outcome.response);
}

std::vector<std::vector<uint8_t>> EmbellishServer::HandleBatch(
    const std::vector<std::vector<uint8_t>>& requests) {
  // One pin per batch: every request in the batch answers against the same
  // immutable snapshot, whatever the catalog installs meanwhile.
  std::shared_ptr<const EpochEngines> engines = ResolveEngines();
  std::vector<std::vector<uint8_t>> responses(requests.size());
  // Admission is reserved for the whole batch up front: the first `granted`
  // requests are processed, the rest are shed with typed kBusy frames — a
  // deterministic suffix, so the client knows exactly which to resend.
  const size_t granted = AcquireInflight(requests.size());
  // Each frame takes HandleFrame's ProcessOne path, PIR frames included, so
  // its response equals HandleFrame's.
  auto handle_range = [&](size_t begin, size_t end) {
    common::ScopedAnswerPath answer_path;
    for (size_t i = begin; i < end; ++i) {
      RequestOutcome outcome =
          i < granted ? ProcessOne(*engines, requests[i]) : BusyOutcome();
      MergeDelta(outcome.delta);
      responses[i] = std::move(outcome.response);
    }
  };
  // Tiny batches run inline: at 1-2 requests the region bookkeeping and
  // worker wake-ups cost more than the overlap buys, and any intra-request
  // parallelism still arrives through the engines' own nested regions.
  constexpr size_t kInlineBatchMax = 2;
  if (pool_ != nullptr && requests.size() > kInlineBatchMax) {
    pool_->ParallelFor(0, requests.size(), /*min_grain=*/1, handle_range);
  } else {
    handle_range(0, requests.size());
  }
  ReleaseInflight(granted);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++totals_.batches;
  return responses;
}

Result<std::unique_ptr<AsyncFrontEnd>> EmbellishServer::ServeAsync(
    int listen_fd, EventLoop* loop) {
  return ServeAsync(listen_fd, loop, AsyncFrontEndOptions{});
}

Result<std::unique_ptr<AsyncFrontEnd>> EmbellishServer::ServeAsync(
    int listen_fd, EventLoop* loop, const AsyncFrontEndOptions& options) {
  return AsyncFrontEnd::Create(
      listen_fd, loop,
      [this](const std::vector<std::vector<uint8_t>>& requests) {
        return HandleBatch(requests);
      },
      options);
}

size_t EmbellishServer::session_count() const { return sessions_.size(); }

ServerStats EmbellishServer::stats() const {
  const index::IndexCatalogStats catalog_stats = catalog_->stats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats snapshot = totals_;
  snapshot.sessions_expired = sessions_.expired_total();
  snapshot.epoch_swaps = catalog_stats.epoch_swaps;
  snapshot.delta_docs_ingested = catalog_stats.delta_docs_ingested;
  snapshot.reshard_micros = catalog_stats.reshard_micros;
  snapshot.pinned_epochs =
      catalog_stats.pinned_epochs > 0
          ? static_cast<uint64_t>(catalog_stats.pinned_epochs)
          : 0;
  snapshot.answer_path_builds = catalog_stats.answer_path_builds;
  return snapshot;
}

EmbellishServer::RequestOutcome EmbellishServer::ErrorOutcome(
    uint64_t session_id, const Status& status) {
  RequestOutcome outcome;
  outcome.response =
      EncodeFrame(FrameKind::kError, session_id, EncodeError(status));
  outcome.delta.errors = 1;
  return outcome;
}

EmbellishServer::RequestOutcome EmbellishServer::ProcessOne(
    const EpochEngines& engines, const std::vector<uint8_t>& request) {
  frame_clock_.fetch_add(1, std::memory_order_relaxed);
  RequestOutcome outcome;
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    outcome = ErrorOutcome(0, frame.status());
  } else if (!engines.refusal.ok()) {
    // The pinned epoch refuses every request (see BuildEngines).
    outcome = ErrorOutcome(frame->session_id, engines.refusal);
  } else {
    // Any decodable frame naming a registered session counts as activity
    // for the idle-expiry sweep, whatever its kind: PIR- or top-k-only
    // sessions must not lose their registered key mid-stream.
    sessions_.Touch(frame->session_id,
                    frame_clock_.load(std::memory_order_relaxed));
    switch (frame->kind) {
      case FrameKind::kHello:
        outcome = HandleHello(*frame);
        break;
      case FrameKind::kQuery:
        outcome = HandleQuery(engines, *frame);
        break;
      case FrameKind::kPirQuery:
        outcome = HandlePirQuery(engines, *frame);
        break;
      case FrameKind::kTopKQuery:
        outcome = HandleTopK(engines, *frame);
        break;
      default:
        outcome = ErrorOutcome(
            frame->session_id,
            Status::InvalidArgument("frame kind is not a request"));
        break;
    }
  }
  outcome.delta.frames += 1;
  outcome.delta.uplink_bytes += request.size();
  outcome.delta.downlink_bytes += outcome.response.size();
  return outcome;
}

EmbellishServer::RequestOutcome EmbellishServer::HandleHello(
    const Frame& frame) {
  auto pk = DecodeHello(frame.payload);
  if (!pk.ok()) return ErrorOutcome(frame.session_id, pk.status());
  if (!sessions_.Register(
          frame.session_id,
          std::make_shared<const crypto::BenalohPublicKey>(std::move(*pk)),
          frame_clock_.load(std::memory_order_relaxed))) {
    return ErrorOutcome(frame.session_id,
                        Status::FailedPrecondition(
                            "session table full; hello refused"));
  }
  RequestOutcome outcome;
  // The hello-ok advertises the retrieval topology: one shard (a slice is
  // monolithic over its slice; the coordinator advertises the slice count)
  // and the bucket count a client addresses PIR executions with.
  outcome.response = EncodeFrame(FrameKind::kHelloOk, frame.session_id,
                                 EncodeHelloOk(1, bucket_count_));
  outcome.delta.hellos = 1;
  return outcome;
}

EmbellishServer::RequestOutcome EmbellishServer::HandleQuery(
    const EpochEngines& engines, const Frame& frame) {
  SessionTable::Entry session = sessions_.Find(frame.session_id);
  if (session.pk == nullptr) {
    return ErrorOutcome(frame.session_id,
                        Status::FailedPrecondition(
                            "session has not sent a hello frame"));
  }
  const crypto::BenalohPublicKey& pk = *session.pk;
  auto query = core::DecodeQuery(frame.payload, pk);
  if (!query.ok()) return ErrorOutcome(frame.session_id, query.status());

  core::RetrievalCosts costs;
  auto result = engines.pr->Process(*query, pk, &costs);
  if (!result.ok()) return ErrorOutcome(frame.session_id, result.status());

  RequestOutcome outcome;
  outcome.response = EncodeFrame(FrameKind::kResult, frame.session_id,
                                 core::EncodeResult(*result, pk));
  outcome.delta.queries = 1;
  outcome.delta.server_cpu_ms = costs.server_cpu_ms;
  outcome.delta.server_io_ms = costs.server_io_ms;
  return outcome;
}

EmbellishServer::RequestOutcome EmbellishServer::HandlePirQuery(
    const EpochEngines& engines, const Frame& frame) {
  auto payload = DecodePirQuery(frame.payload);
  if (!payload.ok()) return ErrorOutcome(frame.session_id, payload.status());

  core::RetrievalCosts costs;
  // The engine's lazy bucket-matrix cache is internally synchronized, so
  // concurrent frames compute without any external lock.
  Result<crypto::PirResponse> response =
      engines.pir->Answer(payload->bucket, payload->query, &costs);
  if (!response.ok()) return ErrorOutcome(frame.session_id, response.status());

  RequestOutcome outcome;
  outcome.response = EncodePirResultFrame(frame.session_id, *response);
  outcome.delta.pir_queries = 1;
  outcome.delta.server_cpu_ms = costs.server_cpu_ms;
  outcome.delta.server_io_ms = costs.server_io_ms;
  return outcome;
}

EmbellishServer::RequestOutcome EmbellishServer::HandleTopK(
    const EpochEngines& engines, const Frame& frame) {
  auto query = DecodeTopKQuery(frame.payload);
  if (!query.ok()) return ErrorOutcome(frame.session_id, query.status());

  RequestOutcome outcome;
  CpuStopwatch cpu;
  // Full accumulation, not Figure 10 early termination: wire responses
  // must be partition-independent so a coordinator merge over slice
  // servers is bit-identical to any monolithic answer, and the
  // early-terminated scores are order-dependent lower bounds.
  std::vector<index::ScoredDoc> top =
      index::EvaluateFull(*engines.serve_index, query->terms);
  if (top.size() > query->k) top.resize(query->k);
  outcome.response = EncodeFrame(FrameKind::kTopKResult, frame.session_id,
                                 EncodeTopKResult(top));
  outcome.delta.topk_queries = 1;
  outcome.delta.server_cpu_ms = cpu.ElapsedMillis();
  return outcome;
}

}  // namespace embellish::server
