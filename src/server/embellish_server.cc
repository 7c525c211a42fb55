#include "server/embellish_server.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/answer_path.h"
#include "common/stopwatch.h"
#include "core/wire_format.h"
#include "index/topk.h"
#include "server/async_frontend.h"

namespace embellish::server {

std::unique_ptr<index::IndexCatalog> EmbellishServer::MakeShimCatalog(
    const index::InvertedIndex* index, const core::BucketOrganization* buckets,
    const storage::StorageLayout* layout,
    const EmbellishServerOptions& options) {
  // Replicates the pre-catalog ctor's topology decisions. Slice mode
  // composes with a ShardCoordinator, not with in-process sharding; an
  // invalid slice configuration falls back (and is reported by
  // slice_config_invalid(), resolved per epoch in BuildEngines).
  index::IndexCatalogOptions catalog_options;
  const bool slice_valid =
      options.shard_slice != SIZE_MAX && options.shard_count <= 1 &&
      options.shard_slice_count > 0 &&
      options.shard_slice < options.shard_slice_count;
  if (slice_valid) {
    catalog_options.sharding.shard_count = options.shard_slice_count;
    catalog_options.sharding.partition = options.shard_partition;
  } else if (options.shard_count > 1) {
    catalog_options.sharding.shard_count = options.shard_count;
    catalog_options.sharding.partition = options.shard_partition;
  }
  catalog_options.build_layouts = layout != nullptr;
  catalog_options.layout_policy =
      layout != nullptr ? layout->policy()
                        : storage::LayoutPolicy::kBucketColocated;
  catalog_options.disk = options.disk;
  auto catalog =
      index::IndexCatalog::Freeze(index, buckets, layout, catalog_options);
  // Freeze fails only on null inputs or invalid sharding, both of which
  // were construction-order bugs under the old ctor too.
  return catalog.ok() ? std::move(catalog).value() : nullptr;
}

EmbellishServer::EmbellishServer(index::IndexCatalog* catalog,
                                 const EmbellishServerOptions& options,
                                 ThreadPool* pool)
    : EmbellishServer(nullptr, catalog, options, pool) {}

EmbellishServer::EmbellishServer(const index::InvertedIndex* index,
                                 const core::BucketOrganization* buckets,
                                 const storage::StorageLayout* layout,
                                 const EmbellishServerOptions& options,
                                 ThreadPool* pool)
    : EmbellishServer(MakeShimCatalog(index, buckets, layout, options), nullptr,
                      options, pool) {}

EmbellishServer::EmbellishServer(
    std::unique_ptr<index::IndexCatalog> owned_catalog,
    index::IndexCatalog* catalog, const EmbellishServerOptions& options,
    ThreadPool* pool)
    : options_(options),
      // No caller pool, but intra-query shard parallelism requested: spawn
      // an owned executor of the requested width and serve everything from
      // it — the pre-executor dedicated-shard-pool behavior, minus the old
      // one-region-at-a-time collision.
      owned_pool_(pool == nullptr && options.shard_threads > 1 &&
                          options.shard_count > 1 &&
                          options.shard_slice == SIZE_MAX
                      ? std::make_unique<ThreadPool>(options.shard_threads)
                      : nullptr),
      pool_(pool != nullptr ? pool : owned_pool_.get()),
      owned_catalog_(std::move(owned_catalog)),
      catalog_(catalog != nullptr ? catalog : owned_catalog_.get()),
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

  // Slice resolution against THIS epoch. Params must be valid, and the
  // epoch's partition must actually be the slice topology (after a
  // background Reshard to a different shard count it no longer is; the
  // server then serves the full index and flags the mismatch).
  const bool slice_requested = options_.shard_slice != SIZE_MAX;
  const bool slice_params_valid =
      slice_requested && options_.shard_count <= 1 &&
      options_.shard_slice_count > 0 &&
      options_.shard_slice < options_.shard_slice_count;
  if (slice_params_valid) {
    if (options_.shard_slice_count == 1) {
      // A 1-way partition's only slice IS the full index.
      engines->slice_active = true;
      engines->serve_index = &epoch.index();
      engines->serve_layout = epoch.layout();
    } else if (epoch.sharded() != nullptr &&
               epoch.shard_count() == options_.shard_slice_count &&
               epoch.sharding().partition == options_.shard_partition) {
      engines->slice_active = true;
      engines->serve_index = &epoch.sharded()->shard(options_.shard_slice);
      engines->serve_layout =
          epoch.shard_layouts() != nullptr
              ? &(*epoch.shard_layouts())[options_.shard_slice]
              : nullptr;
    } else {
      engines->slice_invalid = true;  // epoch/slice topology mismatch
    }
  } else if (slice_requested) {
    engines->slice_invalid = true;  // bad params (old-ctor fallback rules)
  }

  if (!engines->slice_active && epoch.sharded() != nullptr) {
    // Sharded serving: fan-outs run on the shared executor, capped by
    // shard_threads; every pointer handed to the engines lives inside the
    // pinned snapshot.
    engines->sharded_pr = std::make_unique<core::ShardedPrivateRetrievalServer>(
        epoch.sharded(), &epoch.buckets(), epoch.shard_layouts(),
        options_.disk, options_.pr, pool_, options_.shard_threads);
    engines->sharded_pir = std::make_unique<core::ShardedPirRetrievalServer>(
        epoch.sharded(), &epoch.buckets(), epoch.shard_layouts(),
        options_.disk, pool_, options_.shard_threads);
    engines->serve_index = &epoch.index();
    engines->serve_layout = epoch.layout();
    engines->advertised_shards = epoch.shard_count();
    return engines;
  }

  // Monolithic serving (full index, a slice, or the mismatch fallback).
  if (engines->serve_index == nullptr) {
    engines->serve_index = &epoch.index();
    engines->serve_layout = epoch.layout();
  }
  engines->pr = std::make_unique<core::PrivateRetrievalServer>(
      engines->serve_index, &epoch.buckets(), engines->serve_layout,
      options_.disk, options_.pr, pool_);
  engines->pir = std::make_unique<core::PirRetrievalServer>(
      engines->serve_index, &epoch.buckets(), engines->serve_layout,
      options_.disk, pool_);
  engines->advertised_shards = 1;
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

size_t EmbellishServer::shard_count() const {
  return ResolveEngines()->advertised_shards;
}

bool EmbellishServer::serves_slice() const {
  return ResolveEngines()->slice_active;
}

bool EmbellishServer::slice_config_invalid() const {
  return ResolveEngines()->slice_invalid;
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
  t.topk_shards_visited += d.topk_shards_visited;
  t.topk_shards_skipped += d.topk_shards_skipped;
  t.pir_batch_sweeps += d.pir_batch_sweeps;
  t.pir_batched_queries += d.pir_batched_queries;
  t.pir_batch_budget_splits += d.pir_batch_budget_splits;
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
  // Phase 1 (dispatch): decode and answer everything except PIR compute,
  // which parks in the collector. Phase 2 then answers the parked queries
  // in shared sweeps, grouped by (epoch, shard) — the epoch is this batch's
  // single pinned snapshot, so the group key reduces to the shard.
  PirBatchCollector collector;
  auto handle_range = [&](size_t begin, size_t end) {
    common::ScopedAnswerPath answer_path;
    for (size_t i = begin; i < end; ++i) {
      RequestOutcome outcome = i < granted
                                   ? ProcessOne(*engines, requests[i],
                                                &collector, i)
                                   : BusyOutcome();
      MergeDelta(outcome.delta);
      responses[i] = std::move(outcome.response);
    }
  };
  // Tiny batches run inline: at 1-2 requests the region bookkeeping and
  // worker wake-ups cost more than the overlap buys (the BENCH_server.json
  // batched-path regression), and any intra-request parallelism still
  // arrives through the engines' own nested regions.
  constexpr size_t kInlineBatchMax = 2;
  if (pool_ != nullptr && requests.size() > kInlineBatchMax) {
    pool_->ParallelFor(0, requests.size(), /*min_grain=*/1, handle_range);
  } else {
    handle_range(0, requests.size());
  }
  AnswerDeferredPir(*engines, collector, &responses);
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
    const EpochEngines& engines, const std::vector<uint8_t>& request,
    PirBatchCollector* collector, size_t slot) {
  frame_clock_.fetch_add(1, std::memory_order_relaxed);
  RequestOutcome outcome;
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    outcome = ErrorOutcome(0, frame.status());
  } else {
    // Any decodable frame naming a registered session counts as activity
    // for the idle-expiry sweep, whatever its kind: PIR- or top-k-only
    // sessions must not lose their registered key mid-stream.
    sessions_.Touch(frame->session_id,
                    frame_clock_.load(std::memory_order_relaxed));
    switch (frame->kind) {
      case FrameKind::kHello:
        outcome = HandleHello(engines, *frame);
        break;
      case FrameKind::kQuery:
        outcome = HandleQuery(engines, *frame);
        break;
      case FrameKind::kPirQuery:
        outcome = HandlePirQuery(engines, *frame, collector, slot);
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
    const EpochEngines& engines, const Frame& frame) {
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
  // The hello-ok advertises the retrieval topology: a client on a sharded
  // server must know shard_count and bucket_count to address PIR
  // executions (and to know it has to query every shard).
  outcome.response =
      EncodeFrame(FrameKind::kHelloOk, frame.session_id,
                  EncodeHelloOk(engines.advertised_shards, bucket_count_));
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
  // The sharded engine's merged candidate set is bit-identical to the
  // monolithic server's, so the encoded response frame does not depend on
  // the shard configuration.
  auto result = engines.sharded_pr != nullptr
                    ? engines.sharded_pr->Process(*query, pk, &costs)
                    : engines.pr->Process(*query, pk, &costs);
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
    const EpochEngines& engines, const Frame& frame,
    PirBatchCollector* collector, size_t slot) {
  auto payload = DecodePirQuery(frame.payload);
  if (!payload.ok()) return ErrorOutcome(frame.session_id, payload.status());

  // When sharded, the frame's bucket field is shard-qualified:
  // shard * bucket_count + bucket (see PirBucketField).
  const bool sharded = engines.sharded_pir != nullptr;
  if (sharded && bucket_count_ == 0) {
    return ErrorOutcome(frame.session_id,
                        Status::OutOfRange("server has no buckets"));
  }
  // UINT32_MAX is the encoder's saturation sentinel for a shard-qualified
  // field that overflowed the u32 wire width; reject it even when it would
  // decode to an in-range pair, so an overflowed address can never alias.
  if (sharded && payload->bucket == UINT32_MAX) {
    return ErrorOutcome(
        frame.session_id,
        Status::OutOfRange("shard-qualified bucket field saturated"));
  }
  const size_t shard = sharded ? payload->bucket / bucket_count_ : 0;
  const size_t bucket = sharded ? payload->bucket % bucket_count_
                                : payload->bucket;
  if (sharded && shard >= engines.sharded_pir->shard_count()) {
    return ErrorOutcome(
        frame.session_id,
        Status::OutOfRange("shard-qualified bucket out of range"));
  }

  RequestOutcome outcome;
  // Batched dispatch: park the decoded query; the batch's phase 2 answers
  // every parked query of this shard in one shared sweep and fills the
  // response slot then. The collector mutex guards only this queue
  // admission — no answer compute happens under any server-level lock.
  if (collector != nullptr) {
    std::lock_guard<std::mutex> lock(collector->mu);
    collector->pending.push_back(PendingPir{slot, frame.session_id, shard,
                                            bucket, std::move(*payload)});
    outcome.deferred = true;
    return outcome;
  }

  core::RetrievalCosts costs;
  // The engines' lazy bucket-matrix caches are internally synchronized, so
  // the single-frame path computes without any external lock.
  Result<crypto::PirResponse> response =
      sharded ? engines.sharded_pir->Answer(shard, bucket, payload->query,
                                            &costs)
              : engines.pir->Answer(bucket, payload->query, &costs);
  if (!response.ok()) return ErrorOutcome(frame.session_id, response.status());

  outcome.response = EncodeFrame(FrameKind::kPirResult, frame.session_id,
                                 EncodePirResponse(*response));
  outcome.delta.pir_queries = 1;
  outcome.delta.server_cpu_ms = costs.server_cpu_ms;
  outcome.delta.server_io_ms = costs.server_io_ms;
  return outcome;
}

void EmbellishServer::AnswerDeferredPir(
    const EpochEngines& engines, PirBatchCollector& collector,
    std::vector<std::vector<uint8_t>>* responses) {
  if (collector.pending.empty()) return;

  // Group the batch's deferred queries by shard (the epoch half of the
  // (epoch, shard) key is constant: the whole batch answers against one
  // pinned snapshot). Deterministic order; arrival order within a group is
  // whatever dispatch produced, which is fine — every slot is addressed
  // explicitly.
  std::map<size_t, std::vector<size_t>> by_shard;
  for (size_t i = 0; i < collector.pending.size(); ++i) {
    by_shard[collector.pending[i].shard].push_back(i);
  }
  std::vector<std::pair<size_t, std::vector<size_t>>> groups;
  groups.reserve(by_shard.size());
  for (auto& [shard, indices] : by_shard) {
    groups.emplace_back(shard, std::move(indices));
  }

  // Finish one deferred query: frame its flat answer for the requesting
  // session and account the downlink the dispatch pass could not see.
  auto finalize = [&](const PendingPir& p, const crypto::PirResponse& response,
                      ServerStats* delta) {
    (*responses)[p.slot] = EncodeFrame(FrameKind::kPirResult, p.session_id,
                                       EncodePirResponse(response));
    delta->pir_queries += 1;
    delta->downlink_bytes += (*responses)[p.slot].size();
  };

  auto answer_group = [&](size_t gbegin, size_t gend) {
    common::ScopedAnswerPath answer_path;
    for (size_t g = gbegin; g < gend; ++g) {
      const size_t shard = groups[g].first;
      const std::vector<size_t>& indices = groups[g].second;
      std::vector<core::PirBatchItem> items;
      items.reserve(indices.size());
      for (size_t i : indices) {
        items.push_back(core::PirBatchItem{collector.pending[i].bucket,
                                           &collector.pending[i].payload.query});
      }
      ServerStats delta;
      core::RetrievalCosts costs;
      crypto::PirBatchStats stats;
      auto batch =
          engines.sharded_pir != nullptr
              ? engines.sharded_pir->AnswerBatch(shard, items, &costs, &stats)
              : engines.pir->AnswerBatch(items, &costs, &stats);
      if (batch.ok()) {
        for (size_t j = 0; j < indices.size(); ++j) {
          finalize(collector.pending[indices[j]], (*batch)[j], &delta);
        }
        delta.pir_batch_sweeps = stats.sweeps;
        delta.pir_batched_queries = stats.queries;
        delta.pir_batch_budget_splits = stats.budget_splits;
      } else {
        // The shared sweep is all-or-nothing per group; re-answer each
        // member serially so one malformed query yields one error frame
        // instead of poisoning its whole group.
        costs = core::RetrievalCosts{};
        for (size_t i : indices) {
          PendingPir& p = collector.pending[i];
          auto single =
              engines.sharded_pir != nullptr
                  ? engines.sharded_pir->Answer(shard, p.bucket,
                                                p.payload.query, &costs)
                  : engines.pir->Answer(p.bucket, p.payload.query, &costs);
          if (single.ok()) {
            finalize(p, *single, &delta);
          } else {
            (*responses)[p.slot] = EncodeFrame(FrameKind::kError, p.session_id,
                                               EncodeError(single.status()));
            delta.errors += 1;
            delta.downlink_bytes += (*responses)[p.slot].size();
          }
        }
      }
      delta.server_cpu_ms += costs.server_cpu_ms;
      delta.server_io_ms += costs.server_io_ms;
      MergeDelta(delta);
    }
  };
  // Distinct shards touch distinct engines, so groups answer concurrently;
  // each group's intra-sweep row parallelism still arrives through the
  // engines' own nested pool regions.
  if (pool_ != nullptr && groups.size() > 1) {
    pool_->ParallelFor(0, groups.size(), /*min_grain=*/1, answer_group);
  } else {
    answer_group(0, groups.size());
  }
}

EmbellishServer::RequestOutcome EmbellishServer::HandleTopK(
    const EpochEngines& engines, const Frame& frame) {
  auto query = DecodeTopKQuery(frame.payload);
  if (!query.ok()) return ErrorOutcome(frame.session_id, query.status());

  RequestOutcome outcome;
  CpuStopwatch cpu;
  std::vector<index::ScoredDoc> top;
  if (engines.sharded_pr != nullptr) {
    // Epoch-aware fan-out with impact-bound shard skipping: shards whose
    // stored bound proves them outside the top k are never visited, and
    // the result bytes are still bit-identical to the monolithic
    // evaluation (the skip guard is strict; see EvaluateTopKEpoch).
    index::EvalStats eval_stats;
    top = index::EvaluateTopKEpoch(*engines.epoch, query->terms, query->k,
                                   pool_, &eval_stats,
                                   options_.shard_threads);
    outcome.delta.topk_shards_visited = eval_stats.shards_visited;
    outcome.delta.topk_shards_skipped = eval_stats.shards_skipped;
  } else {
    // Full accumulation, not Figure 10 early termination: wire responses
    // must be configuration-independent so a coordinator merge over slice
    // servers is bit-identical to any monolithic answer, and the
    // early-terminated scores are order-dependent lower bounds.
    top = index::EvaluateFull(*engines.serve_index, query->terms);
    if (top.size() > query->k) top.resize(query->k);
    outcome.delta.topk_shards_visited = 1;
  }
  outcome.response = EncodeFrame(FrameKind::kTopKResult, frame.session_id,
                                 EncodeTopKResult(top));
  outcome.delta.topk_queries = 1;
  outcome.delta.server_cpu_ms = cpu.ElapsedMillis();
  return outcome;
}

}  // namespace embellish::server
