#include "server/shard_coordinator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <utility>

#include "common/strings.h"
#include "core/private_retrieval.h"
#include "core/wire_format.h"
#include "index/sharding.h"
#include "server/io_util.h"

namespace embellish::server {

namespace {

// Seed of the breaker re-admission probe draw. The draw only spreads probes
// over time, so one fixed seed serves every coordinator.
constexpr uint64_t kProbeSeed = 0x9E3779B97F4A7C15ull;

// The single-transport-per-slice constructor is sugar for one-replica
// groups.
std::vector<std::vector<ShardTransport*>> SingleReplicaGroups(
    std::vector<ShardTransport*> transports) {
  std::vector<std::vector<ShardTransport*>> groups;
  groups.reserve(transports.size());
  for (ShardTransport* t : transports) {
    groups.push_back(std::vector<ShardTransport*>{t});
  }
  return groups;
}

}  // namespace

ShardCoordinator::ShardCoordinator(std::vector<ShardTransport*> transports,
                                   const ShardCoordinatorOptions& options,
                                   ThreadPool* pool)
    : ShardCoordinator(SingleReplicaGroups(std::move(transports)), options,
                       pool) {}

ShardCoordinator::SliceSet::SliceSet(
    std::vector<std::vector<ShardTransport*>> groups)
    : replicas(std::move(groups)) {
  failures.reserve(replicas.size());
  for (const auto& group : replicas) failures.emplace_back(group.size());
}

ShardCoordinator::ShardCoordinator(
    std::vector<std::vector<ShardTransport*>> replica_groups,
    const ShardCoordinatorOptions& options, ThreadPool* pool)
    : options_(options),
      pool_(pool),
      slices_(std::make_shared<SliceSet>(std::move(replica_groups))),
      probe_rng_(kProbeSeed),
      epoch_(options.epoch),
      sessions_(options.max_sessions, options.session_idle_frames) {}

ShardCoordinator::~ShardCoordinator() {
  // Attempts orphaned by an answered trip (late hedge losers, abandoned
  // failovers) complete later on the transports' loop threads and touch
  // breakers/counters; they must all land before members die.
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

ShardCoordinator::SliceSetPtr ShardCoordinator::CurrentSlices() const {
  std::lock_guard<std::mutex> lock(slices_mu_);
  return slices_;
}

size_t ShardCoordinator::shard_count() const {
  return CurrentSlices()->replicas.size();
}

size_t ShardCoordinator::replica_count(size_t shard) const {
  return CurrentSlices()->replicas[shard].size();
}

size_t ShardCoordinator::bucket_count() const {
  return CurrentSlices()->bucket_count.load(std::memory_order_acquire);
}

size_t ShardCoordinator::session_count() const { return sessions_.size(); }

CoordinatorStats ShardCoordinator::stats() const {
  CoordinatorStats snapshot;
  snapshot.frames = counters_.frames.load(std::memory_order_relaxed);
  snapshot.hellos = counters_.hellos.load(std::memory_order_relaxed);
  snapshot.queries = counters_.queries.load(std::memory_order_relaxed);
  snapshot.pir_queries =
      counters_.pir_queries.load(std::memory_order_relaxed);
  snapshot.topk_queries =
      counters_.topk_queries.load(std::memory_order_relaxed);
  snapshot.errors = counters_.errors.load(std::memory_order_relaxed);
  snapshot.shard_trips =
      counters_.shard_trips.load(std::memory_order_relaxed);
  snapshot.shard_failures =
      counters_.shard_failures.load(std::memory_order_relaxed);
  snapshot.sessions_expired = sessions_.expired_total();
  snapshot.retries = counters_.retries.load(std::memory_order_relaxed);
  snapshot.hedges_fired =
      counters_.hedges_fired.load(std::memory_order_relaxed);
  snapshot.hedge_wins = counters_.hedge_wins.load(std::memory_order_relaxed);
  snapshot.failovers = counters_.failovers.load(std::memory_order_relaxed);
  snapshot.degraded_answers =
      counters_.degraded_answers.load(std::memory_order_relaxed);
  snapshot.epoch_swaps =
      counters_.epoch_swaps.load(std::memory_order_relaxed);
  snapshot.deferred_repairs =
      counters_.deferred_repairs.load(std::memory_order_relaxed);
  snapshot.blocking_io_trips =
      counters_.blocking_io_trips.load(std::memory_order_relaxed);
  snapshot.async_io_trips =
      counters_.async_io_trips.load(std::memory_order_relaxed);
  snapshot.trip_micros = counters_.trip_micros.load(std::memory_order_relaxed);
  return snapshot;
}

std::vector<uint8_t> ShardCoordinator::ErrorFrame(uint64_t session_id,
                                                  const Status& status) {
  Count(&AtomicStats::errors);
  return EncodeFrame(FrameKind::kError, session_id, EncodeError(status));
}

std::vector<uint8_t> ShardCoordinator::PassThroughError(
    uint64_t session_id, const std::vector<uint8_t>& payload) {
  Count(&AtomicStats::errors);
  return EncodeFrame(FrameKind::kError, session_id, payload);
}

std::vector<uint8_t> ShardCoordinator::BuildShardRequest(
    size_t shard, uint64_t seq, const std::vector<uint8_t>& inner) {
  return EncodeFrame(
      FrameKind::kShardRequest, 0,
      EncodeShardEnvelope(shard, epoch_.load(std::memory_order_acquire), seq,
                          inner));
}

Result<Frame> ShardCoordinator::SettleReplicaTrip(
    SliceSet& set, size_t shard, size_t replica, uint64_t seq,
    Result<std::vector<uint8_t>> response) {
  std::atomic<uint32_t>& breaker = set.failures[shard][replica];
  auto fail = [&](Status status) -> Result<Frame> {
    Count(&AtomicStats::shard_failures);
    breaker.fetch_add(1, std::memory_order_relaxed);
    return status;
  };

  if (!response.ok()) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu transport: %s", shard,
        response.status().ToString().c_str())));
  }
  auto outer = DecodeFrame(*response);
  if (!outer.ok()) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu returned a corrupt frame: %s", shard,
        outer.status().ToString().c_str())));
  }
  if (outer->kind == FrameKind::kError) {
    // An error outside any envelope: the endpoint rejected the envelope
    // itself (fencing, misrouting, corruption on its side of the wire).
    Status transported;
    if (!DecodeError(outer->payload, &transported).ok()) {
      transported = Status::Corruption("undecodable shard error payload");
    }
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu refused the request: %s", shard,
        transported.ToString().c_str())));
  }
  if (outer->kind != FrameKind::kShardResponse) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu answered with frame kind %u, not a shard response", shard,
        static_cast<unsigned>(outer->kind))));
  }
  auto envelope = DecodeShardEnvelope(outer->payload);
  if (!envelope.ok()) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu response envelope: %s", shard,
        envelope.status().ToString().c_str())));
  }
  // The echo is what catches misrouted, stale-coordinator and reordered
  // responses before any bytes reach a merge. The epoch is read at
  // validation time, not send time: a response that raced an AdvanceEpoch
  // cutover carries the superseded epoch and is refused here — the fence
  // that keeps pre-cutover answers out of post-cutover merges.
  const uint64_t fencing_epoch = epoch_.load(std::memory_order_acquire);
  if (envelope->shard_id != shard || envelope->epoch != fencing_epoch ||
      envelope->seq != seq) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu response envelope mismatch (shard %zu epoch %llu seq "
        "%llu; expected %zu/%llu/%llu)",
        shard, envelope->shard_id,
        static_cast<unsigned long long>(envelope->epoch),
        static_cast<unsigned long long>(envelope->seq), shard,
        static_cast<unsigned long long>(fencing_epoch),
        static_cast<unsigned long long>(seq))));
  }
  auto inner_frame = DecodeFrame(envelope->inner);
  if (!inner_frame.ok()) {
    return fail(Status::Unavailable(StringPrintf(
        "shard %zu inner frame: %s", shard,
        inner_frame.status().ToString().c_str())));
  }
  // Any validated response closes the replica's breaker: the channel works
  // end to end, even if the shard answered an application-level error.
  breaker.store(0, std::memory_order_relaxed);
  return inner_frame;
}

std::vector<size_t> ShardCoordinator::ReplicaOrder(const SliceSet& set,
                                                   size_t shard) {
  const size_t n = set.replicas[shard].size();
  std::vector<size_t> closed;
  std::vector<size_t> open;
  for (size_t r = 0; r < n; ++r) {
    const bool broken =
        options_.breaker_threshold > 0 &&
        set.failures[shard][r].load(std::memory_order_relaxed) >=
            options_.breaker_threshold;
    (broken ? open : closed).push_back(r);
  }
  // Probe re-admission: occasionally front one circuit-open replica so a
  // healed replica sees traffic again and can close its breaker. When every
  // replica is open there is nothing to protect — just try them all.
  if (!open.empty() && !closed.empty() && options_.probe_probability > 0) {
    bool probe;
    {
      std::lock_guard<std::mutex> lock(probe_mu_);
      probe = probe_rng_.Bernoulli(options_.probe_probability);
    }
    if (probe) {
      closed.insert(closed.begin(), open.front());
      open.erase(open.begin());
    }
  }
  closed.insert(closed.end(), open.begin(), open.end());
  return closed;
}

void ShardCoordinator::ReplicaTrip(const SliceSetPtr& set, size_t shard,
                                   size_t replica,
                                   const std::vector<uint8_t>& inner,
                                   std::function<void(Result<Frame>)> done) {
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> request = BuildShardRequest(shard, seq, inner);
  ShardTransport* transport = set->replicas[shard][replica];
  Count(&AtomicStats::shard_trips);
  // A transport without a native submit completes the attempt inline, on
  // this thread, through its blocking RoundTrip.
  Count(transport->SupportsAsyncSubmit() ? &AtomicStats::async_io_trips
                                         : &AtomicStats::blocking_io_trips);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++outstanding_;
  }
  const auto start = std::chrono::steady_clock::now();
  transport->SubmitRoundTrip(
      request, [this, set, shard, replica, seq, start, done = std::move(done)](
                   Result<std::vector<uint8_t>> response) {
        counters_.trip_micros.fetch_add(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            std::memory_order_relaxed);
        done(SettleReplicaTrip(*set, shard, replica, seq,
                               std::move(response)));
        std::lock_guard<std::mutex> lock(drain_mu_);
        if (--outstanding_ == 0) drain_cv_.notify_all();
      });
}

namespace {
// Attempt provenance for the fan-out's stats accounting.
enum AttemptKind : int {
  kPrimaryAttempt = 0,
  kHedgeAttempt = 1,
  kFailoverAttempt = 2,
};
}  // namespace

std::vector<Result<Frame>> ShardCoordinator::FanOutShards(
    const SliceSetPtr& set, const std::vector<size_t>& shards,
    const std::vector<uint8_t>& inner) {
  // One logical trip per slice, all primaries submitted before anything is
  // awaited: over multiplexed transports N round trips are in flight and
  // zero threads are parked on sockets. Every attempt has its own seq, so
  // failovers (resubmitted from the completion callback) and hedges (fired
  // from this awaiting thread at their monotonic deadlines) can never have
  // a response merged into the wrong trip.
  struct Trip {
    size_t shard = 0;
    std::vector<size_t> order;
    size_t next_idx = 0;  // next failover candidate in `order`
    size_t budget = 0;
    size_t outstanding = 0;  // attempts in flight
    bool done = false;
    bool hedge_armed = false;  // a hedge may still fire at hedge_deadline_ms
    int64_t hedge_deadline_ms = 0;
    bool primary_failed = false;
    Result<Frame> result{Status::Internal("shard not contacted")};
  };
  struct Fan {
    std::mutex mu;
    std::condition_variable cv;
    size_t open = 0;
    std::vector<Trip> trips;
  };
  auto fan = std::make_shared<Fan>();
  fan->trips.resize(shards.size());

  const bool hedging = options_.hedge_delay_ms >= 0;
  const int64_t hedge_deadline = MonotonicMillis() + options_.hedge_delay_ms;
  for (size_t i = 0; i < shards.size(); ++i) {
    Trip& trip = fan->trips[i];
    trip.shard = shards[i];
    trip.order = ReplicaOrder(*set, trip.shard);
    if (trip.order.empty()) {
      Count(&AtomicStats::shard_failures);
      trip.done = true;
      trip.result = Status::Unavailable(
          StringPrintf("slice %zu has no replica transports", trip.shard));
      continue;
    }
    trip.budget = options_.max_attempts == 0
                      ? trip.order.size()
                      : std::min(options_.max_attempts, trip.order.size());
    trip.next_idx = 1;
    trip.hedge_armed = hedging && trip.budget >= 2;
    trip.hedge_deadline_ms = hedge_deadline;
    ++fan->open;
  }

  // submit/on_result recurse into each other (a failover submission's
  // completion settles through on_result again), so both live behind
  // shared_ptrs the completions capture — but on_result holds submit only
  // weakly, or the mutual capture would be a shared_ptr cycle that leaks
  // the fan. The weak lock cannot fail when it matters: a resubmission
  // only happens while its trip is open, and open > 0 pins this function
  // (whose local `submit` owns the target) in the await loop below.
  // `inner` is captured by reference for the same reason: the caller
  // cannot return — and pop its frame — until open == 0.
  auto submit =
      std::make_shared<std::function<void(size_t, int, size_t)>>();
  auto on_result =
      std::make_shared<std::function<void(size_t, int, Result<Frame>)>>();
  std::weak_ptr<std::function<void(size_t, int, size_t)>> weak_submit =
      submit;

  *submit = [this, set, fan, on_result, &inner](size_t t, int kind,
                                                size_t replica) {
    ReplicaTrip(set, fan->trips[t].shard, replica, inner,
                [on_result, t, kind](Result<Frame> r) {
                  (*on_result)(t, kind, std::move(r));
                });
  };

  *on_result = [this, fan, weak_submit](size_t t, int kind,
                                        Result<Frame> r) {
    size_t resubmit_replica = 0;
    bool resubmit = false;
    {
      std::lock_guard<std::mutex> lock(fan->mu);
      Trip& trip = fan->trips[t];
      --trip.outstanding;
      if (trip.done) return;  // late loser: breaker already settled, drop
      if (r.ok()) {
        if (kind == kHedgeAttempt) {
          Count(&AtomicStats::hedge_wins);
          if (trip.primary_failed) Count(&AtomicStats::failovers);
        } else if (kind == kFailoverAttempt) {
          Count(&AtomicStats::failovers);
        }
        trip.done = true;
        trip.result = std::move(r);
        --fan->open;
        fan->cv.notify_all();
        return;
      }
      if (kind == kPrimaryAttempt) trip.primary_failed = true;
      trip.result = std::move(r);  // latest failure, surfaced if all fail
      if (trip.next_idx < trip.budget) {
        resubmit_replica = trip.order[trip.next_idx++];
        ++trip.outstanding;
        resubmit = true;
        Count(&AtomicStats::retries);
      } else {
        trip.hedge_armed = false;  // nothing left for a hedge to try
        if (trip.outstanding == 0) {
          trip.done = true;
          --fan->open;
          fan->cv.notify_all();
        }
      }
    }
    // Outside fan->mu: the submission may complete inline (e.g. a
    // disconnected transport fails it on the spot) and re-enter on_result.
    if (resubmit) {
      if (auto s = weak_submit.lock()) (*s)(t, kFailoverAttempt, resubmit_replica);
    }
  };

  for (size_t i = 0; i < fan->trips.size(); ++i) {
    Trip& trip = fan->trips[i];
    if (trip.done) continue;
    {
      std::lock_guard<std::mutex> lock(fan->mu);
      ++trip.outstanding;
    }
    (*submit)(i, kPrimaryAttempt, trip.order[0]);
  }

  // Await all trips, firing due hedges: this is the ONLY blocked thread of
  // the whole fan-out.
  std::unique_lock<std::mutex> lock(fan->mu);
  while (fan->open > 0) {
    int64_t next_deadline = INT64_MAX;
    for (const Trip& trip : fan->trips) {
      if (!trip.done && trip.hedge_armed) {
        next_deadline = std::min(next_deadline, trip.hedge_deadline_ms);
      }
    }
    if (next_deadline == INT64_MAX) {
      fan->cv.wait(lock);
      continue;
    }
    const int64_t now = MonotonicMillis();
    if (now < next_deadline) {
      fan->cv.wait_for(lock, std::chrono::milliseconds(next_deadline - now));
      continue;  // re-evaluate: trips may have landed meanwhile
    }
    std::vector<std::pair<size_t, size_t>> fires;  // (trip, replica)
    for (size_t i = 0; i < fan->trips.size(); ++i) {
      Trip& trip = fan->trips[i];
      if (trip.done || !trip.hedge_armed || trip.hedge_deadline_ms > now) {
        continue;
      }
      trip.hedge_armed = false;
      if (trip.next_idx < trip.budget) {
        const size_t replica = trip.order[trip.next_idx++];
        ++trip.outstanding;
        Count(&AtomicStats::hedges_fired);
        fires.emplace_back(i, replica);
      }
    }
    lock.unlock();
    for (const auto& [t, replica] : fires) {
      (*submit)(t, kHedgeAttempt, replica);
    }
    lock.lock();
  }

  std::vector<Result<Frame>> out;
  out.reserve(fan->trips.size());
  for (Trip& trip : fan->trips) out.push_back(std::move(trip.result));
  return out;
}

std::vector<Result<Frame>> ShardCoordinator::FanOut(
    const SliceSetPtr& set, const std::vector<uint8_t>& inner) {
  std::vector<size_t> all(set->replicas.size());
  for (size_t s = 0; s < all.size(); ++s) all[s] = s;
  return FanOutShards(set, all, inner);
}

std::vector<std::vector<Result<Frame>>> ShardCoordinator::FanOutAllReplicas(
    const SliceSetPtr& set, const std::vector<uint8_t>& inner) {
  // Registration and pings want an answer from EVERY replica, so there is
  // no failover or hedging — just every (slice, replica) attempt in flight
  // at once and one awaiting thread.
  struct Fan {
    std::mutex mu;
    std::condition_variable cv;
    size_t open = 0;
    std::vector<std::vector<Result<Frame>>> out;
  };
  const auto& replicas = set->replicas;
  auto fan = std::make_shared<Fan>();
  fan->out.resize(replicas.size());
  size_t total = 0;
  for (size_t s = 0; s < replicas.size(); ++s) {
    fan->out[s].assign(replicas[s].size(),
                       Result<Frame>(Status::Internal("replica not contacted")));
    total += replicas[s].size();
  }
  fan->open = total;
  for (size_t s = 0; s < replicas.size(); ++s) {
    for (size_t r = 0; r < replicas[s].size(); ++r) {
      ReplicaTrip(set, s, r, inner, [fan, s, r](Result<Frame> result) {
        std::lock_guard<std::mutex> lock(fan->mu);
        fan->out[s][r] = std::move(result);
        if (--fan->open == 0) fan->cv.notify_all();
      });
    }
  }
  std::unique_lock<std::mutex> lock(fan->mu);
  fan->cv.wait(lock, [&fan] { return fan->open == 0; });
  return std::move(fan->out);
}

Status ShardCoordinator::Handshake() { return HandshakeSet(CurrentSlices()); }

Status ShardCoordinator::HandshakeSet(const SliceSetPtr& set) {
  // Lock-free fast path: once handshaken, per-request checks cost one
  // acquire load instead of contending a mutex across batch workers.
  if (set->handshaken.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(handshake_mu_);
  if (set->handshaken.load(std::memory_order_relaxed)) return Status::OK();
  if (set->replicas.empty()) {
    return Status::InvalidArgument("coordinator has no shard transports");
  }
  // Ping every replica (an empty inner frame): a slice is usable if at
  // least one answers, and every replica that does answer must advertise
  // the same topology. A misconfigured replica (wrong shard count,
  // divergent buckets) is a deployment error worth failing loudly on, not
  // failing over past.
  std::vector<std::vector<Result<Frame>>> pongs = FanOutAllReplicas(set, {});
  size_t bucket_count = 0;
  bool bucket_known = false;
  for (size_t s = 0; s < pongs.size(); ++s) {
    if (pongs[s].empty()) {
      return Status::InvalidArgument(
          StringPrintf("slice %zu has no replica transports", s));
    }
    bool slice_ok = false;
    Status first_failure;
    for (const Result<Frame>& pong : pongs[s]) {
      if (!pong.ok()) {
        if (first_failure.ok()) first_failure = pong.status();
        continue;
      }
      if (pong->kind != FrameKind::kHelloOk) {
        return Status::Unavailable(StringPrintf(
            "shard %zu answered the ping with frame kind %u", s,
            static_cast<unsigned>(pong->kind)));
      }
      EMB_ASSIGN_OR_RETURN(HelloOkPayload topology,
                           DecodeHelloOk(pong->payload));
      // A coordinator shard must serve exactly one slice: PIR bucket fields
      // are rewritten to shard-local addresses, which a server advertising
      // more shards would read as shard-qualified.
      if (topology.shard_count != 1) {
        return Status::FailedPrecondition(StringPrintf(
            "shard %zu serves %zu shards; coordinator shards must each serve "
            "one slice", s, topology.shard_count));
      }
      if (!bucket_known) {
        bucket_count = topology.bucket_count;
        bucket_known = true;
      } else if (topology.bucket_count != bucket_count) {
        return Status::FailedPrecondition(StringPrintf(
            "shard %zu advertises %zu buckets but shard 0 advertises %zu — "
            "shards must share one bucket organization",
            s, topology.bucket_count, bucket_count));
      }
      slice_ok = true;
    }
    if (!slice_ok) {
      return first_failure.ok()
                 ? Status::Unavailable(StringPrintf(
                       "slice %zu: no replica answered the ping", s))
                 : first_failure;
    }
  }
  set->bucket_count.store(bucket_count, std::memory_order_release);
  set->handshaken.store(true, std::memory_order_release);
  return Status::OK();
}

Status ShardCoordinator::AdvanceEpoch() {
  std::lock_guard<std::mutex> cutover(cutover_mu_);
  return CutOver(CurrentSlices());
}

Status ShardCoordinator::AdvanceEpoch(
    std::vector<std::vector<ShardTransport*>> replica_groups) {
  std::lock_guard<std::mutex> cutover(cutover_mu_);
  return CutOver(std::make_shared<SliceSet>(std::move(replica_groups)));
}

Status ShardCoordinator::CutOver(const SliceSetPtr& set) {
  // Bump first: from this instant every in-flight response stamped with
  // the superseded epoch fails its envelope echo in SettleReplicaTrip and
  // can never be merged. Requests racing the bump see a typed
  // kUnavailable and retry — fencing trades a transient error for the
  // impossibility of merging pre-cutover bytes.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  set->handshaken.store(false, std::memory_order_release);
  counters_.epoch_swaps.fetch_add(1, std::memory_order_relaxed);
  // Verify the (possibly restarted or re-sharded) slice topology under the
  // new epoch before any request traffic relies on it. A topology error
  // fails the cutover, and a new set is then never installed. A slice that
  // refuses the ping right now (a dropped trip, a slice whose partition
  // the catalog does not have yet) does not: the epoch is already bumped,
  // and the set stays unhandshaken, so the next request's Handshake()
  // pings again.
  Status handshake = HandshakeSet(set);
  if (handshake.IsFailedPrecondition() || handshake.IsInvalidArgument()) {
    return handshake;
  }
  if (!handshake.ok()) {
    Count(&AtomicStats::deferred_repairs);
  } else {
    // Re-push slice state: a cutover that restarted a slice server (or
    // swapped in a resharded deployment) wiped its session table;
    // re-offering every registered key keeps established sessions working
    // without a client-visible re-hello. The eager push, before the set is
    // installed, keeps the cutover's cost off the first post-cutover query
    // of every session; a session whose re-hello is refused is left to the
    // query path's ReRegisterOnShards.
    for (const auto& [session_id, pk] : sessions_.Snapshot()) {
      if (!ReRegisterOnShards(set, session_id, *pk)) {
        Count(&AtomicStats::deferred_repairs);
      }
    }
  }
  std::lock_guard<std::mutex> lock(slices_mu_);
  slices_ = set;
  return Status::OK();
}

std::vector<uint8_t> ShardCoordinator::HandleFrame(
    const std::vector<uint8_t>& request) {
  std::vector<uint8_t> response = ProcessOne(request);
  Count(&AtomicStats::frames);
  return response;
}

std::vector<std::vector<uint8_t>> ShardCoordinator::HandleBatch(
    const std::vector<std::vector<uint8_t>>& requests) {
  std::vector<std::vector<uint8_t>> responses(requests.size());
  auto handle_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      responses[i] = ProcessOne(requests[i]);
      Count(&AtomicStats::frames);
    }
  };
  if (pool_ != nullptr && requests.size() > 1) {
    pool_->ParallelFor(0, requests.size(), /*min_grain=*/1, handle_range);
  } else {
    handle_range(0, requests.size());
  }
  return responses;
}

std::vector<uint8_t> ShardCoordinator::ProcessOne(
    const std::vector<uint8_t>& request) {
  frame_clock_.fetch_add(1, std::memory_order_relaxed);
  auto frame = DecodeFrame(request);
  if (!frame.ok()) return ErrorFrame(0, frame.status());
  // Any decodable frame naming a registered session counts as activity for
  // the idle-expiry sweep, whatever its kind.
  sessions_.Touch(frame->session_id,
                  frame_clock_.load(std::memory_order_relaxed));
  // One pin per request: the whole fan-out, its merge and its hello-ok
  // topology come from one slice set, whatever a cutover installs meanwhile.
  const SliceSetPtr set = CurrentSlices();
  // Lazy handshake: a coordinator that cannot reach its shards answers
  // every request with a typed error rather than wedging.
  Status handshake = HandshakeSet(set);
  if (!handshake.ok()) return ErrorFrame(frame->session_id, handshake);
  switch (frame->kind) {
    case FrameKind::kHello:
      return HandleHello(set, *frame, request);
    case FrameKind::kQuery:
      return HandleQuery(set, *frame, request);
    case FrameKind::kPirQuery:
      return HandlePirQuery(set, *frame);
    case FrameKind::kTopKQuery:
      return HandleTopK(set, *frame, request);
    default:
      return ErrorFrame(frame->session_id,
                        Status::InvalidArgument(
                            "frame kind is not a request"));
  }
}

namespace {

// First failed round trip in shard order, for deterministic error frames.
const Status* FirstFailure(const std::vector<Result<Frame>>& responses) {
  for (const Result<Frame>& r : responses) {
    if (!r.ok()) return &r.status();
  }
  return nullptr;
}

// First inner kError in shard order (application-level shard errors pass
// through to the client unchanged).
const Frame* FirstInnerError(const std::vector<Result<Frame>>& responses) {
  for (const Result<Frame>& r : responses) {
    if (r.ok() && r->kind == FrameKind::kError) return &*r;
  }
  return nullptr;
}

}  // namespace

std::vector<uint8_t> ShardCoordinator::HandleHello(
    const SliceSetPtr& set, const Frame& frame,
    const std::vector<uint8_t>& request) {
  auto pk = DecodeHello(frame.payload);
  if (!pk.ok()) return ErrorFrame(frame.session_id, pk.status());
  // Register at the coordinator first (bounded + idle-expiring, same
  // semantics as the server's table). If the downstream fan-out then
  // fails, the registration stays: the self-healing path re-registers the
  // session on any shard that missed it when the next query arrives.
  if (!sessions_.Register(
          frame.session_id,
          std::make_shared<const crypto::BenalohPublicKey>(std::move(*pk)),
          frame_clock_.load(std::memory_order_relaxed))) {
    return ErrorFrame(frame.session_id,
                      Status::FailedPrecondition(
                          "session table full; hello refused"));
  }

  // Forward the hello verbatim to every replica of every slice (each
  // replica keeps its own session table; their per-shard epochs may
  // differ). A slice counts as registered when at least one replica acks —
  // a replica that was down re-learns the session through the self-healing
  // re-registration when it next serves a query for it.
  std::vector<std::vector<Result<Frame>>> groups =
      FanOutAllReplicas(set, request);
  const Status* first_failure = nullptr;
  const Frame* first_inner_error = nullptr;
  size_t first_unexpected = 0;
  bool saw_unexpected = false;
  bool any_slice_failed = false;
  for (size_t s = 0; s < groups.size(); ++s) {
    bool acked = false;
    const Status* slice_failure = nullptr;
    const Frame* slice_inner_error = nullptr;
    for (const Result<Frame>& r : groups[s]) {
      if (!r.ok()) {
        if (slice_failure == nullptr) slice_failure = &r.status();
      } else if (r->kind == FrameKind::kError) {
        if (slice_inner_error == nullptr) slice_inner_error = &*r;
      } else if (r->kind == FrameKind::kHelloOk &&
                 r->session_id == frame.session_id) {
        acked = true;
      }
    }
    if (acked) continue;
    any_slice_failed = true;
    if (slice_failure == nullptr && slice_inner_error == nullptr &&
        !saw_unexpected) {
      saw_unexpected = true;
      first_unexpected = s;
    }
    if (slice_failure != nullptr && first_failure == nullptr) {
      first_failure = slice_failure;
    }
    if (slice_inner_error != nullptr && first_inner_error == nullptr) {
      first_inner_error = slice_inner_error;
    }
  }
  if (any_slice_failed) {
    // Same precedence as the single-replica coordinator: a transport-level
    // failure anywhere outranks an application error, which outranks an
    // unexpected frame kind.
    if (first_failure != nullptr) {
      return ErrorFrame(frame.session_id, *first_failure);
    }
    if (first_inner_error != nullptr) {
      return PassThroughError(frame.session_id, first_inner_error->payload);
    }
    return ErrorFrame(frame.session_id,
                      Status::Unavailable(StringPrintf(
                          "shard %zu answered the hello with an unexpected "
                          "frame", first_unexpected)));
  }
  Count(&AtomicStats::hellos);
  // Advertise the *global* topology: the client addresses PIR executions
  // via shard-qualified bucket fields (PirBucketField).
  return EncodeFrame(
      FrameKind::kHelloOk, frame.session_id,
      EncodeHelloOk(set->replicas.size(),
                    set->bucket_count.load(std::memory_order_acquire)));
}

bool ShardCoordinator::ReRegisterOnShards(
    const SliceSetPtr& set, uint64_t session_id,
    const crypto::BenalohPublicKey& pk) {
  // EncodeHello reproduces the registration payload deterministically from
  // the coordinator's copy of the key, so a shard that lost the session —
  // restart, idle expiry on its side, or a raced re-hello that left it
  // holding a superseded key — converges back to the coordinator's view.
  std::vector<uint8_t> hello =
      EncodeFrame(FrameKind::kHello, session_id, EncodeHello(pk));
  // Offer the key to every replica (a replica that lost it may not be the
  // one the next trip lands on); the repair succeeds if every slice has at
  // least one replica holding the registration again.
  std::vector<std::vector<Result<Frame>>> groups =
      FanOutAllReplicas(set, hello);
  for (size_t s = 0; s < groups.size(); ++s) {
    bool acked = false;
    for (const Result<Frame>& r : groups[s]) {
      if (r.ok() && r->kind == FrameKind::kHelloOk &&
          r->session_id == session_id) {
        acked = true;
        break;
      }
    }
    if (!acked) return false;
  }
  return true;
}

std::vector<uint8_t> ShardCoordinator::HandleQuery(
    const SliceSetPtr& set, const Frame& frame,
    const std::vector<uint8_t>& request) {
  const std::shared_ptr<const crypto::BenalohPublicKey> pk =
      sessions_.Find(frame.session_id).pk;
  if (pk == nullptr) {
    return ErrorFrame(frame.session_id,
                      Status::FailedPrecondition(
                          "session has not sent a hello frame"));
  }

  // Up to two passes: if a shard turns out to have lost (or to hold a
  // superseded copy of) this session's registration — it answers
  // FailedPrecondition, or its partial result fails to decode under the
  // coordinator's key — the session is re-registered from the
  // coordinator's table and the query retried once. One stale shard must
  // not fail the session's queries forever.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool can_repair = attempt == 0;
    std::vector<Result<Frame>> responses = FanOut(set, request);
    // Transport-level failures (after each slice's failover walk): strict
    // mode fails the request on any one; partial mode records the slice as
    // missing and answers from the survivors — unless nothing survived.
    std::vector<uint32_t> missing;
    for (size_t s = 0; s < responses.size(); ++s) {
      if (!responses[s].ok()) missing.push_back(static_cast<uint32_t>(s));
    }
    if (!missing.empty() && (!options_.allow_partial_results ||
                             missing.size() == responses.size())) {
      return ErrorFrame(frame.session_id, *FirstFailure(responses));
    }
    if (const Frame* inner_error = FirstInnerError(responses)) {
      Status transported;
      const bool lost_session =
          DecodeError(inner_error->payload, &transported).ok() &&
          transported.IsFailedPrecondition();
      if (lost_session && can_repair &&
          ReRegisterOnShards(set, frame.session_id, *pk)) {
        continue;
      }
      return PassThroughError(frame.session_id, inner_error->payload);
    }

    std::vector<core::EncryptedResult> partial;
    partial.reserve(responses.size());
    Status decode_failure;
    for (size_t s = 0; s < responses.size() && decode_failure.ok(); ++s) {
      if (!responses[s].ok()) continue;  // missing slice (degraded mode)
      const Frame& inner = *responses[s];
      if (inner.kind != FrameKind::kResult ||
          inner.session_id != frame.session_id) {
        return ErrorFrame(frame.session_id,
                          Status::Unavailable(StringPrintf(
                              "shard %zu answered the query with an "
                              "unexpected frame", s)));
      }
      auto result = core::DecodeResult(inner.payload, *pk);
      if (!result.ok()) {
        decode_failure = Status::Unavailable(StringPrintf(
            "shard %zu result: %s", s, result.status().ToString().c_str()));
        break;
      }
      partial.push_back(std::move(*result));
    }
    if (!decode_failure.ok()) {
      if (can_repair && ReRegisterOnShards(set, frame.session_id, *pk)) {
        continue;
      }
      return ErrorFrame(frame.session_id, decode_failure);
    }

    // The shard merge: shard-disjoint documents re-sorted into canonical
    // (bound, doc) order, bit-identical to the monolithic server's
    // response. With missing slices the same merge over the survivors is
    // still exact over the surviving documents — disjointness means a dead
    // slice removes documents, it cannot corrupt the rest.
    core::EncryptedResult merged =
        core::MergeShardResults(std::move(partial));
    Count(&AtomicStats::queries);
    std::vector<uint8_t> payload_bytes = core::EncodeResult(merged, *pk);
    if (missing.empty()) {
      return EncodeFrame(FrameKind::kResult, frame.session_id, payload_bytes);
    }
    Count(&AtomicStats::degraded_answers);
    return EncodeFrame(
        FrameKind::kDegradedResult, frame.session_id,
        EncodeDegradedResult(FrameKind::kResult, missing, payload_bytes));
  }
  return ErrorFrame(frame.session_id,
                    Status::Internal("unreachable query retry exit"));
}

std::vector<uint8_t> ShardCoordinator::HandlePirQuery(const SliceSetPtr& set,
                                                      const Frame& frame) {
  auto payload = DecodePirQuery(frame.payload);
  if (!payload.ok()) return ErrorFrame(frame.session_id, payload.status());

  const size_t buckets = set->bucket_count.load(std::memory_order_acquire);
  if (buckets == 0) {
    return ErrorFrame(frame.session_id,
                      Status::OutOfRange("server has no buckets"));
  }
  // The bucket field is shard-qualified (PirBucketField): the saturation
  // sentinel is rejected even when it would decode to an in-range pair, so
  // an overflowed address can never alias, and so are shard indexes past
  // the set's slices.
  if (payload->bucket == UINT32_MAX) {
    return ErrorFrame(
        frame.session_id,
        Status::OutOfRange("shard-qualified bucket field saturated"));
  }
  const size_t shard = payload->bucket / buckets;
  const size_t bucket = payload->bucket % buckets;
  if (shard >= set->replicas.size()) {
    return ErrorFrame(frame.session_id,
                      Status::OutOfRange(
                          "shard-qualified bucket out of range"));
  }

  // Rewrite the bucket field to the shard-local address: the slice server
  // is monolithic over its slice.
  std::vector<uint8_t> inner = EncodeFrame(
      FrameKind::kPirQuery, frame.session_id,
      EncodePirQuery(bucket, payload->query));
  Result<Frame> response =
      std::move(FanOutShards(set, std::vector<size_t>{shard}, inner).front());
  if (!response.ok()) {
    return ErrorFrame(frame.session_id, response.status());
  }
  if (response->kind == FrameKind::kError) {
    return PassThroughError(frame.session_id, response->payload);
  }
  if (response->kind != FrameKind::kPirResult ||
      response->session_id != frame.session_id) {
    return ErrorFrame(frame.session_id,
                      Status::Unavailable(StringPrintf(
                          "shard %zu answered the PIR query with an "
                          "unexpected frame", shard)));
  }
  Count(&AtomicStats::pir_queries);
  // The slice's answer is the client's answer (PIR fragments merge on the
  // client); re-frame it under the client's session id.
  return EncodeFrame(FrameKind::kPirResult, frame.session_id,
                     response->payload);
}

std::vector<uint8_t> ShardCoordinator::HandleTopK(
    const SliceSetPtr& set, const Frame& frame,
    const std::vector<uint8_t>& request) {
  auto query = DecodeTopKQuery(frame.payload);
  if (!query.ok()) return ErrorFrame(frame.session_id, query.status());

  std::vector<Result<Frame>> responses = FanOut(set, request);
  std::vector<uint32_t> missing;
  for (size_t s = 0; s < responses.size(); ++s) {
    if (!responses[s].ok()) missing.push_back(static_cast<uint32_t>(s));
  }
  if (!missing.empty() && (!options_.allow_partial_results ||
                           missing.size() == responses.size())) {
    return ErrorFrame(frame.session_id, *FirstFailure(responses));
  }
  if (const Frame* inner_error = FirstInnerError(responses)) {
    return PassThroughError(frame.session_id, inner_error->payload);
  }

  std::vector<std::vector<index::ScoredDoc>> partial;
  partial.reserve(responses.size());
  for (size_t s = 0; s < responses.size(); ++s) {
    if (!responses[s].ok()) continue;  // missing slice (degraded mode)
    const Frame& inner = *responses[s];
    if (inner.kind != FrameKind::kTopKResult ||
        inner.session_id != frame.session_id) {
      return ErrorFrame(frame.session_id,
                        Status::Unavailable(StringPrintf(
                            "shard %zu answered the top-k query with an "
                            "unexpected frame", s)));
    }
    auto docs = DecodeTopKResult(inner.payload);
    if (!docs.ok()) {
      return ErrorFrame(frame.session_id,
                        Status::Unavailable(StringPrintf(
                            "shard %zu top-k result: %s", s,
                            docs.status().ToString().c_str())));
    }
    partial.push_back(std::move(*docs));
  }

  std::vector<index::ScoredDoc> merged =
      index::MergeShardTopK(partial, query->k);
  Count(&AtomicStats::topk_queries);
  std::vector<uint8_t> payload_bytes = EncodeTopKResult(merged);
  if (missing.empty()) {
    return EncodeFrame(FrameKind::kTopKResult, frame.session_id,
                       payload_bytes);
  }
  // Best-effort top-k over the surviving slices: a missing slice can only
  // remove candidates, never reorder the survivors, and the marker tells
  // the client exactly which slices' documents are absent.
  Count(&AtomicStats::degraded_answers);
  return EncodeFrame(
      FrameKind::kDegradedResult, frame.session_id,
      EncodeDegradedResult(FrameKind::kTopKResult, missing, payload_bytes));
}

}  // namespace embellish::server
