// The coordinator that serves a document-partitioned index: it speaks the
// same client-facing framed protocol as an EmbellishServer, but answers by
// fanning requests out to slice servers (one per shard of the catalog's
// partition) over ShardTransports and merging their answers losslessly, so
// its response frames are byte-identical to the monolithic server's.
//
// Downstream protocol (per shard):
//   - every request is wrapped in a kShardRequest envelope carrying the
//     shard id, the coordinator's fencing epoch, and a per-request seq;
//     the shard echoes all three on its kShardResponse, so misrouted,
//     stale-coordinator, reordered or replayed responses are detected
//     instead of silently merged;
//   - an empty inner frame is a ping: Handshake() uses it to verify
//     liveness and learn the shared bucket_count from each shard;
//   - client hellos are forwarded to every shard (each shard registers the
//     session key under its own table).
//
// Request routing:
//   kQuery      fan out to all shards; merge with core::MergeShardResults
//               (core/private_retrieval.h).
//   kTopKQuery  fan out to all shards; merge with index::MergeShardTopK.
//   kPirQuery   route to the one shard the shard-qualified bucket field
//               addresses (shard * bucket_count + bucket), rewriting the
//               field to the shard-local bucket.
//
// Fan-outs overlap: a fan-out submits every one of its attempts through
// ShardTransport::SubmitRoundTrip before awaiting any, so over multiplexed
// transports N round trips are in flight while only the calling thread
// waits. A transport without a native submit (InProcessTransport) completes
// each attempt inline, so the shards of one request then run one after
// another on the calling thread; batches still spread their requests over
// the constructor's pool. Every PR and top-k request fans out: like the
// server, the coordinator caches no responses, because a SessionClient
// encrypts every query afresh and an upstream cache could hit only on a
// replay.
//
// Replication (construct with replica groups): each slice may be served by
// R transports, every one answering with bytes identical to the monolithic
// server's slice response. A logical shard round trip walks the group's
// replicas — healthy (circuit closed) replicas first — failing over on any
// transport-level fault, and may race a hedged duplicate against a slow
// primary on a second replica (options.hedge_delay_ms). Per-replica health
// is a consecutive-failure circuit breaker with probabilistic probe
// re-admission, so a dead replica costs capacity, not availability, and a
// healed one is re-discovered without operator action. Every attempt
// carries its own envelope seq under the coordinator's fencing epoch, so a
// duplicate, late, or stale response can never be merged twice or merged
// wrongly — each logical trip accepts exactly one response, matched by seq.
//
// Slice sets: the transports and their per-replica breakers form one slice
// set, which every request pins for its whole fan-out. AdvanceEpoch(groups)
// cuts over to a new set — after IndexCatalog::Reshard, the slice servers
// of the new partition — and AdvanceEpoch() re-handshakes the current one
// after a delta. A request racing a cutover is fenced by the epoch bump or
// refused by an old slice whose partition the catalog no longer has; both
// reach the client as a typed kUnavailable it can resend.
//
// Failure semantics: any transport failure, corrupt frame, or envelope
// mismatch on a shard round trip (after failover/retry exhausts the
// replica group) yields a typed kError response (usually
// StatusCode::kUnavailable) for the affected request — never a hang, crash,
// or a silent merge over partial results. With
// options.allow_partial_results set, PR and top-k requests whose surviving
// slices can still answer are merged and wrapped in a kDegradedResult frame
// that names the missing slices (documents are shard-disjoint, so the
// partial merge is exact over the surviving documents); PIR requests stay
// strict — the addressed slice either answers or the request errors.
// Application-level errors a shard returns (inner kError frames) pass
// through to the client unchanged. Requests that do not touch a faulted
// shard are unaffected.
//
// The coordinator answers every frame it is given and never refuses work
// for load. To serve sockets, put an AsyncFrontEnd (server/async_frontend.h)
// over HandleBatch: the front end queues, sheds and dispatches frames, and
// its dispatcher threads are what let a fan-out await completions that the
// event loop delivers.

#ifndef EMBELLISH_SERVER_SHARD_COORDINATOR_H_
#define EMBELLISH_SERVER_SHARD_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "server/framing.h"
#include "server/session_table.h"
#include "server/shard_transport.h"

namespace embellish::server {

/// \brief Coordinator construction knobs.
struct ShardCoordinatorOptions {
  /// Seed for the live fencing epoch stamped into every downstream
  /// envelope. A replacement coordinator should start with a higher epoch;
  /// shards then refuse the superseded one. AdvanceEpoch() bumps the live
  /// value at each index cutover.
  uint64_t epoch = 1;

  /// Maximum registered client sessions (the coordinator keeps each
  /// session's public key to decode and re-merge PR results).
  size_t max_sessions = 65536;

  /// Idle-session expiry horizon in handled frames, mirroring
  /// EmbellishServerOptions::session_idle_frames: a registration storm of
  /// throwaway ids must not pin keys (or lock genuine new sessions out)
  /// forever at the coordinator either. 0 disables expiry.
  uint64_t session_idle_frames = 1u << 20;

  /// Attempt budget for one logical shard round trip, counting the first
  /// send: each attempt goes to a different replica of the slice (healthy
  /// ones first), so a transport-level failure fails over instead of
  /// failing the request. 0 — the default — tries each replica once (one
  /// attempt on a single-replica group, which is exactly the pre-replica
  /// behavior); N caps the walk at N replicas.
  size_t max_attempts = 0;

  /// Hedged sends: when >= 0 and the slice has a second usable replica, a
  /// logical round trip whose primary is still outstanding this many
  /// milliseconds after the fan-out began fires a duplicate of the request
  /// to a *different* replica; first valid response wins. The awaiting
  /// thread fires hedges at their deadlines (no pool needed), and every
  /// attempt has its own envelope seq, so the losing duplicate's response
  /// can never be merged — it fails its trip's seq echo by construction. A
  /// primary that fails outright fails over at once instead (a retry, not a
  /// hedge), and a primary on a transport that completes inline has always
  /// landed by the deadline. 0 hedges as soon as the awaiting thread looks
  /// (a two-replica race). Negative — the default — disables hedging.
  int hedge_delay_ms = -1;

  /// Consecutive transport-level failures on one replica that open its
  /// circuit breaker: an open replica is ordered after healthy ones (tried
  /// only when every healthy replica has failed) until a probe re-admits
  /// it. Any success closes the breaker.
  uint32_t breaker_threshold = 3;

  /// Probability that a replica order fronts one circuit-open replica as a
  /// probe, giving a healed replica traffic to close its breaker with. 0
  /// disables probing (an open breaker then only closes via the
  /// everything-open fallback).
  double probe_probability = 0.125;

  /// Opt-in partial results: when a whole replica group is unreachable,
  /// answer PR and top-k requests from the surviving slices, wrapped in a
  /// typed kDegradedResult frame naming the missing slices. Off — the
  /// default — keeps the strict behavior: any unreachable slice fails the
  /// request with a typed error.
  bool allow_partial_results = false;
};

/// \brief Aggregate counters; a consistent snapshot via stats().
struct CoordinatorStats {
  uint64_t frames = 0;
  uint64_t hellos = 0;
  uint64_t queries = 0;
  uint64_t pir_queries = 0;
  uint64_t topk_queries = 0;
  uint64_t errors = 0;
  uint64_t shard_trips = 0;     ///< downstream round trips attempted
  uint64_t shard_failures = 0;  ///< round trips that failed (any layer)
  uint64_t sessions_expired = 0;  ///< idle sessions swept (keys released)
  uint64_t retries = 0;       ///< failover attempts beyond a trip's first send
  uint64_t hedges_fired = 0;  ///< hedged duplicates actually sent
  uint64_t hedge_wins = 0;    ///< logical trips answered by the hedge
  uint64_t failovers = 0;     ///< trips answered by a non-primary replica
  uint64_t degraded_answers = 0;  ///< partial-merge responses produced
  uint64_t epoch_swaps = 0;   ///< AdvanceEpoch cutovers driven
  /// Repairs an AdvanceEpoch cutover left to the request paths: one per
  /// refused re-handshake and one per session whose re-hello some slice did
  /// not ack.
  uint64_t deferred_repairs = 0;
  /// Physical replica attempts on a transport without a native async
  /// submit, each completed inline on the submitting thread. Zero in a
  /// fully multiplexed deployment: N overlapped round trips then pin zero
  /// executor workers on transport I/O.
  uint64_t blocking_io_trips = 0;
  /// Physical replica attempts on a transport with a native async submit
  /// (the submitter returned immediately; the event loop completed the
  /// trip).
  uint64_t async_io_trips = 0;
  /// Summed wall-clock microseconds spent inside physical replica attempts
  /// (submit to completion). trip_micros / wall-clock elapsed is the
  /// in-flight-RTT overlap factor the coordinator bench reports: ~1 means
  /// sequential trips, ~N means N round trips genuinely in flight at once.
  uint64_t trip_micros = 0;
};

/// \brief Client-facing frame loop over remote shards.
class ShardCoordinator {
 public:
  /// \brief `transports[s]` carries shard `s`'s traffic. Every transport
  ///        ever passed to the coordinator — here or to
  ///        AdvanceEpoch(groups) — must outlive it, as must `pool` (may be
  ///        null: serial batches). Equivalent to one single-replica group
  ///        per slice.
  ShardCoordinator(std::vector<ShardTransport*> transports,
                   const ShardCoordinatorOptions& options = {},
                   ThreadPool* pool = nullptr);

  /// \brief Replicated construction: `replica_groups[s]` holds slice `s`'s
  ///        R transports, every replica serving byte-identical answers for
  ///        the slice. Same lifetime rule as above.
  ShardCoordinator(std::vector<std::vector<ShardTransport*>> replica_groups,
                   const ShardCoordinatorOptions& options = {},
                   ThreadPool* pool = nullptr);

  /// \brief Blocks until every in-flight replica attempt has completed
  ///        (late hedge losers and orphaned failover attempts reference
  ///        coordinator state from their completions).
  ~ShardCoordinator();

  /// \brief Pings every replica of every slice of the current set at once:
  ///        verifies at least one replica per slice answers, fences the
  ///        epoch, checks each slice serves exactly one shard, and learns the
  ///        shared bucket_count (every answering replica must agree). Runs
  ///        lazily on the first request if not called; idempotent once it
  ///        has succeeded on the set.
  Status Handshake();

  /// \brief Drives an index cutover from the coordinator's side: bumps the
  ///        fencing epoch — from that instant any in-flight response still
  ///        carrying the superseded epoch fails its envelope echo and can
  ///        never be merged — then re-handshakes the (possibly restarted or
  ///        re-sharded) slice servers and re-pushes every registered
  ///        session's key to every replica, so established sessions survive
  ///        the cutover without a client-visible re-hello. Serialized
  ///        against concurrent AdvanceEpoch calls; concurrent request
  ///        traffic rides through (a request racing the bump may get a
  ///        typed kUnavailable for its fenced trip and simply retries).
  ///        Only a topology error (FailedPrecondition, InvalidArgument)
  ///        fails the cutover. A refused ping or re-hello is left to the
  ///        request paths, counted in CoordinatorStats::deferred_repairs:
  ///        the next request re-handshakes, and a query that finds its
  ///        session lost re-registers it (ReRegisterOnShards).
  Status AdvanceEpoch();

  /// \brief Cuts over to a new slice set, which replaces the current one:
  ///        the steps of AdvanceEpoch() — bump the fencing epoch, handshake
  ///        (learning the shard count from the set's size and checking the
  ///        slices agree on the bucket count), re-push every registered
  ///        session — against `replica_groups`. A topology error from the
  ///        new set (an empty set is InvalidArgument; a slice that serves
  ///        more than one shard or advertises a different bucket count is
  ///        FailedPrecondition) fails the cutover and leaves the current
  ///        set serving. Requests pinned to the old set finish on it; those
  ///        racing the cutover get a typed kUnavailable and resend.
  Status AdvanceEpoch(std::vector<std::vector<ShardTransport*>> replica_groups);

  /// \brief The current fencing epoch stamped into downstream envelopes.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// \brief Same surface as EmbellishServer::HandleFrame — one request
  ///        frame in, always one response frame out.
  std::vector<uint8_t> HandleFrame(const std::vector<uint8_t>& request);

  /// \brief Batch dispatch over the constructor pool; `response[i]` answers
  ///        `requests[i]`, bit-identical to serial handling.
  std::vector<std::vector<uint8_t>> HandleBatch(
      const std::vector<std::vector<uint8_t>>& requests);

  /// \brief Slices of the current set.
  size_t shard_count() const;

  /// \brief Replicas serving slice `shard` of the current set.
  size_t replica_count(size_t shard) const;

  /// \brief Shared bucket count the current set's handshake learned (0
  ///        before).
  size_t bucket_count() const;

  /// \brief The shard-qualified bucket field addressing (shard, bucket). The
  ///        wire field is 32 bits; EncodePirQuery saturates larger values to
  ///        UINT32_MAX, which the coordinator rejects as a reserved sentinel
  ///        — an overflowed address errors instead of aliasing another pair.
  size_t PirBucketField(size_t shard, size_t bucket) const {
    return shard * bucket_count() + bucket;
  }

  size_t session_count() const;
  CoordinatorStats stats() const;

 private:
  // One slice set: replicas[s][r] is replica r of slice s (not owned),
  // failures[s][r] its circuit breaker (consecutive transport-level
  // failures), and the rest what the set's handshake learned. Each request
  // pins the current set for its whole fan-out, and every replica
  // completion holds the set it was sent on, so a late hedge loser settles
  // the breaker it belongs to even after a cutover swapped the set out.
  struct SliceSet {
    explicit SliceSet(std::vector<std::vector<ShardTransport*>> groups);

    const std::vector<std::vector<ShardTransport*>> replicas;
    std::vector<std::vector<std::atomic<uint32_t>>> failures;
    // Lock-free fast path for the per-request handshake check.
    std::atomic<bool> handshaken{false};
    std::atomic<size_t> bucket_count{0};
  };
  using SliceSetPtr = std::shared_ptr<SliceSet>;

  // Pins the current slice set.
  SliceSetPtr CurrentSlices() const;

  // Handshake() against `set` (see there).
  Status HandshakeSet(const SliceSetPtr& set);

  // The cutover both AdvanceEpoch overloads run, under cutover_mu_: bump
  // the epoch, handshake `set`, re-push every session to it, and install
  // it as the current set unless the handshake found a topology error.
  Status CutOver(const SliceSetPtr& set);

  // The envelope for one physical attempt: seq is the per-attempt fencing
  // token SettleReplicaTrip validates against the response echo.
  std::vector<uint8_t> BuildShardRequest(size_t shard, uint64_t seq,
                                         const std::vector<uint8_t>& inner);

  // The response half of one physical attempt: decode, validate the
  // (shard, epoch, seq) echo, decode the inner frame, and settle the
  // replica's circuit breaker (success closes it, failure counts toward
  // breaker_threshold).
  Result<Frame> SettleReplicaTrip(SliceSet& set, size_t shard,
                                  size_t replica, uint64_t seq,
                                  Result<std::vector<uint8_t>> response);

  // One physical round trip to one replica: wrap `inner` for `shard`,
  // submit it on replica `replica`'s transport, and hand `done` the settled
  // outcome — the decoded inner frame (inner kError frames included; the
  // caller decides whether to pass them through) or a typed non-OK status
  // (Unavailable for transport/corruption faults). `done` runs on whatever
  // thread completes the trip (the multiplexer's loop thread, or this one
  // for a transport that completes inline) and must not block. Tracked in
  // outstanding_ so the destructor can drain.
  void ReplicaTrip(const SliceSetPtr& set, size_t shard, size_t replica,
                   const std::vector<uint8_t>& inner,
                   std::function<void(Result<Frame>)> done);

  // One *logical* trip per listed slice, every primary submitted before
  // anything is awaited. Each trip walks ReplicaOrder(shard) — a failed
  // attempt resubmits the next replica from its completion callback, until
  // a replica answers or the attempt budget is spent — and may hedge onto
  // a second replica, fired from the awaiting caller at its deadline. The
  // caller is the only thread the fan-out blocks. out[i] answers shards[i].
  std::vector<Result<Frame>> FanOutShards(const SliceSetPtr& set,
                                          const std::vector<size_t>& shards,
                                          const std::vector<uint8_t>& inner);

  // FanOutShards over every slice, in shard order.
  std::vector<Result<Frame>> FanOut(const SliceSetPtr& set,
                                    const std::vector<uint8_t>& inner);

  // Registration and ping traffic: one attempt per replica of every slice
  // (every replica needs the session key), all in flight at once, no
  // failover or hedging. out[s][r] is replica r's result.
  std::vector<std::vector<Result<Frame>>> FanOutAllReplicas(
      const SliceSetPtr& set, const std::vector<uint8_t>& inner);

  // Replica indices of `shard` in send order: circuit-closed replicas
  // first (ascending, for determinism), circuit-open ones after; with
  // probe_probability, one open replica may be promoted to the front as a
  // re-admission probe.
  std::vector<size_t> ReplicaOrder(const SliceSet& set, size_t shard);

  // Self-healing registration: re-sends the session's hello (rebuilt from
  // the coordinator's own key table) to every shard. True iff every shard
  // acknowledged. Used when a shard turns out to have lost the session —
  // restart, idle expiry on the shard, or a raced re-hello — so one stale
  // shard does not fail the session's queries forever.
  bool ReRegisterOnShards(const SliceSetPtr& set, uint64_t session_id,
                          const crypto::BenalohPublicKey& pk);

  std::vector<uint8_t> ProcessOne(const std::vector<uint8_t>& request);
  std::vector<uint8_t> HandleHello(const SliceSetPtr& set, const Frame& frame,
                                   const std::vector<uint8_t>& request);
  std::vector<uint8_t> HandleQuery(const SliceSetPtr& set, const Frame& frame,
                                   const std::vector<uint8_t>& request);
  std::vector<uint8_t> HandlePirQuery(const SliceSetPtr& set,
                                      const Frame& frame);
  std::vector<uint8_t> HandleTopK(const SliceSetPtr& set, const Frame& frame,
                                  const std::vector<uint8_t>& request);
  std::vector<uint8_t> ErrorFrame(uint64_t session_id, const Status& status);

  // Forwards a shard's application-level error payload to the client
  // unchanged (counted as an error response).
  std::vector<uint8_t> PassThroughError(uint64_t session_id,
                                        const std::vector<uint8_t>& payload);

  // Lock-free counters: shard_trips is bumped once per round trip from
  // every batch worker concurrently, so the stat path must not contend a
  // mutex. stats() assembles a CoordinatorStats snapshot from these.
  struct AtomicStats {
    std::atomic<uint64_t> frames{0};
    std::atomic<uint64_t> hellos{0};
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> pir_queries{0};
    std::atomic<uint64_t> topk_queries{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> shard_trips{0};
    std::atomic<uint64_t> shard_failures{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> hedges_fired{0};
    std::atomic<uint64_t> hedge_wins{0};
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> degraded_answers{0};
    std::atomic<uint64_t> epoch_swaps{0};
    std::atomic<uint64_t> deferred_repairs{0};
    std::atomic<uint64_t> blocking_io_trips{0};
    std::atomic<uint64_t> async_io_trips{0};
    std::atomic<uint64_t> trip_micros{0};
  };

  void Count(std::atomic<uint64_t> AtomicStats::*field) {
    (counters_.*field).fetch_add(1, std::memory_order_relaxed);
  }

  const ShardCoordinatorOptions options_;
  // Spreads HandleBatch's requests; null => serial batches.
  ThreadPool* pool_;

  // The current slice set; replaced (never mutated) by a cutover.
  mutable std::mutex slices_mu_;
  SliceSetPtr slices_;

  // Probe draws for breaker re-admission (fixed seed; serialized — the draw
  // is a few ns against a round trip).
  std::mutex probe_mu_;
  Rng probe_rng_;

  // In-flight replica attempts (submitted, completion not yet returned).
  // The destructor waits for zero: a late hedge loser's completion still
  // runs SettleReplicaTrip against this coordinator.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t outstanding_ = 0;

  std::atomic<uint64_t> seq_{0};

  // The live fencing epoch (seeded from options_.epoch): every downstream
  // envelope stamps the current value, and SettleReplicaTrip validates the
  // echo against the current value too — so an AdvanceEpoch mid-flight
  // fences off the old generation's responses at the merge boundary.
  std::atomic<uint64_t> epoch_;

  // Serializes AdvanceEpoch cutovers (request traffic is not serialized
  // against them — the epoch bump IS the fence).
  std::mutex cutover_mu_;

  // Serializes the (rare) actual handshake attempts.
  std::mutex handshake_mu_;

  // Logical clock for session idle tracking: handled frames.
  std::atomic<uint64_t> frame_clock_{0};

  // Registered client sessions (the coordinator keeps keys to decode and
  // re-merge PR results); bounded and idle-expiring like the server's.
  SessionTable sessions_;

  AtomicStats counters_;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_SHARD_COORDINATOR_H_
