// The EmbellishServer: a request loop tying SearchSession-style clients,
// the framed wire protocol, the inverted index, and the PR/PIR answer
// engines together.
//
// The paper's §5.2 evaluation measures per-query server cost; this subsystem
// is the piece that serves those queries as real traffic. Frames from many
// concurrent sessions are accepted, decoded, dispatched, and answered:
//
//   kHello      registers the session's Benaloh public key,
//   kQuery      runs Algorithm 4 over the inverted index (PR scheme),
//   kPirQuery   runs one Kushilevitz–Ostrovsky execution against one bucket,
//   kTopKQuery  runs a plaintext top-k evaluation (the full-accumulation
//               prefix, so the answer bytes are sharding-independent).
//
// HandleBatch fans a batch of request frames out over the shared ThreadPool.
// The pool is a multi-region work-stealing executor (common/thread_pool.h),
// so the per-request answer engines run on the SAME pool: a batch worker's
// query fans its shards (and the PIR answer kernel its rows) out as nested
// regions, and idle workers steal across regions instead of leaving the
// losers inline. Batches of one or two requests skip the fan-out entirely —
// region bookkeeping costs more than it buys at that size.
//
// No answer is cached: every request is answered by its engine. A
// SessionClient encrypts each query afresh (server/session_client.h), so no
// shipped client sends a PR uplink twice, and every KO-PIR query carries
// fresh random residues; a response cache could hit only on a replay. A
// shared top-k cache would also let one session time whether another had
// recently sent the same query.
//
// Sharding (options.shard_count > 1): the index is document-partitioned
// into N shards (index/sharding.h) and queries are answered by the sharded
// engines (core/sharded_retrieval.h). PR queries fan out across all shards
// on the shared executor — options.shard_threads caps one query's draw on
// the pool — and the merged response frame is bit-identical to the
// monolithic server's. PIR requests address one (shard, bucket) pair: the
// frame's bucket field carries shard * bucket_count + bucket, shards answer
// independently (and concurrently — the engines' lazy matrix caches are
// internally synchronized).
//
// PIR frames are answered where they are decoded: HandleBatch runs each
// decoded kPirQuery through the same Answer call HandleFrame does, against
// the batch's pinned epoch.
//
// Slice mode (options.shard_slice set): the server owns one slice of an
// N-way document partition and behaves as a monolithic server over it —
// the remote-shard deployment, one process per slice behind a
// ShardCoordinator (server/shard_coordinator.h) that merges the slices'
// answers back into the monolithic bytes.
//
// Live index (PR 8): the server serves from an index::IndexCatalog instead
// of raw index pointers. Each HandleFrame/HandleBatch call pins the
// catalog's current IndexEpoch (shared_ptr acquire) and answers the whole
// batch against that immutable snapshot — a background ApplyDelta or
// Reshard installing a successor mid-batch changes nothing the batch can
// observe, and the pinned snapshot cannot be torn down under it. The
// per-epoch answer engines (cheap pointer-bundles) are cached and rebuilt
// only when the epoch advances. The legacy raw-pointer constructor survives
// as a shim wrapping its arguments in a single-frozen-epoch catalog. No
// unpinned index pointer crosses a batch boundary, and no answer-path
// thread ever performs a heavy build (counted: common/answer_path.h).
//
// Every request produces a response frame; malformed or failing requests are
// answered with a kError frame carrying the transported Status, so one
// hostile client cannot take the loop down.

#ifndef EMBELLISH_SERVER_EMBELLISH_SERVER_H_
#define EMBELLISH_SERVER_EMBELLISH_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/pir_retrieval.h"
#include "core/private_retrieval.h"
#include "core/sharded_retrieval.h"
#include "index/epoch.h"
#include "index/sharding.h"
#include "server/framing.h"
#include "server/session_table.h"

namespace embellish::server {

// Fwd-declared so this header stays free of the event-loop stack; include
// server/async_frontend.h to call ServeAsync.
class AsyncFrontEnd;
class EventLoop;
struct AsyncFrontEndOptions;

/// \brief Server construction knobs.
struct EmbellishServerOptions {
  /// Maximum registered sessions. Hellos for fresh session ids beyond this
  /// are refused (existing sessions may always re-register), bounding the
  /// memory a hostile client can pin with throwaway registrations.
  size_t max_sessions = 65536;

  /// Idle-session expiry horizon, in handled frames (a logical clock — the
  /// server has no wall clock of its own). A session whose key has not been
  /// touched for this many frames is swept: superseded and abandoned Benaloh
  /// keys are released instead of staying resident until the id happens to
  /// re-hello, so a registration storm of throwaway ids cannot pin
  /// max_sessions keys forever (and, once the table fills, cannot lock
  /// genuine new sessions out permanently). Sweeps run amortized — on a
  /// hello every kSessionSweepStride hellos, and always before refusing a
  /// fresh id for capacity. 0 disables expiry (sessions live until
  /// overwritten or the server dies).
  uint64_t session_idle_frames = 1u << 20;

  /// Disk model charged per touched bucket (see storage/block_device.h).
  storage::DiskModelOptions disk;

  /// Algorithm 4 execution options.
  core::PrivateRetrievalServerOptions pr;

  /// Document shards. 1 (default) serves the monolithic index unchanged;
  /// N > 1 partitions it per `shard_partition` and answers every query
  /// through the sharded engines. Results stay bit-identical either way.
  size_t shard_count = 1;

  /// How documents map to shards when shard_count > 1.
  index::ShardPartition shard_partition = index::ShardPartition::kDocRange;

  /// Cap on how many of one query's shards are evaluated concurrently on
  /// the shared executor (there is no dedicated shard pool any more: shard
  /// fan-out regions nest inside batch regions on one pool, and idle
  /// workers steal across them). 0 — the default — runs one task per
  /// shard; 1 evaluates a query's shards serially within the handling
  /// thread (batch-level parallelism still touches different shards
  /// concurrently); N caps a single query's draw on the pool so heavy
  /// batch traffic keeps worker headroom. A sharded server constructed
  /// WITHOUT a pool but with shard_threads > 1 spawns an owned executor of
  /// that width and serves everything from it — the pre-executor behavior
  /// (a dedicated shard pool) without the old one-region-at-a-time
  /// collision. Results are bit-identical at any setting.
  size_t shard_threads = 0;

  /// Slice mode: serve exactly shard `shard_slice` of a
  /// `shard_slice_count`-way document partition of the index — the
  /// remote-shard deployment, one process per slice behind a
  /// ShardCoordinator (server/shard_coordinator.h). The server behaves as a
  /// monolithic server over the slice's sub-index: PR queries answer only
  /// the slice's documents, kPirQuery bucket fields are slice-local, and
  /// the hello-ok advertises shard_count 1 (the *coordinator* owns the
  /// global topology). SIZE_MAX (the default) disables slice mode. Mutually
  /// exclusive with shard_count > 1; an invalid slice configuration
  /// (slice >= count, or combined with in-process sharding) falls back to
  /// serving the full index and is flagged by slice_config_invalid() — a
  /// ShardEndpoint refuses to serve such a server.
  size_t shard_slice = SIZE_MAX;

  /// Total slices of the partition `shard_slice` addresses.
  size_t shard_slice_count = 1;

  /// In-flight request budget across HandleFrame/HandleBatch; requests
  /// beyond it are shed with a typed kBusy error frame instead of queueing
  /// without bound — overload degrades into fast refusals the client can
  /// retry, not latency collapse. 0 — the default — disables admission
  /// control.
  size_t max_inflight = 0;
};

/// \brief Aggregate counters; a consistent snapshot is returned by stats().
struct ServerStats {
  uint64_t frames = 0;        ///< requests handled (including malformed)
  uint64_t hellos = 0;        ///< sessions (re-)registered
  uint64_t queries = 0;       ///< PR queries answered
  uint64_t pir_queries = 0;   ///< PIR executions answered
  uint64_t topk_queries = 0;  ///< plaintext top-k queries answered
  uint64_t errors = 0;        ///< kError responses produced
  uint64_t shed = 0;          ///< requests refused with kBusy (admission)
  uint64_t batches = 0;       ///< HandleBatch calls
  uint64_t sessions_expired = 0;  ///< idle sessions swept (keys released)
  /// Always 0: the server caches no responses, since fresh uplinks leave a
  /// cache nothing to hit. Both fields stay because `perfbench` reads them.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  ///< always 0, like cache_hits
  uint64_t uplink_bytes = 0;    ///< request frame bytes accepted
  uint64_t downlink_bytes = 0;  ///< response frame bytes produced
  double server_cpu_ms = 0;     ///< answer-engine CPU
  double server_io_ms = 0;      ///< simulated disk model

  // Live-index counters (snapshotted from the IndexCatalog; the legacy
  // frozen-catalog shim reports zeros for the mutation counters).
  uint64_t epoch_swaps = 0;          ///< successor snapshots installed
  uint64_t delta_docs_ingested = 0;  ///< documents ingested via ApplyDelta
  uint64_t reshard_micros = 0;       ///< background reshard build time
  uint64_t pinned_epochs = 0;        ///< snapshots currently alive
  uint64_t answer_path_builds = 0;   ///< heavy builds on answer threads (0!)

  // Impact-bound shard skipping on the plaintext top-k path.
  uint64_t topk_shards_visited = 0;
  uint64_t topk_shards_skipped = 0;
};

/// \brief Multi-session batched answer server.
class EmbellishServer {
 public:
  /// \brief Serve from a live catalog (not owned; must outlive the server).
  ///        The serving topology — monolithic, sharded, slice — follows
  ///        each pinned epoch: options.shard_count/shard_partition are
  ///        ignored in favor of the catalog's sharding, while
  ///        options.shard_slice selects the slice of the epoch's partition
  ///        to serve (valid while the epoch's shard count matches
  ///        shard_slice_count; a mismatched epoch serves the full index and
  ///        reports slice_config_invalid()). `pool` may be null (HandleBatch
  ///        degrades to a serial loop).
  EmbellishServer(index::IndexCatalog* catalog,
                  const EmbellishServerOptions& options = {},
                  ThreadPool* pool = nullptr);

  /// \brief Legacy frozen-index constructor: wraps the raw pointers in an
  ///        owned single-frozen-epoch IndexCatalog (IndexCatalog::Freeze)
  ///        and serves from that. `layout` may be null (skips I/O
  ///        accounting); `pool` may be null (HandleBatch degrades to a
  ///        serial loop). All pointers must outlive the server. Behavior —
  ///        including sharding via options.shard_count and slice mode — is
  ///        unchanged from the pre-catalog server.
  EmbellishServer(const index::InvertedIndex* index,
                  const core::BucketOrganization* buckets,
                  const storage::StorageLayout* layout,
                  const EmbellishServerOptions& options = {},
                  ThreadPool* pool = nullptr);

  /// \brief Handles one request frame; always returns a response frame
  ///        (kError on any failure, echoing the request's session id when it
  ///        was decodable).
  std::vector<uint8_t> HandleFrame(const std::vector<uint8_t>& request);

  /// \brief Handles a batch of request frames over the thread pool;
  ///        `response[i]` answers `requests[i]`. Responses are bit-identical
  ///        to handling each frame alone — batching changes only the clock.
  std::vector<std::vector<uint8_t>> HandleBatch(
      const std::vector<std::vector<uint8_t>>& requests);

  /// \brief Serves this server's HandleBatch behind an AsyncFrontEnd on
  ///        `loop` (started, outliving the front end): the async request
  ///        loop where no thread blocks on a socket and the response bytes
  ///        are identical to HandleFrame's. Takes ownership of `listen_fd`.
  Result<std::unique_ptr<AsyncFrontEnd>> ServeAsync(int listen_fd,
                                                    EventLoop* loop);
  Result<std::unique_ptr<AsyncFrontEnd>> ServeAsync(
      int listen_fd, EventLoop* loop, const AsyncFrontEndOptions& options);

  /// \brief Number of registered sessions.
  size_t session_count() const;

  /// \brief Shard count of the current epoch's serving topology (1 =
  ///        monolithic; a slice server is monolithic over its slice).
  size_t shard_count() const;

  /// \brief Buckets in the organization this server answers against.
  size_t bucket_count() const { return bucket_count_; }

  /// \brief True when this server serves one slice of a document partition
  ///        (see EmbellishServerOptions::shard_slice) under the current
  ///        epoch.
  bool serves_slice() const;

  /// \brief True when slice mode was requested but the configuration was
  ///        invalid (slice >= count, zero count, combined with in-process
  ///        sharding, or — catalog-backed — an epoch whose partition does
  ///        not match the slice topology), so the server fell back. A
  ///        ShardEndpoint refuses to serve such a server: a misconfigured
  ///        slice behind a coordinator would merge overlapping document
  ///        sets and silently diverge from the monolithic answer, which
  ///        must fail loudly instead.
  bool slice_config_invalid() const;

  /// \brief The catalog this server serves from (the owned shim catalog for
  ///        legacy-constructed servers).
  const index::IndexCatalog& catalog() const { return *catalog_; }

  /// \brief The shard-qualified bucket field a kPirQuery frame must carry
  ///        to address `bucket` on `shard` of this server. The wire field
  ///        is 32 bits; EncodePirQuery saturates larger values to
  ///        UINT32_MAX, which a sharded server rejects as a reserved
  ///        sentinel — an overflowed address errors instead of aliasing
  ///        another pair (relevant only past 2^32 shard*bucket
  ///        combinations).
  size_t PirBucketField(size_t shard, size_t bucket) const {
    return shard * bucket_count_ + bucket;
  }

  ServerStats stats() const;

 private:
  // Per-request counters merged into totals_ under stats_mu_.
  struct RequestOutcome {
    std::vector<uint8_t> response;
    ServerStats delta;
  };

  // Everything one batch needs to answer against one pinned epoch. The
  // snapshot shared_ptr is the FIRST member: every raw pointer below (the
  // engines' internal index/layout pointers included) points into the
  // pinned snapshot, so it can never dangle while the bundle is alive —
  // the satellite-2 fencing: no unpinned index pointer crosses a batch
  // boundary. Engine construction is pointer-assembly (no index builds),
  // so resolving a fresh epoch on the answer path stays cheap; the lazy
  // PIR bucket matrices re-warm per epoch on first use, exactly as a
  // freshly constructed server's would.
  struct EpochEngines {
    std::shared_ptr<const index::IndexEpoch> epoch;

    const index::InvertedIndex* serve_index = nullptr;    // slice or full
    const storage::StorageLayout* serve_layout = nullptr; // may be null
    bool slice_active = false;
    bool slice_invalid = false;
    size_t advertised_shards = 1;  // hello-ok topology (slice advertises 1)

    // Monolithic engines (null when serving sharded). The PIR engines are
    // internally thread-safe (their lazy matrix caches serialize only their
    // builds), so no external answer-compute mutex exists any more — the
    // per-shard lock convoy that serialized concurrent PIR answers died
    // with it.
    std::unique_ptr<core::PrivateRetrievalServer> pr;
    std::unique_ptr<core::PirRetrievalServer> pir;

    // Sharded engines (null when serving monolithic/slice).
    std::unique_ptr<core::ShardedPrivateRetrievalServer> sharded_pr;
    std::unique_ptr<core::ShardedPirRetrievalServer> sharded_pir;
  };

  // Pins the catalog's current epoch and returns the (possibly cached)
  // engine bundle for it. Never regresses to an older epoch, and prefers
  // an already-installed bundle for the same epoch (its lazy PIR matrices
  // are warm). Never blocks on a catalog build.
  std::shared_ptr<const EpochEngines> ResolveEngines() const;
  std::shared_ptr<const EpochEngines> BuildEngines(
      std::shared_ptr<const index::IndexEpoch> snapshot) const;

  RequestOutcome ProcessOne(const EpochEngines& engines,
                            const std::vector<uint8_t>& request);

  // Admission control: grants up to `want` in-flight slots (all of them
  // when max_inflight is 0); ReleaseInflight returns what was granted.
  // BusyOutcome is the typed kBusy response for a shed request.
  size_t AcquireInflight(size_t want);
  void ReleaseInflight(size_t granted);
  static RequestOutcome BusyOutcome();

  // Folds one request's counters into totals_ under stats_mu_.
  void MergeDelta(const ServerStats& delta);

  RequestOutcome HandleHello(const EpochEngines& engines, const Frame& frame);
  RequestOutcome HandleQuery(const EpochEngines& engines, const Frame& frame);
  RequestOutcome HandlePirQuery(const EpochEngines& engines,
                                const Frame& frame);
  RequestOutcome HandleTopK(const EpochEngines& engines, const Frame& frame);
  static RequestOutcome ErrorOutcome(uint64_t session_id,
                                     const Status& status);

  // The legacy-ctor shim: wraps the raw pointers in a frozen single-epoch
  // catalog replicating the old in-ctor topology decisions (slice config →
  // slice_count-way partition, shard_count → sharding, else monolithic).
  static std::unique_ptr<index::IndexCatalog> MakeShimCatalog(
      const index::InvertedIndex* index, const core::BucketOrganization* buckets,
      const storage::StorageLayout* layout,
      const EmbellishServerOptions& options);

  // Both public constructors delegate here.
  EmbellishServer(std::unique_ptr<index::IndexCatalog> owned_catalog,
                  index::IndexCatalog* catalog,
                  const EmbellishServerOptions& options, ThreadPool* pool);

  const EmbellishServerOptions options_;
  // Spawned only when the caller passed no pool but asked for intra-query
  // shard parallelism (shard_threads > 1 on a sharded server); pool_ then
  // points at it and the whole server shares it.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // caller's pool or owned_pool_; null => all serial

  // The live catalog; owned_catalog_ holds the legacy shim when the server
  // was constructed from raw pointers.
  std::unique_ptr<index::IndexCatalog> owned_catalog_;
  index::IndexCatalog* catalog_;  // owned_catalog_.get() or caller's

  const size_t bucket_count_;

  // Registered sessions' keys; a re-hello replaces the key, and idle
  // entries expire (see session_idle_frames and server/session_table.h).
  SessionTable sessions_;

  // Logical clock for session idle tracking: handled frames.
  std::atomic<uint64_t> frame_clock_{0};

  // In-flight request count against options_.max_inflight.
  std::atomic<size_t> inflight_{0};

  // Current epoch's engine bundle; replaced (never mutated) when a batch
  // observes a newer epoch. Readers hold their own shared_ptr for the
  // batch, so replacement never invalidates an in-flight batch's engines.
  mutable std::mutex engines_mu_;
  mutable std::shared_ptr<const EpochEngines> engines_;

  mutable std::mutex stats_mu_;
  ServerStats totals_;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_EMBELLISH_SERVER_H_
