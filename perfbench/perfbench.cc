// Open-loop end-to-end benchmark of the serving stack.
//
// One binary, two roles. The load generator (the default role) builds the
// seeded fixture and the clients, then spawns this same binary with
// `--role server`: the server process builds the live IndexCatalog and
// serves it over loopback TCP through AsyncFrontEnd -> EmbellishServer
// (pr_recurring, pir_hot) or AsyncFrontEnd -> ShardCoordinator ->
// MultiplexedTransport -> four slice servers (sharded_ingest). The two
// processes talk over the server's stdin/stdout with one-line commands
// (MARK, TRACE, WRITER, FINISH, QUIT); all request traffic goes over TCP.
//
// The generator sends open-loop Poisson traffic from a single thread over at
// most nproc connections, times every request from its due time to full
// receipt, checks every response, and prints the end-to-end metrics. With
// --trace 1 it instead reports the per-layer metrics: spans recorded around
// the benchmark's own calls into each layer (the BatchHandler it hands to
// AsyncFrontEnd::Create, a timing ShardTransport decorator, the writer's
// ApplyDelta/AdvanceEpoch calls, client formulation/decoding) plus replays
// of captured batches through the engines. See README.md for the metric
// definitions, the workloads and the layer-to-metric map.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cpuinfo.h"
#include "embellish.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace embellish;
using Bytes = std::vector<uint8_t>;

// ---- Fixture and workload parameters ---------------------------------------

constexpr size_t kTerms = 30000;
constexpr size_t kDocs = 20000;
constexpr size_t kKeyBits = 256;
constexpr size_t kBucketSize = 4;
constexpr size_t kGenuineTerms = 2;
constexpr size_t kTopK = 10;
constexpr size_t kDeltaDocs = 8;
// Seed of the lexicon and corpus (see BuildFixture).
constexpr uint64_t kFixtureSeed = 1;
// pir_hot draws its terms from buckets with this many matrix rows: 128 to
// 256 KiB responses at KeyLen 256.
constexpr size_t kMinPirRows = 4096;
constexpr size_t kMaxPirRows = 8192;
constexpr int64_t kWriterPeriodNs = 1'000'000'000;
// Setups per run; setup_s is their median (the last one serves the run).
constexpr int kSetupRuns = 3;
// The latency phase is this many consecutive windows (see the Run loop).
constexpr int kWindows = 5;
// Probes of the max_qps search (repeats of failed steps included).
constexpr int kMaxSteps = 12;
// Hypervisor steal (share of all CPUs) above which a latency window is
// measured again, and how many windows a run may measure again.
constexpr double kMaxStealFrac = 0.02;
constexpr int kMaxRemeasured = 2;
// How far a handler span (server clock reads) may stick out of its RPC
// (generator clock reads) and still count as inside it.
constexpr int64_t kReconcileSlackNs = 200'000;

enum class Kind { kPrRecurring, kPirHot, kShardedIngest };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t sessions;
  size_t shards;
  double nominal_qps;   // fixed offered rate of the latency phase
  double limit_ms;      // tail-latency limit of the max_qps search
  // A phase whose generator was later than the latency limit at the tail is
  // invalid: reported as failed, never as fast. (Lateness is inside every
  // measured latency already; past the limit, the offered load was not.)
  double late_bound_ms() const { return limit_ms; }
  size_t pool_per_session;  // pr_recurring: distinct term sets per session
  size_t client_sample;     // requests decoded for client_ms + Claim 1
};

const WorkloadSpec kWorkloads[] = {
    {"pr_recurring", Kind::kPrRecurring, 512, 1, 1000.0, 50.0, 8, 64},
    {"pir_hot", Kind::kPirHot, 64, 1, 150.0, 100.0, 0, 16},
    {"sharded_ingest", Kind::kShardedIngest, 128, 4, 2000.0, 100.0, 0, 64},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident set of this process in KiB (VmHWM).
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0.0;
}

// CPU seconds the hypervisor stole from this machine so far (the eighth
// field of the aggregate cpu line of /proc/stat); 0 when unavailable.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double f[8] = {};
  stat >> cpu;
  for (double& x : f) stat >> x;
  return f[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Word-at-a-time 64-bit hash; fast enough to run on every response.
uint64_t HashBytes(const uint8_t* p, size_t n) {
  uint64_t h = 0x243F6A8885A308D3ull ^ n;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  return Mix64(h ^ tail);
}
uint64_t HashBytes(const Bytes& b) { return HashBytes(b.data(), b.size()); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

template <typename T>
T Take(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

struct Fixture {
  wordnet::WordNetDatabase lexicon;
  corpus::Corpus corpus;
  std::shared_ptr<const core::BucketOrganization> buckets;
};

// The benchmark's data set, the same in both processes and in every run:
// the workload seed varies the traffic (sessions, keys, term draws,
// arrivals, the writer's deltas), not the corpus, so runs of different seeds
// do comparable work.
Fixture BuildFixture() {
  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = kTerms;
  wo.seed = Mix64(kFixtureSeed ^ 0x1e71c0);
  auto lexicon = Take(wordnet::GenerateSyntheticWordNet(wo), "lexicon");
  corpus::SyntheticCorpusOptions co;
  co.num_docs = kDocs;
  co.mean_doc_tokens = 150;
  co.num_topics = 64;
  co.terms_per_topic = 1500;
  co.seed = Mix64(kFixtureSeed ^ 0xc0a9);
  auto corp = Take(corpus::GenerateSyntheticCorpus(lexicon, co), "corpus");
  auto specificity = core::SpecificityMap::FromHypernymDepth(lexicon);
  auto sequences = core::SequenceDictionary(lexicon);
  core::BucketizerOptions bo;
  bo.bucket_size = kBucketSize;
  bo.segment_size = SIZE_MAX;
  auto org = Take(core::FormBuckets(sequences, specificity, bo), "buckets");
  return Fixture{std::move(lexicon), std::move(corp),
                 std::make_shared<core::BucketOrganization>(std::move(org))};
}

// The writer's round-th delta: identical in both processes.
std::vector<corpus::Document> MakeDelta(const std::vector<wordnet::TermId>& terms,
                                        uint64_t seed, uint64_t round) {
  Rng rng(Mix64(seed ^ (0xde17a0000ull + round)));
  std::vector<corpus::Document> docs(kDeltaDocs);
  for (corpus::Document& d : docs) {
    for (size_t i = 0; i < 150; ++i) {
      d.tokens.push_back(terms[rng.Uniform(terms.size())]);
    }
  }
  return docs;
}

index::IndexCatalogOptions CatalogOptions(size_t shards) {
  index::IndexCatalogOptions o;
  o.sharding.shard_count = shards;
  return o;
}

std::map<std::string, double> ParseKv(const std::string& line) {
  std::map<std::string, double> kv;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    kv[tok.substr(0, eq)] = std::atof(tok.c_str() + eq + 1);
  }
  return kv;
}

uint8_t FrameKindByte(const Bytes& frame) {
  return frame.size() > 5 ? frame[5] : 0;
}

uint64_t FrameSession(const Bytes& frame) {
  uint64_t sid = 0;
  for (size_t i = 8; i < 16 && i < frame.size(); ++i) sid = (sid << 8) | frame[i];
  return sid;
}

// ============================================================================
// Server process
// ============================================================================

struct BatchSpan {
  int64_t begin_ns, end_ns;
  std::vector<std::pair<uint64_t, uint64_t>> frames;  // (session, frame hash)
};

struct TripSpan {
  int64_t begin_ns, end_ns;
  uint32_t shard;
  uint8_t inner_kind;
};

// Spans and captures recorded around the benchmark's calls into the stack.
// Everything is kept in memory and written out by FINISH.
class Tracer {
 public:
  using Batch = std::vector<Bytes>;

  std::atomic<bool> on{false};

  Batch Handle(const Batch& requests, const std::function<Batch()>& inner) {
    NoteHellos(requests);
    if (!on.load(std::memory_order_relaxed)) return inner();
    int64_t begin = MonoNs();
    Batch responses = inner();
    int64_t end = MonoNs();
    BatchSpan span{begin, end, {}};
    for (const Bytes& r : requests) {
      span.frames.emplace_back(FrameSession(r), HashBytes(r));
    }
    std::lock_guard<std::mutex> lock(mu_);
    batches_.push_back(std::move(span));
    if (captured_frames_ < kMaxCapturedFrames) {
      captured_frames_ += requests.size();
      captured_.push_back(requests);
    }
    return responses;
  }

  void RecordTrip(int64_t begin, int64_t end, uint32_t shard, uint8_t kind) {
    std::lock_guard<std::mutex> lock(mu_);
    trips_.push_back({begin, end, shard, kind});
  }

  // Read after traffic stopped.
  const std::vector<BatchSpan>& batches() const { return batches_; }
  const std::vector<TripSpan>& trips() const { return trips_; }
  const std::vector<Batch>& captured() const { return captured_; }
  const crypto::BenalohPublicKey* Key(uint64_t session) const {
    auto it = keys_.find(session);
    return it == keys_.end() ? nullptr : &it->second;
  }

 private:
  static constexpr size_t kMaxCapturedFrames = 768;

  void NoteHellos(const Batch& requests) {
    for (const Bytes& r : requests) {
      if (FrameKindByte(r) != static_cast<uint8_t>(server::FrameKind::kHello)) {
        continue;
      }
      auto frame = server::DecodeFrame(r);
      if (!frame.ok()) continue;
      auto pk = server::DecodeHello(frame->payload);
      if (!pk.ok()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      keys_.insert_or_assign(frame->session_id, std::move(*pk));
    }
  }

  std::mutex mu_;
  std::vector<BatchSpan> batches_;
  std::vector<TripSpan> trips_;
  std::vector<Batch> captured_;
  size_t captured_frames_ = 0;
  std::unordered_map<uint64_t, crypto::BenalohPublicKey> keys_;
};

// Times every round trip through a coordinator transport (submit to
// completion), tagged with the inner request's frame kind.
class TimedTransport : public server::ShardTransport {
 public:
  TimedTransport(server::ShardTransport* inner, Tracer* tracer, uint32_t shard)
      : inner_(inner), tracer_(tracer), shard_(shard) {}

  Result<Bytes> RoundTrip(const Bytes& request) override {
    int64_t begin = MonoNs();
    auto response = inner_->RoundTrip(request);
    Record(begin, request);
    return response;
  }

  bool SupportsAsyncSubmit() const override {
    return inner_->SupportsAsyncSubmit();
  }

  void SubmitRoundTrip(const Bytes& request, RoundTripCompletion done) override {
    if (!tracer_->on.load(std::memory_order_relaxed)) {
      inner_->SubmitRoundTrip(request, std::move(done));
      return;
    }
    int64_t begin = MonoNs();
    uint8_t kind = InnerKind(request);
    inner_->SubmitRoundTrip(
        request, [this, begin, kind, done = std::move(done)](Result<Bytes> r) {
          tracer_->RecordTrip(begin, MonoNs(), shard_, kind);
          done(std::move(r));
        });
  }

 private:
  // A kShardRequest frame is [24-byte header][u32 shard][u64 epoch][u64 seq]
  // [u32 inner_size][inner frame]; the inner frame's kind byte sits at
  // offset 5 of the inner frame. 0 for pings (empty inner frame).
  static uint8_t InnerKind(const Bytes& request) {
    constexpr size_t kInner = server::kFrameHeaderBytes + 24;
    return request.size() > kInner + 5 ? request[kInner + 5] : 0;
  }

  void Record(int64_t begin, const Bytes& request) {
    if (tracer_->on.load(std::memory_order_relaxed)) {
      tracer_->RecordTrip(begin, MonoNs(), shard_, InnerKind(request));
    }
  }

  server::ShardTransport* inner_;
  Tracer* tracer_;
  const uint32_t shard_;
};

struct EpochMark {
  uint64_t epoch;
  int64_t begin_ns;  // ApplyDelta called: the successor may be live from here
  int64_t end_ns;    // ApplyDelta returned: the successor is live
};

// Applies a seeded delta and drives the coordinator cutover once a period.
class Writer {
 public:
  Writer(index::IndexCatalog* catalog, server::ShardCoordinator* coordinator,
         std::vector<wordnet::TermId> terms, uint64_t seed)
      : catalog_(catalog), coordinator_(coordinator),
        terms_(std::move(terms)), seed_(seed) {}

  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_.joinable()) return;
    stop_ = false;
    thread_ = std::thread([this] { Main(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read after Stop().
  std::vector<double> delta_ms, cutover_ms;
  std::vector<EpochMark> epochs;
  int64_t pinned_max = 0;
  uint64_t failures = 0;

 private:
  void Main() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (cv_.wait_for(lock, std::chrono::nanoseconds(kWriterPeriodNs),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      int64_t t0 = MonoNs();
      auto next = catalog_->ApplyDelta(MakeDelta(terms_, seed_, round_++));
      int64_t t1 = MonoNs();
      Status cut = coordinator_ ? coordinator_->AdvanceEpoch() : Status::OK();
      int64_t t2 = MonoNs();
      lock.lock();
      if (!next.ok() || !cut.ok()) {
        ++failures;
        continue;
      }
      epochs.push_back({(*next)->epoch(), t0, t1});
      delta_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
      cutover_ms.push_back(1e-6 * static_cast<double>(t2 - t1));
      pinned_max = std::max(pinned_max, catalog_->stats().pinned_epochs);
    }
  }

  index::IndexCatalog* catalog_;
  server::ShardCoordinator* coordinator_;  // null: no cutover to drive
  const std::vector<wordnet::TermId> terms_;
  const uint64_t seed_;
  uint64_t round_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

class ServerProcess {
 public:
  ServerProcess(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), seed_(seed) {}

  int Run() {
    const int64_t start = MonoNs();
    signal(SIGPIPE, SIG_IGN);
    Fixture fx = BuildFixture();
    pool_ = std::make_unique<ThreadPool>(Nproc());
    catalog_ = Take(index::IndexCatalog::Create(fx.corpus, fx.buckets,
                                                CatalogOptions(spec_.shards),
                                                pool_.get()),
                    "catalog");
    loop_ = Take(server::EventLoop::Create(), "event loop");
    if (!loop_->Start().ok()) Die("event loop start");
    if (spec_.shards == 1) {
      mono_ = std::make_unique<server::EmbellishServer>(
          catalog_.get(), server::EmbellishServerOptions{}, pool_.get());
    } else {
      StartSlices();
    }
    server::AsyncFrontEnd::BatchHandler handler =
        [this](const Tracer::Batch& requests) {
          return tracer_.Handle(requests, [&] {
            return mono_ ? mono_->HandleBatch(requests)
                         : coordinator_->HandleBatch(requests);
          });
        };
    uint16_t port = 0;
    int listen_fd = Take(server::ListenOnLoopback(&port), "listen");
    front_ = Take(server::AsyncFrontEnd::Create(listen_fd, loop_.get(),
                                                handler),
                  "front end");
    writer_ = std::make_unique<Writer>(
        catalog_.get(), coordinator_.get(),
        catalog_->Acquire()->index().IndexedTerms(), seed_);
    std::printf("READY port=%u setup_s=%.6f\n", port,
                1e-9 * static_cast<double>(MonoNs() - start));
    std::fflush(stdout);

    char line[512];
    while (std::fgets(line, sizeof(line), stdin) != nullptr) {
      std::string cmd(line);
      while (!cmd.empty() && (cmd.back() == '\n' || cmd.back() == '\r')) {
        cmd.pop_back();
      }
      if (cmd == "MARK") {
        std::printf("MARK %s\n", Counters().c_str());
      } else if (cmd == "TRACE 1" || cmd == "TRACE 0") {
        tracer_.on.store(cmd.back() == '1');
        std::printf("OK\n");
      } else if (cmd == "WRITER 1") {
        if (spec_.kind == Kind::kShardedIngest) writer_->Start();
        std::printf("OK\n");
      } else if (cmd.rfind("FINISH ", 0) == 0) {
        Finish(cmd.substr(7));
      } else {
        break;  // QUIT, or the generator went away
      }
      std::fflush(stdout);
    }
    // Every thread of this process dies with it; nothing needs an orderly
    // teardown once the generator has its results.
    std::fflush(stdout);
    std::_Exit(0);
  }

 private:
  void StartSlices() {
    for (size_t s = 0; s < spec_.shards; ++s) {
      server::EmbellishServerOptions options;
      options.shard_slice = s;
      options.shard_slice_count = spec_.shards;
      slices_.push_back(std::make_unique<server::EmbellishServer>(
          catalog_.get(), options, pool_.get()));
      endpoints_.push_back(
          std::make_unique<server::ShardEndpoint>(slices_.back().get(), s));
      uint16_t port = 0;
      int fd = Take(server::ListenOnLoopback(&port), "slice listen");
      slice_threads_.emplace_back(
          [fd, endpoint = endpoints_.back().get()] {
            (void)server::ServeShardConnections(fd, endpoint);
          });
      muxes_.push_back(Take(
          server::MultiplexedTransport::Connect("127.0.0.1", port, loop_.get()),
          "slice connect"));
      timed_.push_back(std::make_unique<TimedTransport>(
          muxes_.back().get(), &tracer_, static_cast<uint32_t>(s)));
    }
    std::vector<server::ShardTransport*> raw;
    for (auto& t : timed_) raw.push_back(t.get());
    coordinator_ = std::make_unique<server::ShardCoordinator>(
        raw, server::ShardCoordinatorOptions{}, pool_.get());
    Status hs = coordinator_->Handshake();
    if (!hs.ok()) Die("handshake: " + hs.ToString());
  }

  std::string Counters() const {
    server::ServerStats sum;
    std::vector<server::ServerStats> all;
    if (mono_) all.push_back(mono_->stats());
    for (const auto& s : slices_) all.push_back(s->stats());
    for (const server::ServerStats& s : all) {
      sum.frames += s.frames;
      sum.queries += s.queries;
      sum.pir_queries += s.pir_queries;
      sum.topk_queries += s.topk_queries;
      sum.errors += s.errors;
      sum.shed += s.shed;
      sum.cache_hits += s.cache_hits;
      sum.cache_misses += s.cache_misses;
      sum.server_cpu_ms += s.server_cpu_ms;
      sum.server_io_ms += s.server_io_ms;
      sum.answer_path_builds = std::max(sum.answer_path_builds,
                                        s.answer_path_builds);
    }
    server::CoordinatorStats c =
        coordinator_ ? coordinator_->stats() : server::CoordinatorStats{};
    server::AsyncFrontEndStats f = front_->stats();
    std::ostringstream out;
    out.precision(12);
    out << "wall_s=" << 1e-9 * static_cast<double>(MonoNs())
        << " cpu_s=" << ProcessCpuSeconds()
        << " rss_kb=" << PeakRssKb()
        << " engine_frames=" << sum.frames
        << " engine_answers=" << (sum.queries + sum.pir_queries + sum.topk_queries)
        << " engine_errors=" << sum.errors << " engine_shed=" << sum.shed
        << " cache_hits=" << sum.cache_hits
        << " cache_misses=" << sum.cache_misses
        << " engine_cpu_ms=" << sum.server_cpu_ms
        << " sim_io_ms=" << sum.server_io_ms
        << " answer_path_builds="
        << std::max<uint64_t>(sum.answer_path_builds, common::AnswerPathBuilds())
        << " coord_frames=" << c.frames << " shard_trips=" << c.shard_trips
        << " retries=" << c.retries << " shard_failures=" << c.shard_failures
        << " blocking_io_trips=" << c.blocking_io_trips
        << " fe_frames=" << f.frames_in << " fe_shed=" << f.shed
        << " epoch=" << catalog_->Acquire()->epoch();
    return out.str();
  }

  // Stops the writer, replays captured batches, writes the spans, reports.
  void Finish(const std::string& spans_path) {
    writer_->Stop();
    bool traced = !tracer_.batches().empty();
    std::ostringstream out;
    out.precision(12);
    out << "FINAL kernel=" << static_cast<int>(SelectedKernel())
        << " rss_kb=" << PeakRssKb()
        << " epoch_delta_ms=" << Median(writer_->delta_ms)
        << " epoch_cutover_ms=" << Median(writer_->cutover_ms)
        << " epoch_pinned_max=" << writer_->pinned_max
        << " writer_failures=" << writer_->failures
        << " writer_rounds=" << writer_->delta_ms.size();
    if (traced) {
      out << ' ' << SpanMetrics() << ' ' << Replay();
      WriteSpans(spans_path);
    }
    std::printf("%s\n", out.str().c_str());
    std::printf("EPOCHS");
    for (const EpochMark& e : writer_->epochs) {
      std::printf(" %llu:%lld:%lld", static_cast<unsigned long long>(e.epoch),
                  static_cast<long long>(e.begin_ns),
                  static_cast<long long>(e.end_ns));
    }
    std::printf("\nEND\n");
  }

  std::string SpanMetrics() const {
    std::vector<double> handler_ms, batch_frames, trip_ms, merge_ms;
    double trip_sum = 0, trip_union = 0;
    std::vector<Interval> query_trips;
    for (const TripSpan& t : tracer_.trips()) {
      auto kind = static_cast<server::FrameKind>(t.inner_kind);
      if (kind != server::FrameKind::kQuery &&
          kind != server::FrameKind::kTopKQuery &&
          kind != server::FrameKind::kPirQuery) {
        continue;  // pings and hellos: registration and cutover traffic
      }
      query_trips.push_back({t.begin_ns, t.end_ns});
      trip_ms.push_back(1e-6 * static_cast<double>(t.end_ns - t.begin_ns));
    }
    std::sort(query_trips.begin(), query_trips.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
    for (const BatchSpan& b : tracer_.batches()) {
      double ms = 1e-6 * static_cast<double>(b.end_ns - b.begin_ns);
      for (size_t i = 0; i < b.frames.size(); ++i) handler_ms.push_back(ms);
      batch_frames.push_back(static_cast<double>(b.frames.size()));
      // Trips issued by this batch: those inside its span (one dispatcher
      // thread, so batches do not overlap in time).
      std::vector<Interval> inside;
      auto it = std::lower_bound(
          query_trips.begin(), query_trips.end(), b.begin_ns,
          [](const Interval& t, int64_t v) { return t.begin < v; });
      for (; it != query_trips.end() && it->begin <= b.end_ns; ++it) {
        if (it->end <= b.end_ns) inside.push_back(*it);
      }
      if (inside.empty()) continue;
      Interval span{b.begin_ns, b.end_ns};
      for (const Interval& t : inside) trip_sum += static_cast<double>(t.end - t.begin);
      trip_union += static_cast<double>(CoveredLength(inside, span));
      merge_ms.push_back(1e-6 * static_cast<double>(SelfTime(span, inside)));
    }
    LatencySummary h = Summarize(handler_ms);
    LatencySummary t = Summarize(trip_ms);
    double mean_frames = 0;
    for (double f : batch_frames) mean_frames += f;
    if (!batch_frames.empty()) mean_frames /= static_cast<double>(batch_frames.size());
    std::ostringstream out;
    out.precision(12);
    out << "handler_p50_ms=" << h.p50 << " handler_tail_ms=" << h.tail
        << " handler_count=" << h.count << " batch_frames=" << mean_frames
        << " trip_p50_ms=" << t.p50 << " trip_tail_ms=" << t.tail
        << " trip_count=" << t.count
        << " overlap=" << (trip_union > 0 ? trip_sum / trip_union : 0.0)
        << " merge_ms=" << Median(merge_ms);
    return out.str();
  }

  // Replays the captured request frames through the engines on the current
  // epoch, timing each call from outside.
  std::string Replay() {
    auto epoch = catalog_->Acquire();
    const index::InvertedIndex& idx = epoch->index();
    const core::BucketOrganization& org = epoch->buckets();
    core::PrivateRetrievalServer pr(&idx, &org, epoch->layout(), {}, {},
                                    pool_.get());
    core::PirRetrievalServer pir(&idx, &org, epoch->layout(), {}, pool_.get());
    std::vector<double> pr_ms, sweep_ms, topk_ms;
    double candidates = 0, postings = 0, visited = 0, skipped = 0;
    crypto::PirBatchStats pir_stats;
    double pir_cpu_ms = 0;
    for (const Tracer::Batch& batch : tracer_.captured()) {
      std::vector<server::PirQueryPayload> pir_queries;
      for (const Bytes& raw : batch) {
        auto frame = server::DecodeFrame(raw);
        if (!frame.ok()) continue;
        if (frame->kind == server::FrameKind::kQuery) {
          const crypto::BenalohPublicKey* pk = tracer_.Key(frame->session_id);
          if (pk == nullptr) continue;
          auto query = core::DecodeQuery(frame->payload, *pk);
          if (!query.ok()) continue;
          Stopwatch sw;
          auto result = pr.Process(*query, *pk, nullptr);
          pr_ms.push_back(sw.ElapsedMillis());
          if (result.ok()) candidates += static_cast<double>(result->candidates.size());
        } else if (frame->kind == server::FrameKind::kPirQuery) {
          auto payload = server::DecodePirQuery(frame->payload);
          if (payload.ok()) pir_queries.push_back(std::move(*payload));
        } else if (frame->kind == server::FrameKind::kTopKQuery) {
          auto query = server::DecodeTopKQuery(frame->payload);
          if (!query.ok()) continue;
          index::EvalStats es;
          Stopwatch sw;
          index::EvaluateTopK(idx, query->terms, query->k, &es);
          topk_ms.push_back(sw.ElapsedMillis());
          postings += static_cast<double>(es.postings_scanned);
          index::EvalStats epoch_stats;
          index::EvaluateTopKEpoch(*epoch, query->terms, query->k, nullptr,
                                   &epoch_stats);
          visited += static_cast<double>(epoch_stats.shards_visited);
          skipped += static_cast<double>(epoch_stats.shards_skipped);
        }
      }
      if (pir_queries.empty()) continue;
      std::vector<core::PirBatchItem> items;
      for (const server::PirQueryPayload& q : pir_queries) {
        (void)pir.BucketMatrix(q.bucket);  // warm: the sweep is what is timed
        items.push_back({q.bucket, &q.query});
      }
      crypto::PirBatchStats st;
      core::RetrievalCosts costs;
      Stopwatch sw;
      auto answers = pir.AnswerBatch(items, &costs, &st);
      sweep_ms.push_back(sw.ElapsedMillis());
      if (answers.ok()) {
        pir_stats.Add(st);
        pir_cpu_ms += st.cpu_ms;
      }
    }
    auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
    double q = static_cast<double>(pir_stats.queries);
    std::ostringstream out;
    out.precision(12);
    out << "pr_process_ms=" << Median(pr_ms)
        << " pr_candidates=" << per(candidates, static_cast<double>(pr_ms.size()))
        << " pr_replayed=" << pr_ms.size()
        << " pir_sweep_ms=" << Median(sweep_ms)
        << " pir_queries_per_sweep="
        << per(q, static_cast<double>(pir_stats.sweeps))
        << " pir_mont_muls_per_query="
        << per(static_cast<double>(pir_stats.mont_muls), q)
        << " pir_rows_per_query="
        << per(static_cast<double>(pir_stats.rows_extracted), q)
        << " pir_simd_fill=" << pir_stats.simd_fill()
        << " bignum_ns_per_mul="
        << per(pir_cpu_ms * 1e6, static_cast<double>(pir_stats.mont_muls))
        << " topk_eval_ms=" << Median(topk_ms)
        << " topk_postings_scanned="
        << per(postings, static_cast<double>(topk_ms.size()))
        << " topk_shard_skip_ratio=" << per(skipped, visited + skipped);
    return out.str();
  }

  void WriteSpans(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const BatchSpan& b : tracer_.batches()) {
      std::fprintf(f, "B %lld %lld %zu", static_cast<long long>(b.begin_ns),
                   static_cast<long long>(b.end_ns), b.frames.size());
      for (const auto& [sid, hash] : b.frames) {
        std::fprintf(f, " %llu %llu", static_cast<unsigned long long>(sid),
                     static_cast<unsigned long long>(hash));
      }
      std::fprintf(f, "\n");
    }
    for (const TripSpan& t : tracer_.trips()) {
      std::fprintf(f, "T %lld %lld %u %u\n", static_cast<long long>(t.begin_ns),
                   static_cast<long long>(t.end_ns), t.shard,
                   static_cast<unsigned>(t.inner_kind));
    }
    std::fclose(f);
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  Tracer tracer_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<index::IndexCatalog> catalog_;
  std::unique_ptr<server::EventLoop> loop_;
  std::unique_ptr<server::EmbellishServer> mono_;
  std::vector<std::unique_ptr<server::EmbellishServer>> slices_;
  std::vector<std::unique_ptr<server::ShardEndpoint>> endpoints_;
  std::vector<std::thread> slice_threads_;
  std::vector<std::unique_ptr<server::MultiplexedTransport>> muxes_;
  std::vector<std::unique_ptr<TimedTransport>> timed_;
  std::unique_ptr<server::ShardCoordinator> coordinator_;
  std::unique_ptr<server::AsyncFrontEnd> front_;
  std::unique_ptr<Writer> writer_;
};

// ============================================================================
// Load generator
// ============================================================================

// A spawned server process and its command pipes.
class ServerHandle {
 public:
  ServerHandle(const std::string& workload, uint64_t seed) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      Die("pipe");
    }
    std::string seed_arg = std::to_string(seed);
    pid_ = fork();
    if (pid_ < 0) Die("fork");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(to_child[0], 0);
      dup2(from_child[1], 1);
      const char* argv[] = {"perfbench", "--role", "server", "--workload",
                            workload.c_str(), "--seed", seed_arg.c_str(),
                            nullptr};
      execv("/proc/self/exe", const_cast<char* const*>(argv));
      std::_Exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    cmd_fd_ = to_child[1];
    out_fd_ = from_child[0];
  }

  ~ServerHandle() { Stop(); }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  // Next line of the server's output (without newline), or dies after
  // `timeout_ms`.
  std::string ReadLine(int timeout_ms) {
    int64_t deadline = MonoNs() + int64_t{timeout_ms} * 1'000'000;
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      int64_t left_ms = (deadline - MonoNs()) / 1'000'000;
      if (left_ms <= 0) Die("server process did not answer in time");
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left_ms)) <= 0) continue;
      char chunk[4096];
      ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) Die("server process exited unexpectedly");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string Command(const std::string& cmd, int timeout_ms = 30000) {
    std::string line = cmd + "\n";
    if (write(cmd_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      Die("server command pipe");
    }
    return ReadLine(timeout_ms);
  }

  std::map<std::string, double> Mark() {
    std::string line = Command("MARK");
    if (line.rfind("MARK ", 0) != 0) Die("bad MARK reply: " + line);
    return ParseKv(line);
  }

  // Asks the server to exit and reaps it (SIGKILL after a grace period).
  void Stop() {
    if (pid_ <= 0) return;
    if (cmd_fd_ >= 0) {
      (void)!write(cmd_fd_, "QUIT\n", 5);
      close(cmd_fd_);
      cmd_fd_ = -1;
    }
    int64_t deadline = MonoNs() + 10'000'000'000;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (MonoNs() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// What one request is and what became of it.
struct Request {
  int64_t due_ns = 0;   // absolute CLOCK_MONOTONIC
  int64_t sent_ns = 0;  // the generator wrote it
  int64_t recv_ns = 0;  // full response read; 0 while unanswered
  uint32_t item = 0;    // index into the phase's items
  uint32_t conn = 0;
  uint8_t got_kind = 0;
  bool keep = false;    // keep the response bytes (decoded after the run)
  bool retried = false; // resent once after a kUnavailable answer
  uint32_t resp_bytes = 0;
  uint64_t resp_hash = 0;
  Bytes response;       // only when keep
};

// One request's content: its frame plus what it asks for.
struct Item {
  Bytes frame;
  uint32_t session = 0;                // index into the clients
  std::vector<wordnet::TermId> terms;  // genuine terms
  server::FrameKind expect = server::FrameKind::kError;
  uint64_t frame_hash = 0;
};

struct Connection {
  int fd = -1;
  server::FrameReader reader{server::kMaxTransportFrameBytes};
  std::deque<const Bytes*> out;
  size_t out_offset = 0;
  std::deque<size_t> inflight;  // request indices, FIFO per connection
};

// True for a kError response transporting StatusCode::kUnavailable.
bool IsUnavailable(const Bytes& frame) {
  if (FrameKindByte(frame) != static_cast<uint8_t>(server::FrameKind::kError)) {
    return false;
  }
  auto decoded = server::DecodeFrame(frame);
  Status transported;
  return decoded.ok() && server::DecodeError(decoded->payload, &transported).ok() &&
         transported.IsUnavailable();
}

// Sends `reqs` (sorted by due time) open-loop over `conns` from this one
// thread and reads every response until all are answered or
// `drain_deadline_ns` passes. The front end answers each connection in
// order, so responses match requests FIFO per connection.
void RunOpenLoop(std::vector<Request>* reqs, const std::vector<Item>& items,
                 std::vector<Connection>* conns, int64_t drain_deadline_ns) {
  size_t next = 0, answered = 0;
  const size_t n = reqs->size();
  std::vector<pollfd> pfds(conns->size());
  while (answered < n) {
    int64_t now = MonoNs();
    while (next < n && (*reqs)[next].due_ns <= now) {
      Request& r = (*reqs)[next];
      r.sent_ns = now;
      Connection& c = (*conns)[r.conn];
      c.out.push_back(&items[r.item].frame);
      c.inflight.push_back(next);
      ++next;
    }
    if (now > drain_deadline_ns) break;
    for (size_t i = 0; i < conns->size(); ++i) {
      Connection& c = (*conns)[i];
      while (!c.out.empty()) {
        const Bytes& f = *c.out.front();
        ssize_t w = send(c.fd, f.data() + c.out_offset, f.size() - c.out_offset,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w < 0) break;  // socket full: wait for POLLOUT
        c.out_offset += static_cast<size_t>(w);
        if (c.out_offset == f.size()) {
          c.out.pop_front();
          c.out_offset = 0;
        }
      }
      pfds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                 0};
    }
    int64_t wait_ns = next < n ? (*reqs)[next].due_ns - MonoNs() : 5'000'000;
    wait_ns = std::clamp<int64_t>(wait_ns, 0, 5'000'000);
    timespec ts{0, static_cast<long>(wait_ns)};
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (size_t i = 0; i < conns->size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = (*conns)[i];
      auto alive = c.reader.Pump(c.fd);
      // The front end's sockets run with Nagle on: a response queued behind
      // an unacknowledged one waits for the client's ACK, which Linux delays
      // up to 40 ms. Acknowledging at once keeps that timer out of the
      // latency the benchmark measures (see README.md).
      int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      Bytes frame;
      while (c.reader.Next(&frame).value_or(false) && !c.inflight.empty()) {
        size_t index = c.inflight.front();
        Request& r = (*reqs)[index];
        c.inflight.pop_front();
        if (!r.retried && IsUnavailable(frame)) {
          // A trip fenced by a concurrent epoch cutover: the client retries
          // once, and the latency still counts from the first due time.
          r.retried = true;
          c.out.push_back(&items[r.item].frame);
          c.inflight.push_back(index);
          continue;
        }
        r.recv_ns = MonoNs();
        r.got_kind = FrameKindByte(frame);
        r.resp_bytes = static_cast<uint32_t>(frame.size());
        r.resp_hash = HashBytes(frame);
        if (r.keep) r.response = std::move(frame);
        ++answered;
      }
      if (!alive.ok() || !*alive) Die("front-end connection lost");
    }
  }
}

struct PhaseStats {
  LatencySummary latency;  // ms from due time; failures count as +inf
  size_t attempted = 0;
  size_t failed = 0;       // unanswered, or answered with the wrong kind
  double late_tail_ms = 0;  // generator lateness at the rule's tail
  double uplink_kb = 0;
  double downlink_kb = 0;
  bool backlog_growing = false;
  size_t retried = 0;      // resent after a kUnavailable answer
  std::vector<double> latency_ms;  // per request, failures as +inf
};

PhaseStats Analyze(const std::vector<Request>& reqs,
                   const std::vector<Item>& items, double limit_ms) {
  PhaseStats s;
  std::vector<double> lat, late;
  double up = 0, down = 0;
  size_t answered = 0;
  for (const Request& r : reqs) {
    ++s.attempted;
    s.retried += r.retried;
    late.push_back(1e-6 * static_cast<double>(r.sent_ns - r.due_ns));
    up += static_cast<double>(items[r.item].frame.size());
    bool ok = r.recv_ns != 0 &&
              r.got_kind == static_cast<uint8_t>(items[r.item].expect);
    if (r.recv_ns != 0) {
      ++answered;
      down += static_cast<double>(r.resp_bytes);
    }
    if (!ok) ++s.failed;
    lat.push_back(ok ? 1e-6 * static_cast<double>(r.recv_ns - r.due_ns)
                     : std::numeric_limits<double>::infinity());
  }
  s.latency = Summarize(lat);
  s.latency_ms = lat;
  s.late_tail_ms = Summarize(late).tail;
  if (s.attempted > 0) up /= static_cast<double>(s.attempted);
  if (answered > 0) down /= static_cast<double>(answered);
  s.uplink_kb = up / 1024.0;
  s.downlink_kb = down / 1024.0;
  // A growing backlog: the last quarter waits twice as long as the first,
  // and long against the limit.
  if (lat.size() >= 40) {
    size_t q = lat.size() / 4;
    double a = Median(std::vector<double>(lat.begin(), lat.begin() + q));
    double b = Median(std::vector<double>(lat.end() - q, lat.end()));
    s.backlog_growing = b > 2.0 * a && b > limit_ms / 2;
  }
  return s;
}

// One phase's schedule, content and outcome.
struct Phase {
  std::vector<Item> items;
  std::vector<Request> reqs;
  PhaseStats stats;
};

class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, uint64_t seed, double seconds,
                bool trace, std::string out_dir)
      : spec_(spec), seed_(seed), seconds_(seconds), trace_(trace),
        out_dir_(std::move(out_dir)), conns_n_(std::min<size_t>(4, Nproc())) {}

  int Run() {
    signal(SIGPIPE, SIG_IGN);
    // The generator is this one thread over conns_n_ sockets: both within
    // nproc, asserted here.
    if (conns_n_ > Nproc()) Die("more connections than hardware threads");
    Stopwatch prep;
    fx_ = std::make_unique<Fixture>(BuildFixture());
    catalog_ = Take(index::IndexCatalog::Create(fx_->corpus, fx_->buckets,
                                                CatalogOptions(1), nullptr),
                    "reference catalog");
    epochs_[1] = catalog_->Acquire();
    indexed_ = epochs_[1]->index().IndexedTerms();
    MakeClients();
    std::fprintf(stderr, "perfbench: fixture and clients %.1f s\n",
                 prep.ElapsedMillis() / 1000.0);

    // kSetupRuns full set-ups; setup_s is their median and the last one
    // serves the run.
    std::vector<double> setups;
    std::unique_ptr<ServerHandle> srv;
    for (int i = 0; i < kSetupRuns; ++i) {
      srv = std::make_unique<ServerHandle>(spec_.name, seed_);
      setups.push_back(SetUp(srv.get()));
      if (i + 1 < kSetupRuns) srv->Stop();
    }
    setup_s_ = Median(setups);
    std::fprintf(stderr, "perfbench: setups %s s\n", Join(setups).c_str());

    srv->Command("WRITER 1");
    // Untimed warm traffic: the response cache reaches its steady state.
    (void)RunPhase(spec_.nominal_qps, 1.0, 1);

    // The latency phase: kWindows consecutive windows at the nominal rate,
    // each its own seeded schedule, with server counters read in between.
    // A window during which the hypervisor stole more than kMaxStealFrac of
    // the CPUs is measured again (at most kMaxRemeasured times): its
    // figures describe the host's other tenants, not this program. Every
    // window's answers are checked and counted all the same.
    auto before = srv->Mark();
    const double steal0 = StealSeconds();
    double accepted_cpu_s = 0;
    size_t accepted_answers = 0;
    Stopwatch latency_wall;
    for (int w = 0; w < kWindows + remeasured_; ++w) {
      const double window_steal0 = StealSeconds();
      Stopwatch window_wall;
      Phase p = RunPhase(spec_.nominal_qps, WindowSeconds(), 2 + w);
      auto after = srv->Mark();
      Pool(p.stats);
      for (const Request& r : p.reqs) {
        server::FrameKind k = p.items[r.item].expect;
        if (r.recv_ns != 0 && r.got_kind == static_cast<uint8_t>(k) &&
            (k == server::FrameKind::kResult || k == server::FrameKind::kPirResult)) {
          scheme_bytes_ += r.resp_bytes;
          ++scheme_responses_;
        }
      }
      double stolen = (StealSeconds() - window_steal0) /
                      (window_wall.ElapsedMillis() / 1000.0 * static_cast<double>(Nproc()));
      if (stolen > kMaxStealFrac && remeasured_ < kMaxRemeasured) {
        ++remeasured_;
      } else {
        accepted_ms_.insert(accepted_ms_.end(), p.stats.latency_ms.begin(),
                            p.stats.latency_ms.end());
        accepted_cpu_s += after["cpu_s"] - before["cpu_s"];
        accepted_answers += p.stats.attempted - p.stats.failed;
      }
      if (w == 0) {
        nominal_ = std::move(p);  // carries the decoded sample
        for (const Request& r : nominal_.reqs) {
          if (r.keep && r.recv_ns != 0 &&
              r.got_kind == static_cast<uint8_t>(nominal_.items[r.item].expect) &&
              nominal_.items[r.item].expect != server::FrameKind::kTopKResult) {
            sample_.push_back(&r);
          }
        }
      } else {
        TimeClientWork();
      }
      before = after;
    }
    // Server CPU pooled over the accepted windows: the writer's periodic
    // builds land in some windows and not others, so per-window figures
    // would be bimodal.
    server_cpu_ms_ = 1000.0 * accepted_cpu_s /
                     std::max<double>(1.0, static_cast<double>(accepted_answers));
    std::fprintf(stderr,
                 "perfbench: latency phase: server cpu %.4f s over %zu answers "
                 "of the accepted windows\n",
                 accepted_cpu_s, accepted_answers);
    steal_frac_ = (StealSeconds() - steal0) /
                  (latency_wall.ElapsedMillis() / 1000.0 * static_cast<double>(Nproc()));
    Phase traced;
    std::map<std::string, double> t0, t1;
    if (trace_) {
      srv->Command("TRACE 1");
      t0 = srv->Mark();
      traced = RunPhase(spec_.nominal_qps, WindowSeconds(), 50);
      t1 = srv->Mark();
      srv->Command("TRACE 0");
    }
    SearchMaxQps(srv.get());
    auto m2 = srv->Mark();

    std::string spans = out_dir_ + "/" + spec_.name + "-seed" +
                        std::to_string(seed_) + ".spans";
    auto fin = ParseKv(srv->Command("FINISH " + (trace_ ? spans : "-"), 170000));
    std::string epochs_line = srv->ReadLine(10000);
    if (srv->ReadLine(10000) != "END") Die("bad FINISH reply");
    srv->Stop();

    Verify(epochs_line, fin, m2);
    return Report(m2, t0, t1, fin, traced, spans);
  }

 private:
  // Half of --seconds measures latency, half searches for max_qps.
  double WindowSeconds() const { return 0.5 * seconds_ / kWindows; }
  double StepSeconds() const { return 0.5 * seconds_ / kMaxSteps; }

  // Folds one latency window into the pooled latency-phase figures.
  void Pool(const PhaseStats& w) {
    double n = static_cast<double>(w.attempted);
    double total = static_cast<double>(pooled_.attempted) + n;
    if (total > 0) {
      pooled_.uplink_kb += (w.uplink_kb - pooled_.uplink_kb) * n / total;
      pooled_.downlink_kb += (w.downlink_kb - pooled_.downlink_kb) * n / total;
    }
    pooled_.attempted += w.attempted;
    pooled_.failed += w.failed;
    pooled_.retried += w.retried;
    pooled_.late_tail_ms = std::max(pooled_.late_tail_ms, w.late_tail_ms);
  }

  static std::string Join(const std::vector<double>& v) {
    std::ostringstream out;
    for (double x : v) out << x << ' ';
    return out.str();
  }

  static void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < Nproc(); ++t) {
      workers.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
      });
    }
    for (auto& w : workers) w.join();
  }

  static uint64_t SessionId(size_t i) { return 1000 + i; }

  // ---- clients and request content ----

  void MakeClients() {
    if (spec_.kind == Kind::kPirHot) {
      pir_clients_.resize(spec_.sessions);
      ParallelFor(spec_.sessions, [&](size_t i) {
        Rng rng(Mix64(seed_ ^ (0x717000 + i)));
        pir_clients_[i] = std::make_unique<crypto::PirClient>(
            Take(crypto::PirClient::Create(kKeyBits, &rng), "pir client"));
      });
      // Popularity: Zipf(1) over the indexed terms in a seeded random
      // order, so the hot terms (and their buckets) are a function of the
      // seed, not of list length. Only terms of buckets whose answers are
      // 128-256 KiB take part: with every size allowed, which buckets a
      // seed makes hot decides its figures (one multi-MiB bucket among them
      // dominates a run).
      const index::InvertedIndex& idx = epochs_[1]->index();
      for (wordnet::TermId t : indexed_) {
        size_t bucket = Take(fx_->buckets->Locate(t), "locate").bucket;
        size_t max_bytes = 0;
        for (wordnet::TermId u : fx_->buckets->bucket(bucket)) {
          max_bytes = std::max(max_bytes, idx.ListBytes(u));
        }
        size_t rows = 8 * (4 + max_bytes);
        if (rows >= kMinPirRows && rows <= kMaxPirRows) hot_terms_.push_back(t);
      }
      Rng rng(Mix64(seed_ ^ 0x407));
      rng.Shuffle(&hot_terms_);
      hot_zipf_ = std::make_unique<corpus::ZipfSampler>(hot_terms_.size(), 1.0);
      return;
    }
    // Formulation is timed on a key of its own: the sessions' uplinks are
    // encoded once, before the run.
    Rng key_rng(Mix64(seed_ ^ 0xc11e));
    formulator_keys_ = std::make_unique<crypto::BenalohKeyPair>(
        Take(crypto::BenalohKeyPair::Generate(KeyOptions(), &key_rng), "keygen"));
    formulator_ = std::make_unique<core::PrivateRetrievalClient>(
        fx_->buckets.get(), &formulator_keys_->public_key(),
        &formulator_keys_->private_key());
    sessions_.resize(spec_.sessions);
    ParallelFor(spec_.sessions, [&](size_t i) {
      sessions_[i] = std::make_unique<server::SessionClient>(
          Take(server::SessionClient::Create(SessionId(i), fx_->buckets.get(),
                                             KeyOptions(),
                                             Mix64(seed_ ^ (0x5e55 + i))),
               "session keygen"));
    });
    if (spec_.kind == Kind::kPrRecurring) {
      // Each session's small pool of genuine-term sets, encoded once: the
      // recurring uplinks are byte-identical by session consistency.
      pool_items_.resize(spec_.sessions * spec_.pool_per_session);
      ParallelFor(spec_.sessions, [&](size_t s) {
        Rng rng(Mix64(seed_ ^ (0x9001 + s)));
        for (size_t j = 0; j < spec_.pool_per_session; ++j) {
          Item& it = pool_items_[s * spec_.pool_per_session + j];
          it.session = static_cast<uint32_t>(s);
          it.terms = RandomTerms(&rng);
          it.frame = Take(sessions_[s]->QueryFrame(it.terms), "query frame");
          it.expect = server::FrameKind::kResult;
          it.frame_hash = HashBytes(it.frame);
        }
      });
    }
  }

  static crypto::BenalohKeyOptions KeyOptions() {
    crypto::BenalohKeyOptions ko;
    ko.key_bits = kKeyBits;
    ko.r = 59049;
    return ko;
  }

  std::vector<wordnet::TermId> RandomTerms(Rng* rng) const {
    std::vector<wordnet::TermId> terms;
    while (terms.size() < kGenuineTerms) {
      wordnet::TermId t = indexed_[rng->Uniform(indexed_.size())];
      if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
        terms.push_back(t);
      }
    }
    return terms;
  }

  // Fresh request content (pir_hot, sharded_ingest), a function of `rng`.
  // Each session's SessionClient is only touched for its own items, and
  // items of one session are built by one thread (see Schedule).
  Item FreshItem(size_t session, Rng* rng) {
    Item it;
    it.session = static_cast<uint32_t>(session);
    if (spec_.kind == Kind::kPirHot) {
      wordnet::TermId term = hot_terms_[hot_zipf_->Sample(rng)];
      it.terms = {term};
      auto slot = Take(fx_->buckets->Locate(term), "locate");
      auto query = Take(pir_clients_[session]->BuildQuery(
                            slot.slot, fx_->buckets->bucket(slot.bucket).size(),
                            rng),
                        "pir query");
      it.frame = server::EncodeFrame(server::FrameKind::kPirQuery,
                                     SessionId(session),
                                     server::EncodePirQuery(slot.bucket, query));
      it.expect = server::FrameKind::kPirResult;
    } else {
      it.terms = RandomTerms(rng);
      if (rng->Uniform(10) < 7) {
        it.frame = server::EncodeFrame(server::FrameKind::kTopKQuery,
                                       SessionId(session),
                                       server::EncodeTopKQuery(kTopK, it.terms));
        it.expect = server::FrameKind::kTopKResult;
      } else {
        it.frame = Take(sessions_[session]->QueryFrame(it.terms), "query");
        it.expect = server::FrameKind::kResult;
      }
    }
    it.frame_hash = HashBytes(it.frame);
    return it;
  }

  // A seeded open-loop phase: arrival times, sessions and content are a
  // function of (seed, stream), built before the first send.
  Phase Schedule(double qps, double seconds, uint64_t stream) {
    uint64_t phase_seed = Mix64(seed_ ^ Mix64(stream));
    std::vector<int64_t> due = PoissonSchedule(phase_seed, qps, seconds);
    Phase p;
    p.reqs.resize(due.size());
    p.items.resize(due.size());
    Rng rng(Mix64(phase_seed ^ 0xabc));
    std::vector<size_t> session(due.size());
    for (size_t& s : session) s = rng.Uniform(spec_.sessions);
    if (spec_.kind == Kind::kPrRecurring) {
      corpus::ZipfSampler zipf(spec_.pool_per_session, 1.0);
      for (size_t i = 0; i < due.size(); ++i) {
        p.items[i] = pool_items_[session[i] * spec_.pool_per_session +
                                 zipf.Sample(&rng)];
      }
    } else {
      // One task per session keeps each SessionClient on one thread; each
      // request's rng stream is its own, so the content does not depend on
      // the thread count.
      std::vector<std::vector<size_t>> by_session(spec_.sessions);
      for (size_t i = 0; i < due.size(); ++i) by_session[session[i]].push_back(i);
      ParallelFor(spec_.sessions, [&](size_t s) {
        for (size_t i : by_session[s]) {
          Rng item_rng(Mix64(phase_seed ^ (0x17e3 + i)));
          p.items[i] = FreshItem(s, &item_rng);
        }
      });
    }
    int64_t start = MonoNs() + 5'000'000;
    for (size_t i = 0; i < due.size(); ++i) {
      p.reqs[i].due_ns = start + due[i];
      p.reqs[i].item = static_cast<uint32_t>(i);
      p.reqs[i].conn = static_cast<uint32_t>(session[i] % conns_n_);
      // Top-k answers are small: keep them all for the epoch check.
      p.reqs[i].keep = p.items[i].expect == server::FrameKind::kTopKResult;
    }
    return p;
  }

  // ---- set-up ----

  // Server start to ready: its own build plus session registration and
  // PIR matrix warm-up over the wire. Returns seconds.
  double SetUp(ServerHandle* srv) {
    std::string ready = srv->ReadLine(600000);
    if (ready.rfind("READY ", 0) != 0) Die("bad READY line: " + ready);
    auto kv = ParseKv(ready);
    conns_.clear();
    conns_.resize(conns_n_);
    for (Connection& c : conns_) {
      c.fd = Take(server::ConnectWithDeadline(
                      "127.0.0.1", static_cast<uint16_t>(kv["port"]), 5000),
                  "connect");
    }
    Stopwatch sw;
    std::vector<Item> items;
    for (size_t i = 0; i < sessions_.size(); ++i) {
      Item it;
      it.frame = sessions_[i]->HelloFrame();
      it.session = static_cast<uint32_t>(i);
      it.expect = server::FrameKind::kHelloOk;
      items.push_back(std::move(it));
    }
    if (spec_.kind == Kind::kPirHot) {
      // One PIR query per bucket of the hottest terms builds their lazy
      // matrices; colder buckets warm on first use.
      std::set<size_t> buckets;
      for (size_t i = 0; i < std::min<size_t>(hot_terms_.size(), kWarmTerms); ++i) {
        buckets.insert(Take(fx_->buckets->Locate(hot_terms_[i]), "locate").bucket);
      }
      Rng rng(Mix64(seed_ ^ 0x3a3));
      for (size_t b : buckets) {
        Item it;
        it.session = static_cast<uint32_t>(b % pir_clients_.size());
        auto q = Take(pir_clients_[it.session]->BuildQuery(
                          0, fx_->buckets->bucket(b).size(), &rng),
                      "warm query");
        it.frame = server::EncodeFrame(server::FrameKind::kPirQuery,
                                       SessionId(it.session),
                                       server::EncodePirQuery(b, q));
        it.expect = server::FrameKind::kPirResult;
        items.push_back(std::move(it));
      }
    }
    std::vector<Request> reqs(items.size());
    int64_t now = MonoNs();
    for (size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].item = static_cast<uint32_t>(i);
      reqs[i].due_ns = now;
      reqs[i].conn = items[i].session % conns_n_;
    }
    RunOpenLoop(&reqs, items, &conns_, now + 120'000'000'000);
    for (const Request& r : reqs) {
      if (r.recv_ns == 0 ||
          r.got_kind != static_cast<uint8_t>(items[r.item].expect)) {
        Die("registration or warm-up request failed");
      }
    }
    return kv["setup_s"] + sw.ElapsedMillis() / 1000.0;
  }
  static constexpr size_t kWarmTerms = 1024;

  // ---- measured phases ----

  Phase RunPhase(double qps, double seconds, uint64_t stream) {
    Phase p = Schedule(qps, seconds, stream);
    if (stream == 2) MarkSample(&p);
    int64_t end = p.reqs.empty() ? MonoNs() : p.reqs.back().due_ns;
    RunOpenLoop(&p.reqs, p.items, &conns_,
                end + static_cast<int64_t>(spec_.limit_ms * 4e6) +
                    2'000'000'000);
    p.stats = Analyze(p.reqs, p.items, spec_.limit_ms);
    Check(p);
    return p;
  }

  // The latency phase's seeded client sample: requests of the scheme's own
  // kind whose responses are fully decoded after the run.
  void MarkSample(Phase* p) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < p->reqs.size(); ++i) {
      server::FrameKind k = p->items[i].expect;
      if (k == server::FrameKind::kResult || k == server::FrameKind::kPirResult) {
        candidates.push_back(i);
      }
    }
    Rng rng(Mix64(seed_ ^ 0x5a391e));
    for (size_t i = 0; i < spec_.client_sample && !candidates.empty(); ++i) {
      size_t pick = rng.Uniform(candidates.size());
      p->reqs[candidates[pick]].keep = true;
      candidates.erase(candidates.begin() + static_cast<long>(pick));
    }
  }

  // Checks on every response: the frame kind (kError is an overload
  // refusal, counted by Analyze, not a wrong answer), byte-identity of
  // responses to identical request bytes where no writer runs, and the
  // top-k answers are queued for the per-epoch check.
  void Check(const Phase& p) {
    for (const Request& r : p.reqs) {
      const Item& it = p.items[r.item];
      if (r.recv_ns == 0) continue;
      if (r.got_kind != static_cast<uint8_t>(it.expect)) {
        if (r.got_kind != static_cast<uint8_t>(server::FrameKind::kError)) {
          Wrong("frame kind " + std::to_string(r.got_kind) + " for kind " +
                std::to_string(static_cast<int>(it.expect)));
        }
        continue;
      }
      if (spec_.kind != Kind::kShardedIngest) {
        auto [pos, fresh] = identity_.emplace(it.frame_hash, r.resp_hash);
        if (!fresh && pos->second != r.resp_hash) {
          Wrong("identical request bytes answered with different bytes");
        }
      } else if (r.keep && it.expect == server::FrameKind::kTopKResult) {
        topk_log_.push_back({it.terms, r.sent_ns, r.recv_ns, r.response});
      }
    }
  }

  void Wrong(const std::string& what) {
    if (wrong_++ < 5) std::fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
  }

  void SearchMaxQps(ServerHandle* srv) {
    uint64_t stream = 100;
    auto probe = [&](double qps) {
      auto a = srv->Mark();
      Phase p = RunPhase(qps, StepSeconds(), stream++);
      auto b = srv->Mark();
      TimeClientWork();
      StepOutcome out;
      out.tail_ms = p.stats.latency.tail;
      out.backlog_growing = p.stats.backlog_growing;
      out.generator_late = p.stats.late_tail_ms > spec_.late_bound_ms();
      double util = (b["cpu_s"] - a["cpu_s"]) /
                    std::max(1e-9, (b["wall_s"] - a["wall_s"]) *
                                       static_cast<double>(Nproc()));
      bool pass = out.Pass(spec_.limit_ms);
      if (pass && qps > best_step_qps_) {
        best_step_qps_ = qps;
        best_step_util_ = util;
      }
      std::fprintf(stderr,
                   "perfbench: step %.1f qps: tail %.2f ms (n=%zu) late %.2f "
                   "ms cpu %.0f%% %s\n",
                   qps, p.stats.latency.tail, p.stats.latency.count,
                   p.stats.late_tail_ms, 100 * util, pass ? "pass" : "FAIL");
      return out;
    };
    search_ = perfbench::SearchMaxQps(spec_.nominal_qps, spec_.limit_ms, 2.0, 4,
                                      kMaxSteps, probe);
    max_qps_ = CrossingRate(search_.steps, spec_.limit_ms);
    std::fprintf(stderr, "perfbench: highest passing step %.1f/s, crossing %.1f/s\n",
                 search_.max_qps, max_qps_);
  }

  // ---- client work ----

  // Algorithm 5 on one sampled PR response, under its session's key.
  Result<std::vector<index::ScoredDoc>> DecodePr(const Request& r) {
    return sessions_[nominal_.items[r.item].session]->DecodeResultFrame(r.response,
                                                                        kTopK);
  }

  // The PIR column one sampled response carries, as postings.
  Result<std::vector<index::Posting>> DecodePir(const Request& r) const {
    auto frame = server::DecodeFrame(r.response);
    if (!frame.ok()) return frame.status();
    auto response = server::DecodePirResponse(frame->payload);
    if (!response.ok()) return response.status();
    auto bits = pir_clients_[nominal_.items[r.item].session]->DecodeResponse(*response);
    if (!bits.ok()) return bits.status();
    return core::PostingsFromColumnBits(*bits);
  }

  // Times the client's own work on a few sampled responses at a time,
  // between latency windows and between search steps, so that a slow spell
  // of the shared host touches only some of the timings; client_ms is built
  // from their medians. Decoding is timed per response byte.
  void TimeClientWork() {
    const size_t per_slot = spec_.kind == Kind::kPirHot ? 2 : 4;
    for (size_t i = 0; i < per_slot && !sample_.empty(); ++i) {
      const Request& r = *sample_[client_cursor_++ % sample_.size()];
      const Item& it = nominal_.items[r.item];
      const double bytes = static_cast<double>(r.response.size());
      if (it.expect == server::FrameKind::kResult) {
        CpuStopwatch formulate;
        (void)formulator_->FormulateQuery(it.terms, &client_rng_, nullptr);
        formulate_ms_.push_back(formulate.ElapsedMillis());
        CpuStopwatch decode;
        (void)DecodePr(r);
        decode_ms_per_byte_.push_back(decode.ElapsedMillis() / bytes);
      } else {
        auto slot = Take(fx_->buckets->Locate(it.terms[0]), "locate");
        CpuStopwatch build;
        (void)pir_clients_[it.session]->BuildQuery(
            slot.slot, fx_->buckets->bucket(slot.bucket).size(), &client_rng_);
        build_ms_.push_back(build.ElapsedMillis());
        CpuStopwatch decode;
        (void)DecodePir(r);
        decode_ms_per_byte_.push_back(decode.ElapsedMillis() / bytes);
      }
    }
  }

  // ---- correctness after the run ----

  // The epochs a request in flight over [sent, recv] may have been answered
  // at: from the one live at `sent` to the newest one that may have been
  // installed by `recv`.
  std::vector<uint64_t> LiveEpochs(int64_t sent, int64_t recv) const {
    uint64_t lo = 1, hi = 1;
    for (const EpochMark& m : marks_) {
      if (m.end_ns <= sent) lo = m.epoch;
      if (m.begin_ns <= recv) hi = m.epoch;
    }
    std::vector<uint64_t> out;
    for (uint64_t e = lo; e <= hi; ++e) out.push_back(e);
    return out;
  }

  bool MatchesFull(const std::vector<index::ScoredDoc>& got,
                   const std::vector<wordnet::TermId>& terms, size_t k,
                   int64_t sent, int64_t recv) const {
    for (uint64_t e : LiveEpochs(sent, recv)) {
      auto it = epochs_.find(e);
      if (it == epochs_.end()) continue;
      std::vector<index::ScoredDoc> full = index::EvaluateFull(it->second->index(), terms);
      if (full.size() > k) full.resize(k);
      if (full == got) return true;
    }
    return false;
  }

  void Verify(const std::string& epochs_line, std::map<std::string, double>& fin,
              std::map<std::string, double>& last_mark) {
    // Rebuild the server's epochs from the same seeded deltas.
    std::istringstream in(epochs_line);
    std::string tok;
    in >> tok;  // "EPOCHS"
    uint64_t round = 0;
    while (in >> tok) {
      unsigned long long e = 0;
      long long b = 0, en = 0;
      if (std::sscanf(tok.c_str(), "%llu:%lld:%lld", &e, &b, &en) != 3) continue;
      marks_.push_back({e, b, en});
      auto next = Take(catalog_->ApplyDelta(MakeDelta(indexed_, seed_, round++)),
                       "reference delta");
      if (next->epoch() != e) Wrong("epoch numbering diverged from the server's");
      epochs_[e] = next;
    }
    if (fin["writer_failures"] != 0) Wrong("writer delta or cutover failed");
    if (last_mark["answer_path_builds"] != 0) Wrong("answer_path_builds != 0");
    if (last_mark["blocking_io_trips"] != 0) Wrong("blocking_io_trips != 0");

    // Every top-k answer equals the EvaluateFull prefix at a live epoch.
    for (const TopKLog& t : topk_log_) {
      auto frame = server::DecodeFrame(t.response);
      auto docs = frame.ok() ? server::DecodeTopKResult(frame->payload)
                             : Result<std::vector<index::ScoredDoc>>(frame.status());
      if (!docs.ok() || !MatchesFull(*docs, t.terms, kTopK, t.sent_ns, t.recv_ns)) {
        Wrong("top-k answer matches no live epoch");
      }
    }

    // The seeded sample, fully decoded: PR results against the plaintext
    // ranking at a live epoch (Claim 1), PIR columns against the term's
    // plaintext list.
    std::vector<std::vector<index::Posting>> lists;
    std::vector<wordnet::TermId> list_terms;
    for (const Request* r : sample_) {
      const Item& it = nominal_.items[r->item];
      ++sample_checked_;
      if (it.expect == server::FrameKind::kResult) {
        auto docs = DecodePr(*r);
        if (!docs.ok() || !MatchesFull(*docs, it.terms, kTopK, r->sent_ns, r->recv_ns)) {
          Wrong("decoded PR result differs from the plaintext ranking");
        }
        continue;
      }
      auto postings = DecodePir(*r);
      const std::vector<index::Posting>* truth = epochs_[1]->index().postings(it.terms[0]);
      if (!postings.ok() || truth == nullptr || *postings != *truth) {
        Wrong("decoded PIR column differs from the term's plaintext list");
        continue;
      }
      lists.push_back(std::move(*postings));
      list_terms.push_back(it.terms[0]);
    }
    if (sample_checked_ == 0) Wrong("no sampled response could be decoded");

    // Local ranking of the retrieved lists, kGenuineTerms per query.
    std::vector<double> rank;
    for (size_t i = 0; i + kGenuineTerms <= lists.size(); i += kGenuineTerms) {
      std::vector<wordnet::TermId> q(list_terms.begin() + static_cast<long>(i),
                                     list_terms.begin() + static_cast<long>(i + kGenuineTerms));
      CpuStopwatch cpu;
      (void)core::RankRetrievedLists(
          q, kTopK, nullptr,
          [&](wordnet::TermId t) -> Result<std::vector<index::Posting>> {
            for (size_t j = i; j < i + kGenuineTerms; ++j) {
              if (list_terms[j] == t) return lists[j];
            }
            return Status::NotFound("term");
          });
      rank.push_back(cpu.ElapsedMillis());
    }

    // Decoding costs in proportion to the response: the timings give the
    // cost per byte and the latency phase the mean response, so one heavy
    // term in the sample cannot move the per-query figure. The client work
    // is CPU-bound and deterministic, so the host's other tenants can only
    // slow a timing down: the lower quartile of the timings is the figure.
    auto lower_quartile = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return SortedQuantile(v, 0.25);
    };
    const double per_byte = lower_quartile(decode_ms_per_byte_);
    const double mean_bytes = scheme_responses_
                                  ? static_cast<double>(scheme_bytes_) /
                                        static_cast<double>(scheme_responses_)
                                  : 0.0;
    client_formulate_ms_ = lower_quartile(formulate_ms_);
    client_pir_build_ms_ = lower_quartile(build_ms_);
    std::fprintf(stderr,
                 "perfbench: client sample %zu decoded, %zu timings: formulate "
                 "%.3f ms, decode %.4f ms/KiB, mean response %.2f KiB\n",
                 sample_checked_, decode_ms_per_byte_.size(), client_formulate_ms_,
                 1024 * per_byte, mean_bytes / 1024);
    if (spec_.kind == Kind::kPirHot) {
      client_pir_decode_ms_ = per_byte * mean_bytes;
      client_ms_ = kGenuineTerms * (client_pir_build_ms_ + client_pir_decode_ms_) +
                   Median(rank);
    } else {
      client_postfilter_ms_ = per_byte * mean_bytes;
      client_ms_ = client_formulate_ms_ + client_postfilter_ms_;
    }
  }

  // ---- report ----

  std::string Provenance(const std::map<std::string, double>& fin) const;

  int Report(const std::map<std::string, double>& m2,
             const std::map<std::string, double>& t0,
             const std::map<std::string, double>& t1,
             const std::map<std::string, double>& fin, const Phase& traced,
             const std::string& spans_path);

  // Joins the traced phase's RPCs with the handler spans written by the
  // server: frontend.outside_ms and the reconciliation check.
  void JoinSpans(const Phase& traced, const std::string& spans_path,
                 double* outside_ms, double* joined_frac, bool* reconciled) const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string out_dir_;
  const size_t conns_n_;

  std::unique_ptr<Fixture> fx_;
  std::unique_ptr<index::IndexCatalog> catalog_;
  std::map<uint64_t, std::shared_ptr<const index::IndexEpoch>> epochs_;
  std::vector<EpochMark> marks_;
  std::vector<wordnet::TermId> indexed_;
  std::vector<wordnet::TermId> hot_terms_;
  std::unique_ptr<corpus::ZipfSampler> hot_zipf_;
  std::vector<std::unique_ptr<server::SessionClient>> sessions_;
  std::vector<std::unique_ptr<crypto::PirClient>> pir_clients_;
  std::vector<Item> pool_items_;
  std::vector<Connection> conns_;

  double setup_s_ = 0;
  Phase nominal_;      // the first latency window (with the decoded sample)
  PhaseStats pooled_;  // all latency windows
  std::vector<double> accepted_ms_;    // latencies of the accepted windows
  double server_cpu_ms_ = 0;           // server CPU per answer, latency phase
  uint64_t scheme_bytes_ = 0, scheme_responses_ = 0;  // PR / PIR answers
  MaxQpsResult search_;
  double max_qps_ = 0;
  double steal_frac_ = 0;  // CPU time stolen by the hypervisor, latency phase
  int remeasured_ = 0;     // latency windows measured again for steal
  double best_step_qps_ = 0, best_step_util_ = 0;
  size_t wrong_ = 0;
  size_t sample_checked_ = 0;
  std::unordered_map<uint64_t, uint64_t> identity_;
  struct TopKLog {
    std::vector<wordnet::TermId> terms;
    int64_t sent_ns, recv_ns;
    Bytes response;
  };
  std::vector<TopKLog> topk_log_;
  // The client sample and its timings (TimeClientWork).
  std::vector<const Request*> sample_;  // into nominal_.reqs
  size_t client_cursor_ = 0;
  std::unique_ptr<crypto::BenalohKeyPair> formulator_keys_;
  std::unique_ptr<core::PrivateRetrievalClient> formulator_;
  Rng client_rng_{0xc11e};
  std::vector<double> formulate_ms_, build_ms_, decode_ms_per_byte_;
  double client_ms_ = 0, client_formulate_ms_ = 0, client_postfilter_ms_ = 0;
  double client_pir_build_ms_ = 0, client_pir_decode_ms_ = 0;
};

void LoadGenerator::JoinSpans(const Phase& traced, const std::string& spans_path,
                              double* outside_ms, double* joined_frac,
                              bool* reconciled) const {
  std::multimap<std::pair<uint64_t, uint64_t>, std::pair<int64_t, int64_t>> spans;
  std::ifstream in(spans_path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    long long b = 0, e = 0;
    size_t n = 0;
    ls >> tag;
    if (tag != "B") continue;
    ls >> b >> e >> n;
    for (size_t i = 0; i < n; ++i) {
      unsigned long long sid = 0, hash = 0;
      ls >> sid >> hash;
      spans.emplace(std::make_pair(sid, hash), std::make_pair(b, e));
    }
  }
  std::vector<double> outside;
  size_t joined = 0, inside = 0, total = 0;
  for (const Request& r : traced.reqs) {
    if (r.recv_ns == 0) continue;
    ++total;
    const Item& it = traced.items[r.item];
    auto range = spans.equal_range({SessionId(it.session), it.frame_hash});
    // The span of this request: the one overlapping [sent, recv] most
    // (identical bytes from one session may repeat).
    const std::pair<int64_t, int64_t>* best = nullptr;
    int64_t best_overlap = 0;
    for (auto i = range.first; i != range.second; ++i) {
      const auto& s = i->second;
      int64_t overlap = std::min(s.second, r.recv_ns) - std::max(s.first, r.sent_ns);
      if (overlap > best_overlap) {
        best = &s;
        best_overlap = overlap;
      }
    }
    if (best == nullptr) continue;
    ++joined;
    if (best->first >= r.sent_ns - kReconcileSlackNs &&
        best->second <= r.recv_ns + kReconcileSlackNs) {
      ++inside;
    }
    outside.push_back(1e-6 * static_cast<double>((r.recv_ns - r.sent_ns) -
                                                 (best->second - best->first)));
  }
  *outside_ms = Median(outside);
  *joined_frac = total ? static_cast<double>(joined) / static_cast<double>(total) : 0;
  // Reconciled: nearly every RPC joins a handler span lying inside it, so
  // outside + handler self + transport union account for the RPC wall time.
  *reconciled = *joined_frac >= 0.95 && inside == joined;
}

std::string LoadGenerator::Provenance(const std::map<std::string, double>& fin) const {
  const char* pinned = std::getenv("EMBELLISH_KERNEL");
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  auto kernel = static_cast<MontKernel>(static_cast<int>(fin.at("kernel")));
  std::ostringstream out;
  out << "{\"nproc\": " << Nproc() << ", \"kernel\": \"" << KernelName(kernel)
      << "\", \"max_kernel\": \"" << KernelName(MaxSupportedKernel())
      << "\", \"embellish_kernel_env\": "
      << (pinned ? "\"" + std::string(pinned) + "\"" : std::string("null"))
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
      << PERFBENCH_COMPILER << "\", \"commit\": \"" << (commit ? commit : "unknown")
      << "\", \"workload\": \"" << spec_.name << "\", \"seed\": " << seed_
      << ", \"seconds\": " << seconds_ << ", \"trace\": " << (trace_ ? 1 : 0)
      << ", \"params\": {\"fixture_seed\": " << kFixtureSeed
      << ", \"terms\": " << kTerms << ", \"docs\": " << kDocs
      << ", \"key_bits\": " << kKeyBits << ", \"bucket_size\": " << kBucketSize
      << ", \"genuine_terms\": " << kGenuineTerms << ", \"k\": " << kTopK
      << ", \"sessions\": " << spec_.sessions << ", \"connections\": " << conns_n_
      << ", \"shards\": " << spec_.shards << ", \"nominal_qps\": "
      << spec_.nominal_qps << ", \"limit_ms\": " << spec_.limit_ms
      << ", \"generator_threads\": 1, \"setup_runs\": " << kSetupRuns
      << ", \"late_bound_ms\": " << spec_.late_bound_ms()
      << ", \"windows\": " << kWindows << ", \"max_steps\": " << kMaxSteps << "}}";
  return out.str();
}

int LoadGenerator::Report(const std::map<std::string, double>& m2_in,
                          const std::map<std::string, double>& t0_in,
                          const std::map<std::string, double>& t1_in,
                          const std::map<std::string, double>& fin_in,
                          const Phase& traced, const std::string& spans_path) {
  auto m2 = m2_in, t0 = t0_in, t1 = t1_in, fin = fin_in;
  const PhaseStats& nom = pooled_;
  bool valid = nom.late_tail_ms <= spec_.late_bound_ms();
  if (!valid) {
    std::fprintf(stderr, "perfbench: INVALID: generator %.2f ms late at the tail "
                 "(bound %.2f ms)\n", nom.late_tail_ms, spec_.late_bound_ms());
  }
  size_t attempted = nom.attempted + traced.stats.attempted;
  size_t failed = nom.failed + traced.stats.failed + wrong_ + (valid ? 0 : 1);
  const LatencySummary latency = Summarize(accepted_ms_);
  const double p50 = latency.p50;
  double error_frac = static_cast<double>(nom.failed + traced.stats.failed) /
                      std::max<double>(1.0, static_cast<double>(attempted));

  // Timings of the serving path, wall clock and CPU time alike, are
  // reported, not gated: on a shared host their spread across runs is wider
  // than any bound the benchmark could hold them to (see README.md).
  const std::vector<std::tuple<std::string, double, std::string>> reported = {
      {"p50_ms", p50, "ms"},
      {"p99_ms", latency.tail, "ms"},
      {"max_qps", max_qps_, "1/s"},
      {"client_ms", client_ms_, "ms"},
      {"server_cpu_ms", server_cpu_ms_, "ms"},
  };
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  if (!trace_) {
    metrics = {
        {"setup_s", setup_s_, "s"},
        {"downlink_kb", nom.downlink_kb, "KiB"},
        {"uplink_kb", nom.uplink_kb, "KiB"},
        {"rss_mb", fin["rss_kb"] / 1024.0, "MiB"},
    };
  } else {
    auto d = [&](const char* key) { return t1[key] - t0[key]; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    double outside = 0, joined = 0;
    bool reconciled = false;
    JoinSpans(traced, spans_path, &outside, &joined, &reconciled);
    if (!reconciled) {
      Wrong("per-layer spans do not reconcile with RPC wall time (joined " +
            std::to_string(joined) + ")");
      ++failed;
    }
    double coord_frames = d("coord_frames");
    metrics = {
        {"frontend.handler_p50_ms", fin["handler_p50_ms"], "ms"},
        {"frontend.handler_p99_ms", fin["handler_tail_ms"], "ms"},
        {"frontend.outside_ms", outside, "ms"},
        {"frontend.batch_frames", fin["batch_frames"], "count"},
        {"frontend.shed_frac", ratio(d("fe_shed"), d("fe_frames")), "ratio"},
        {"cache.hit_ratio", ratio(d("cache_hits"), d("cache_hits") + d("cache_misses")), "ratio"},
        {"server.engine_cpu_ms", ratio(d("engine_cpu_ms"), d("engine_answers")), "ms"},
        {"storage.sim_io_ms", ratio(d("sim_io_ms"), d("engine_answers")), "ms"},
        {"pr.process_ms", fin["pr_process_ms"], "ms"},
        {"pr.candidates", fin["pr_candidates"], "count"},
        {"client.formulate_ms", client_formulate_ms_, "ms"},
        {"client.postfilter_ms", client_postfilter_ms_, "ms"},
        {"pir.sweep_ms", fin["pir_sweep_ms"], "ms"},
        {"pir.queries_per_sweep", fin["pir_queries_per_sweep"], "count"},
        {"pir.mont_muls_per_query", fin["pir_mont_muls_per_query"], "count"},
        {"pir.rows_per_query", fin["pir_rows_per_query"], "count"},
        {"pir.simd_fill", fin["pir_simd_fill"], "ratio"},
        {"bignum.ns_per_mul", fin["bignum_ns_per_mul"], "ns"},
        {"client.pir_build_ms", client_pir_build_ms_, "ms"},
        {"client.pir_decode_ms", client_pir_decode_ms_, "ms"},
        {"topk.eval_ms", fin["topk_eval_ms"], "ms"},
        {"topk.postings_scanned", fin["topk_postings_scanned"], "count"},
        {"topk.shard_skip_ratio", fin["topk_shard_skip_ratio"], "ratio"},
        {"epoch.delta_ms", fin["epoch_delta_ms"], "ms"},
        {"epoch.cutover_ms", fin["epoch_cutover_ms"], "ms"},
        {"epoch.pinned_max", fin["epoch_pinned_max"], "count"},
        {"coord.trip_p50_ms", fin["trip_p50_ms"], "ms"},
        {"coord.trip_p99_ms", fin["trip_tail_ms"], "ms"},
        {"coord.trips_per_request", ratio(d("shard_trips"), coord_frames), "count"},
        {"coord.overlap", fin["overlap"], "ratio"},
        {"coord.merge_ms", fin["merge_ms"], "ms"},
        {"coord.blocking_io_trips", m2["blocking_io_trips"], "count"},
        {"coord.retries", m2["retries"], "count"},
        {"coord.shard_failures", m2["shard_failures"], "count"},
        {"server.cpu_util", best_step_util_, "ratio"},
        {"loadgen.late_ms", nom.late_tail_ms, "ms"},
        {"loadgen.retry_frac", ratio(static_cast<double>(nom.retried),
                                     static_cast<double>(nom.attempted)), "ratio"},
        {"trace.overhead", ratio(traced.stats.latency.p50, p50), "ratio"},
        {"trace.joined_frac", joined, "ratio"},
    };
  }

  std::string provenance = Provenance(fin);
  std::printf("# provenance %s\n", provenance.c_str());
  std::printf("# workload %s seed %llu: p50/p99 over %zu requests of %d "
              "windows at %.0f/s (tail = p%.2f), error_frac %.6f, retried "
              "%zu, max_qps probes %zu, steal %.2f%% (%d windows measured "
              "again)\n",
              spec_.name, static_cast<unsigned long long>(seed_), latency.count,
              kWindows, spec_.nominal_qps, 100 * latency.tail_quantile,
              error_frac, nom.retried, search_.steps.size(), 100 * steal_frac_,
              remeasured_);
  for (const auto& [name, value, unit] : metrics) {
    std::printf("%-28s %14.6f %s\n", name.c_str(), value, unit.c_str());
  }
  std::ostringstream reported_json;
  reported_json.precision(10);
  for (size_t i = 0; i < reported.size(); ++i) {
    const auto& [name, value, unit] = reported[i];
    std::printf("%-28s %14.6f %s (reported, not gated)\n", name.c_str(), value,
                unit.c_str());
    reported_json << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
                  << (std::isfinite(value) ? value : -1.0) << ", \"unit\": \""
                  << unit << "\"}";
  }

  bool correct = wrong_ == 0 && failed == 0;
  std::ostringstream json;
  json.precision(10);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    json << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
         << (std::isfinite(value) ? value : -1.0) << ", \"unit\": \"" << unit
         << "\"}";
  }
  json << "}}";

  std::string path = out_dir_ + "/" + spec_.name + "-seed" + std::to_string(seed_) +
                     "-trace" + (trace_ ? "1" : "0") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"provenance\": %s, \"error_frac\": %.9f, \"steal_frac\": %.6f, "
                 "\"windows_remeasured\": %d, \"reported\": {%s}, "
                 "\"p99_count\": %zu, \"p99_quantile\": %.6f, \"valid\": %s, "
                 "\"result\": %s}\n",
                 provenance.c_str(), error_frac, steal_frac_, remeasured_,
                 reported_json.str().c_str(), latency.count,
                 latency.tail_quantile, valid ? "true" : "false",
                 json.str().c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 2;
}

struct Args {
  std::string role = "loadgen";
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--role") a.role = v;
    else if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out_dir = v;
    else Die("unknown argument " + k);
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.role == "server") return ServerProcess(*spec, args.seed).Run();
  if (args.seconds <= 0) Die("--seconds must be positive");
  return LoadGenerator(*spec, args.seed, args.seconds, args.trace, args.out_dir).Run();
}
