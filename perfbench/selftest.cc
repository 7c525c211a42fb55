// Tests of the benchmark's own measurement rules (harness.h):
//
//   - the percentile rule picks the highest percentile with at least ten
//     samples beyond it and reports the count;
//   - span self time is the parent span minus the union of its children;
//   - the max_qps search finds the capacity of a synthetic handler of known
//     service time, and the crossing rate interpolates the probed curve;
//   - Poisson schedules are identical for identical seeds.
//
// Build with the benchmark (CMakeLists.txt) and run
// `.bench_build/perfbench/perfbench_selftest`; the exit code is the verdict.

#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool Near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

void TestPercentileRule() {
  // 2000 samples: p99 has 20 beyond it, so the cap applies.
  Expect(Near(TailQuantile(2000), 0.99), "2000 samples report p99");
  // 500 samples: only p98 keeps ten beyond it.
  Expect(Near(TailQuantile(500), 0.98), "500 samples report p98");
  // 20 samples or fewer: nothing above the median qualifies.
  Expect(Near(TailQuantile(20), 0.5), "20 samples fall back to the median");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  LatencySummary s = Summarize(v);
  Expect(s.count == 1000, "summary reports the sample count");
  Expect(Near(s.p50, 500), "median of 1..1000 is 500");
  Expect(Near(s.tail, 990) && Near(s.tail_quantile, 0.99),
         "tail of 1..1000 is p99 = 990, ten samples beyond");
  size_t beyond = 0;
  for (double x : v) beyond += x > s.tail;
  Expect(beyond >= kTailSamples, "at least ten samples lie beyond the tail");

  std::vector<double> with_fail = v;
  with_fail.push_back(std::numeric_limits<double>::infinity());
  Expect(std::isfinite(Summarize(with_fail).tail),
         "one failure (+inf) does not make the tail infinite");
}

void TestSelfTime() {
  Interval parent{0, 100};
  Expect(SelfTime(parent, {}) == 100, "no children: self time is the span");
  Expect(SelfTime(parent, {{10, 30}, {50, 60}}) == 70,
         "disjoint children are subtracted");
  Expect(SelfTime(parent, {{10, 40}, {20, 50}, {45, 55}}) == 55,
         "overlapping children count once (union)");
  Expect(SelfTime(parent, {{-20, 10}, {90, 150}}) == 80,
         "children are clipped to the parent");
  Expect(SelfTime(parent, {{0, 100}, {10, 20}}) == 0,
         "a child covering the parent leaves no self time");
  Expect(CoveredLength({{5, 5}, {7, 3}}, parent) == 0, "empty children cover nothing");
}

// A FIFO single server with deterministic service time `service_ms`,
// offered Poisson arrivals: the step's tail latency by the percentile rule.
StepOutcome SimulateStep(double qps, double service_ms, double seconds) {
  std::vector<int64_t> due = PoissonSchedule(7, qps, seconds);
  std::vector<double> latency;
  double free_at = 0;
  for (int64_t d : due) {
    double arrive = 1e-6 * static_cast<double>(d);
    double start = std::max(arrive, free_at);
    free_at = start + service_ms;
    latency.push_back(free_at - arrive);
  }
  StepOutcome out;
  out.tail_ms = Summarize(latency).tail;
  return out;
}

void TestMaxQpsSearch() {
  const double service_ms = 2.0;  // capacity 500/s
  const double limit_ms = 20.0;
  MaxQpsResult r = SearchMaxQps(100, limit_ms, 1.4, 3, 10, [&](double qps) {
    return SimulateStep(qps, service_ms, 20.0);
  });
  std::printf("      max_qps = %.1f over %zu steps\n", r.max_qps, r.steps.size());
  Expect(r.max_qps > 0, "search finds a passing rate");
  Expect(r.max_qps < 1000.0 / service_ms, "max_qps stays below capacity");
  Expect(r.max_qps > 0.6 * 1000.0 / service_ms,
         "max_qps reaches most of the capacity");
  Expect(r.steps.size() <= 10, "search respects the step budget");
  for (const auto& [qps, out] : r.steps) {
    if (qps <= r.max_qps) continue;
    Expect(!out.Pass(limit_ms) || qps == r.max_qps,
           "every probed rate above max_qps failed");
  }
  // A start above capacity searches downwards.
  MaxQpsResult down = SearchMaxQps(1000, limit_ms, 1.4, 3, 10, [&](double qps) {
    return SimulateStep(qps, service_ms, 20.0);
  });
  Expect(down.max_qps > 0 && down.max_qps < 500,
         "a start above capacity still brackets the boundary");
  // One transient failure is retried: a handler that stalls on its first
  // probe of each rate still reaches its capacity.
  std::map<double, int> probes;
  MaxQpsResult flaky = SearchMaxQps(100, limit_ms, 1.4, 3, 16, [&](double qps) {
    if (probes[qps]++ == 0 && qps < 300) {
      StepOutcome stalled;
      stalled.tail_ms = 10 * limit_ms;
      return stalled;
    }
    return SimulateStep(qps, service_ms, 20.0);
  });
  Expect(flaky.max_qps > 0.6 * 1000.0 / service_ms,
         "a failed step is repeated before the rate counts as failed");
  // The crossing of the probed curve: tail = 10 ms * (qps / 1000)^2 meets a
  // 40 ms limit at exactly 2000/s, whatever the probe order.
  auto at = [](double qps) {
    StepOutcome out;
    out.tail_ms = 10.0 * (qps / 1000) * (qps / 1000);
    return std::make_pair(qps, out);
  };
  Expect(Near(CrossingRate({at(3000), at(1000), at(1500), at(2500)}, 40.0), 2000, 1e-6),
         "crossing rate interpolates the limit on a smooth curve");
  // A lucky pass above the crossing (35 ms at 2800/s, truly 78 ms) is pooled
  // with its neighbour instead of becoming max_qps.
  auto dip = at(2800);
  dip.second.tail_ms = 35.0;
  double noisy = CrossingRate({at(1000), at(1500), at(2500), dip, at(3200)}, 40.0);
  Expect(noisy > 1500 && noisy < 2500, "isotonic fit pools a non-monotone outlier");
  auto late_probe = at(1200);
  late_probe.second.generator_late = true;
  Expect(CrossingRate({at(1000), late_probe, at(1500)}, 40.0) < 1200,
         "a late-generator probe counts as beyond the limit");
  Expect(CrossingRate({at(3000)}, 40.0) == 0.0, "no rate within the limit gives 0");
  Expect(Near(CrossingRate({at(500), at(800)}, 40.0), 800),
         "all probes within the limit give the highest probed rate");
  // A late generator never passes.
  StepOutcome late;
  late.generator_late = true;
  Expect(!late.Pass(limit_ms), "a step with a late generator is invalid");
}

void TestPoisson() {
  auto a = PoissonSchedule(42, 500, 2.0);
  auto b = PoissonSchedule(42, 500, 2.0);
  auto c = PoissonSchedule(43, 500, 2.0);
  Expect(a == b, "identical seeds give identical schedules");
  Expect(a != c, "different seeds give different schedules");
  Expect(std::fabs(static_cast<double>(a.size()) - 1000) < 150,
         "about rate x seconds arrivals");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] >= a[i - 1];
  Expect(sorted && !a.empty() && a.back() < 2'000'000'000,
         "arrivals are ordered and inside the phase");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestMaxQpsSearch();
  TestPoisson();
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILURES");
  return failures == 0 ? 0 : 1;
}
