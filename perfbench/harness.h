// Measurement primitives of the open-loop benchmark, kept free of the
// serving stack so the self-test can pin their behaviour:
//
//   TailQuantile / Summarize   the percentile rule: report the median and the
//                              highest percentile (capped at p99) that still
//                              has at least ten samples beyond it, with the
//                              sample count;
//   CoveredLength / SelfTime   span self time: a parent span minus the union
//                              of the parts of its interval its children
//                              cover;
//   PoissonSchedule            seeded open-loop arrival times;
//   SearchMaxQps               the max_qps search over a step probe;
//   CrossingRate               where the probed tail-latency curve crosses
//                              the limit (the reported max_qps).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {

/// \brief Samples a tail percentile needs beyond it to be reported.
inline constexpr size_t kTailSamples = 10;

/// \brief The highest percentile (as a fraction, capped at 0.99) with at
///        least kTailSamples samples beyond it among `n`; 0.5 when `n` is too
///        small for anything above the median.
inline double TailQuantile(size_t n) {
  if (n <= 2 * kTailSamples) return 0.5;
  double q = 1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n);
  return std::min(0.99, q);
}

/// \brief Nearest-rank quantile of an already sorted sample; 0 when empty.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;        ///< value at tail_quantile
  double tail_quantile = 0.5;
};

/// \brief Median and rule-chosen tail of `values` (copied, then sorted).
inline LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = SortedQuantile(values, 0.5);
  s.tail_quantile = TailQuantile(values.size());
  s.tail = SortedQuantile(values, s.tail_quantile);
  return s;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.5);
}

/// \brief A closed time interval (any one unit: the benchmark uses ns).
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// \brief Length of the union of `parts` clipped to `window`.
inline int64_t CoveredLength(std::vector<Interval> parts, Interval window) {
  for (Interval& p : parts) {
    p.begin = std::max(p.begin, window.begin);
    p.end = std::min(p.end, window.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  int64_t covered = 0;
  int64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const Interval& p : parts) {
    if (p.end <= p.begin) continue;
    if (open && p.begin <= run_end) {
      run_end = std::max(run_end, p.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = p.begin;
    run_end = p.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

/// \brief Self time of `parent`: its duration minus the union of the parts
///        of its interval that `children` cover.
inline int64_t SelfTime(Interval parent, const std::vector<Interval>& children) {
  return (parent.end - parent.begin) - CoveredLength(children, parent);
}

/// \brief splitmix64: the seed-to-stream mixer for schedules.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// \brief Open-loop Poisson arrivals at `rate_qps` over `seconds`: offsets in
///        nanoseconds from the phase start, a pure function of the seed.
inline std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_qps,
                                            double seconds) {
  std::vector<int64_t> due;
  if (rate_qps <= 0.0 || seconds <= 0.0) return due;
  uint64_t state = Mix64(seed);
  double t = 0.0;
  for (;;) {
    state = Mix64(state);
    // Uniform in (0, 1]: never log(0).
    double u = (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_qps;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

/// \brief One offered-rate step of the max_qps search.
struct StepOutcome {
  double tail_ms = 0.0;       ///< tail latency by the percentile rule
  bool backlog_growing = false;
  bool generator_late = false;  ///< the step is invalid, never a pass
  bool Pass(double limit_ms) const {
    return !generator_late && !backlog_growing && tail_ms <= limit_ms;
  }
};

struct MaxQpsResult {
  double max_qps = 0.0;  ///< highest passing offered rate (0: none passed)
  std::vector<std::pair<double, StepOutcome>> steps;  ///< in probe order
};

/// \brief Finds the highest offered rate whose step passes: grows (or
///        shrinks) geometrically from `start_qps` by `growth` until the pass
///        boundary is bracketed, then bisects the bracket geometrically
///        `refine` times. A failed step is repeated once and the rate fails
///        only if both do, so one transient stall cannot end the climb. At
///        most `max_steps` probes are made, repeats included.
inline MaxQpsResult SearchMaxQps(
    double start_qps, double limit_ms, double growth, int refine,
    int max_steps, const std::function<StepOutcome(double)>& probe) {
  MaxQpsResult result;
  auto budget_left = [&] {
    return result.steps.size() < static_cast<size_t>(max_steps);
  };
  auto passes = [&](double qps) {
    for (int attempt = 0; attempt < 2 && budget_left(); ++attempt) {
      StepOutcome out = probe(qps);
      result.steps.emplace_back(qps, out);
      if (out.Pass(limit_ms)) return true;
    }
    return false;
  };
  double pass = 0.0, fail = 0.0;
  double qps = start_qps;
  while (budget_left() && (pass == 0.0 || fail == 0.0)) {
    if (passes(qps)) {
      pass = qps;
      qps *= growth;
    } else {
      fail = qps;
      qps /= growth;
    }
  }
  for (int i = 0; i < refine && budget_left() && pass > 0.0 && fail > 0.0; ++i) {
    double mid = std::sqrt(pass * fail);
    if (passes(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  result.max_qps = pass;
  return result;
}

/// \brief The offered rate at which the tail-latency curve the probes
///        measured crosses `limit_ms`. A probe that failed for a growing
///        backlog or a late generator counts as twice the limit. The points
///        (log rate, log tail) are made non-decreasing by isotonic regression
///        (pool adjacent violators; repeated probes of one rate average), and
///        the crossing is interpolated linearly between the last fitted point
///        within the limit and the first beyond it. Returns the highest probed
///        rate when every fitted point is within the limit, and 0 when none
///        is.
inline double CrossingRate(std::vector<std::pair<double, StepOutcome>> steps,
                           double limit_ms) {
  if (steps.empty()) return 0.0;
  std::stable_sort(steps.begin(), steps.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  struct Block {
    double sum = 0.0;
    double weight = 0.0;
    size_t count = 0;  // points pooled into this block
    double value() const { return sum / weight; }
  };
  std::vector<Block> blocks;
  for (const auto& [qps, out] : steps) {
    double tail = out.tail_ms;
    if (out.backlog_growing || out.generator_late) tail = std::max(tail, 2 * limit_ms);
    tail = std::isfinite(tail) ? std::max(tail, 1e-6) : 1e6 * limit_ms;
    blocks.push_back({std::log(tail), 1.0, 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].value() > blocks.back().value()) {
      Block last = blocks.back();
      blocks.pop_back();
      blocks.back().sum += last.sum;
      blocks.back().weight += last.weight;
      blocks.back().count += last.count;
    }
  }
  std::vector<double> fitted;
  for (const Block& b : blocks) fitted.insert(fitted.end(), b.count, b.value());
  const double log_limit = std::log(limit_ms);
  for (size_t i = 0; i < steps.size(); ++i) {
    if (fitted[i] <= log_limit) continue;
    if (i == 0) return 0.0;
    double x0 = std::log(steps[i - 1].first), x1 = std::log(steps[i].first);
    double y0 = fitted[i - 1], y1 = fitted[i];
    return std::exp(x0 + (log_limit - y0) * (x1 - x0) / (y1 - y0));
  }
  return steps.back().first;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
