#include "core/adversary.h"

#include <cmath>

#include "common/strings.h"

namespace embellish::core {

namespace {

constexpr double kCutoff = 32.0;

// Mean pairwise proximity between two aligned term tuples.
double QuerySimilarity(const SemanticDistanceCalculator& distance,
                       const std::vector<wordnet::TermId>& a,
                       const std::vector<wordnet::TermId>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) {
      total += 1.0;
      continue;
    }
    double d = distance.TermDistance(a[i], b[i], kCutoff);
    if (std::isinf(d)) d = kCutoff;
    total += 1.0 / (1.0 + d);
  }
  return a.empty() ? 0.0 : total / static_cast<double>(a.size());
}

}  // namespace

Result<AdversaryRisk> ComputeAdversaryRisk(
    const BucketOrganization& org, const SemanticDistanceCalculator& distance,
    const std::vector<std::vector<wordnet::TermId>>& genuine_sequence,
    const std::vector<size_t>& repeat_of, uint64_t max_candidates) {
  if (genuine_sequence.empty()) {
    return Status::InvalidArgument("empty query sequence");
  }
  const size_t n = genuine_sequence.size();
  if (!repeat_of.empty() && repeat_of.size() != n) {
    return Status::InvalidArgument(StringPrintf(
        "repeat_of has %zu entries for %zu queries", repeat_of.size(), n));
  }
  // first[i] is the position whose candidate position i must repeat.
  std::vector<size_t> first(n);
  for (size_t i = 0; i < n; ++i) {
    first[i] = repeat_of.empty() ? i : repeat_of[i];
    if (first[i] > i) {
      return Status::InvalidArgument(StringPrintf(
          "repeat_of[%zu] points after its own position", i));
    }
    if (first[first[i]] != first[i]) {
      return Status::InvalidArgument(StringPrintf(
          "repeat_of[%zu] points at a position that repeats another", i));
    }
    if (genuine_sequence[i] != genuine_sequence[first[i]]) {
      return Status::InvalidArgument(StringPrintf(
          "positions %zu and %zu are linked but their genuine terms differ",
          first[i], i));
    }
  }

  // Resolve each genuine term's bucket; Q_i = product of the host buckets.
  // Count |S| first so we fail fast on oversized instances. A linked
  // position repeats its first occurrence's candidate, so it adds no factor.
  std::vector<std::vector<const std::vector<wordnet::TermId>*>> bucket_seq(n);
  uint64_t candidates = 1;
  for (size_t i = 0; i < n; ++i) {
    if (first[i] != i) continue;
    if (genuine_sequence[i].empty()) {
      return Status::InvalidArgument("empty query in sequence");
    }
    auto& host_buckets = bucket_seq[i];
    for (wordnet::TermId t : genuine_sequence[i]) {
      EMB_ASSIGN_OR_RETURN(BucketSlot where, org.Locate(t));
      host_buckets.push_back(&org.bucket(where.bucket));
      uint64_t width = org.bucket(where.bucket).size();
      if (candidates > max_candidates / width) {
        return Status::InvalidArgument(StringPrintf(
            "candidate space exceeds cap %llu",
            static_cast<unsigned long long>(max_candidates)));
      }
      candidates *= width;
    }
  }

  // Per-query candidate tuples and their similarity to the genuine query.
  // risk factorizes: with a uniform prior, beta is uniform on S, and
  // sim(s', s) averages per-query similarities, so
  //   risk = (1/n) * sum_i mean_{q' in Q_i} sim_q(q', q_i).
  // We still track the posterior on the exact genuine sequence. A linked
  // position's marginal is its first occurrence's, so it adds that
  // position's mean similarity again and leaves the posterior alone.
  double risk_total = 0.0;
  double truth_mass = 1.0;
  std::vector<double> mean_sim(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (first[i] != i) {
      risk_total += mean_sim[first[i]];
      continue;
    }
    const auto& hosts = bucket_seq[i];
    const auto& genuine = genuine_sequence[i];
    const size_t m = hosts.size();

    // Enumerate Q_i with a mixed-radix counter.
    std::vector<size_t> digit(m, 0);
    double sim_sum = 0.0;
    uint64_t count = 0;
    while (true) {
      std::vector<wordnet::TermId> candidate(m);
      for (size_t j = 0; j < m; ++j) candidate[j] = (*hosts[j])[digit[j]];
      sim_sum += QuerySimilarity(distance, candidate, genuine);
      ++count;
      size_t j = 0;
      while (j < m) {
        if (++digit[j] < hosts[j]->size()) break;
        digit[j] = 0;
        ++j;
      }
      if (j == m) break;
    }
    mean_sim[i] = sim_sum / static_cast<double>(count);
    risk_total += mean_sim[i];
    truth_mass /= static_cast<double>(count);
  }

  AdversaryRisk out;
  out.risk = risk_total / static_cast<double>(n);
  out.posterior_on_truth = truth_mass;
  out.candidate_count = candidates;
  return out;
}

}  // namespace embellish::core
