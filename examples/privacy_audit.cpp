// Privacy audit of a bucket organization: runs the Section 5.1 metrics
// (intra-bucket specificity spread; closest/farthest cover distances)
// against the Random-decoy baseline, prints Algorithm 1 sequence snippets
// and sample buckets in the style of Section 3.3/3.4, and reports the
// Bayesian risk of an example query, also when it is issued three times
// with and without byte-identical uplinks linking the issues.
//
// Usage: privacy_audit [terms] [bktsz] [segsz] [trials]

#include <cstdio>
#include <cstdlib>

#include "embellish.h"

using namespace embellish;

int main(int argc, char** argv) {
  const size_t terms = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 30000;
  const size_t bktsz = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;
  const size_t segsz = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 512;
  const size_t trials = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 300;

  std::printf("=== Privacy audit: %zu-term lexicon, BktSz=%zu, SegSz=%zu ===\n\n",
              terms, bktsz, segsz);

  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = terms;
  auto lexicon = wordnet::GenerateSyntheticWordNet(wo);
  if (!lexicon.ok()) {
    std::fprintf(stderr, "%s\n", lexicon.status().ToString().c_str());
    return 1;
  }
  auto specificity = core::SpecificityMap::FromHypernymDepth(*lexicon);
  auto sequences = core::SequenceDictionary(*lexicon);

  // --- Algorithm 1 output: a snippet of the clustered sequence (§3.3) ---
  std::printf("Algorithm 1 produced %zu sequence(s); snippet:\n  ...",
              sequences.sequences.size());
  const auto& first_seq = sequences.sequences.front();
  for (size_t i = 100; i < std::min<size_t>(110, first_seq.size()); ++i) {
    std::printf(" '%s'", lexicon->term(first_seq[i]).text.c_str());
  }
  std::printf(" ...\n\n");

  core::BucketizerOptions bo;
  bo.bucket_size = bktsz;
  bo.segment_size = segsz;
  auto org = core::FormBuckets(sequences, specificity, bo);
  if (!org.ok()) {
    std::fprintf(stderr, "%s\n", org.status().ToString().c_str());
    return 1;
  }

  // --- Sample buckets in the §3.4 style ---
  std::printf("sample buckets (term (specificity)):\n");
  for (size_t b = org->bucket_count() / 3;
       b < org->bucket_count() / 3 + 4 && b < org->bucket_count(); ++b) {
    std::printf("  bucket %zu:", b);
    for (wordnet::TermId t : org->bucket(b)) {
      std::printf(" '%s' (%d)", lexicon->term(t).text.c_str(),
                  specificity.TermSpecificity(t));
    }
    std::printf("\n");
  }
  std::printf("\n");

  // --- §5.1 metrics vs the Random baseline ---
  core::SemanticDistanceCalculator distance(&*lexicon);
  core::RiskEvaluator evaluator(&*lexicon, &specificity, &distance);

  std::vector<wordnet::TermId> all_terms(lexicon->term_count());
  for (wordnet::TermId t = 0; t < lexicon->term_count(); ++t) {
    all_terms[t] = t;
  }
  Rng rng(1);
  auto random_org = core::RandomBucketOrganization(all_terms, bktsz, &rng);
  if (!random_org.ok()) return 1;

  const double bucket_spec =
      evaluator.AvgIntraBucketSpecificityDifference(*org);
  const double random_spec =
      evaluator.AvgIntraBucketSpecificityDifference(*random_org);
  Rng r1(2), r2(2);
  auto bucket_dist = evaluator.MeasureDistanceDifference(*org, trials, &r1);
  auto random_dist =
      evaluator.MeasureDistanceDifference(*random_org, trials, &r2);

  std::printf("Section 5.1 metrics (%zu trials):\n", trials);
  std::printf("  %-28s %10s %10s\n", "metric", "Bucket", "Random");
  std::printf("  %-28s %10.3f %10.3f\n", "specificity difference",
              bucket_spec, random_spec);
  std::printf("  %-28s %10.2f %10.2f\n", "closest cover distance diff",
              bucket_dist.avg_closest, random_dist.avg_closest);
  std::printf("  %-28s %10.2f %10.2f\n", "farthest cover distance diff",
              bucket_dist.avg_farthest, random_dist.avg_farthest);
  std::printf("\n");

  const bool wins_spec = bucket_spec < random_spec;
  const bool wins_far = bucket_dist.avg_farthest < random_dist.avg_farthest;
  std::printf("verdict: Bucket %s Random on specificity; %s on farthest "
              "cover.\n",
              wins_spec ? "beats" : "LOSES TO",
              wins_far ? "beats" : "LOSES TO");

  // --- Bayesian risk of a 2-term query under this organization ---
  const std::vector<wordnet::TermId> example = {
      all_terms[17], all_terms[4211 % all_terms.size()]};
  auto risk = core::ComputeAdversaryRisk(*org, distance, {example});
  if (risk.ok()) {
    std::printf(
        "example 2-term query: |Q| = %llu candidates, posterior on truth "
        "%.4f, expected adversary similarity %.3f\n",
        static_cast<unsigned long long>(risk->candidate_count),
        risk->posterior_on_truth, risk->risk);
  }

  // --- The same query issued three times. Fresh uplinks leave the server
  //     three independent choices; byte-identical uplinks would link them
  //     into one, raising the posterior while Eq. 2's risk stays put ---
  const std::vector<std::vector<wordnet::TermId>> thrice(3, example);
  auto unlinked = core::ComputeAdversaryRisk(*org, distance, thrice);
  auto linked = core::ComputeAdversaryRisk(*org, distance, thrice, {0, 0, 0});
  if (unlinked.ok() && linked.ok()) {
    auto print = [](const char* name, const core::AdversaryRisk& r) {
      std::printf(
          "  %-25s |S| = %8llu  posterior on truth %.3g  expected "
          "similarity %.3f\n",
          name, static_cast<unsigned long long>(r.candidate_count),
          r.posterior_on_truth, r.risk);
    };
    std::printf("the same query issued 3 times:\n");
    print("unlinked (fresh uplinks)", *unlinked);
    print("linked (repeated bytes)", *linked);
  }

  // --- §3.4 grouping adversary: MAP coherence attack on related-term
  //     queries, Bucket vs Random decoys ---
  std::vector<std::vector<wordnet::TermId>> attack_queries;
  Rng pick(5);
  while (attack_queries.size() < 20) {
    auto a = static_cast<wordnet::TermId>(pick.Uniform(lexicon->term_count()));
    const auto& synsets = lexicon->term(a).synsets;
    if (synsets.empty()) continue;
    const auto& relations = lexicon->synset(synsets[0]).relations;
    if (relations.empty()) continue;
    const auto& other = lexicon->synset(relations[0].target);
    if (other.terms.empty() || other.terms[0] == a) continue;
    attack_queries.push_back({a, other.terms[0]});
  }
  auto bucket_attack =
      core::RunMapCoherenceAttack(*org, distance, attack_queries);
  auto random_attack =
      core::RunMapCoherenceAttack(*random_org, distance, attack_queries);
  if (bucket_attack.ok() && random_attack.ok()) {
    std::printf(
        "\nMAP coherence attack on %zu related-term queries (grouping "
        "granted):\n"
        "  hit rate with Bucket decoys: %.2f   with Random decoys: %.2f   "
        "(guessing floor %.3f)\n",
        attack_queries.size(), bucket_attack->hit_rate,
        random_attack->hit_rate, bucket_attack->chance_rate);
  }
  return (wins_spec && wins_far) ? 0 : 1;
}
