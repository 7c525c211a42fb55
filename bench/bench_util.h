// Shared plumbing for the figure-reproduction bench harnesses: environment
// knobs, fixture construction, and aligned table printing.
//
// Environment variables (all optional):
//   EMBELLISH_BENCH_TERMS   lexicon size         (default 117798 for §5.1,
//                                                 30000 for §5.2)
//   EMBELLISH_BENCH_DOCS    corpus documents     (default 1500)
//   EMBELLISH_BENCH_TRIALS  repetitions per data point
//   EMBELLISH_BENCH_KEYLEN  crypto key bits      (default 256)

#ifndef EMBELLISH_BENCH_BENCH_UTIL_H_
#define EMBELLISH_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/cpuinfo.h"
#include "embellish.h"

namespace embellish::bench {

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0)
             ? static_cast<size_t>(parsed)
             : fallback;
}

/// \brief Prints one aligned row; columns are pre-formatted strings.
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", widths[i] + 2, cells[i].c_str());
  }
  std::printf("\n");
}

/// \brief Prints a full aligned table with a header rule.
inline void PrintTable(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::vector<int> widths(header.size(), 0);
  for (size_t i = 0; i < header.size(); ++i) {
    widths[i] = static_cast<int>(header[i].size());
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], static_cast<int>(row[i].size()));
    }
  }
  PrintRow(header, widths);
  std::string rule;
  for (size_t i = 0; i < header.size(); ++i) {
    rule += std::string(static_cast<size_t>(widths[i]), '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows) PrintRow(row, widths);
}

/// \brief Emits a machine-checkable shape assertion line.
inline void ShapeCheck(bool ok, const std::string& description) {
  std::printf("# shape-check: %s  [%s]\n", description.c_str(),
              ok ? "PASS" : "FAIL");
}

/// \brief Writes the members every BENCH_*.json records about where it ran:
///        hardware threads, the dispatched Montgomery kernel tier and the
///        CMake build type. Each member sits on its own two-space-indented
///        line ending in a comma, so it goes between other top-level members.
inline void WriteRunInfo(FILE* f, const char* build_type) {
  std::fprintf(f,
               "  \"hardware_threads\": %u,\n"
               "  \"kernel\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n",
               std::thread::hardware_concurrency(),
               KernelName(SelectedKernel()), build_type);
}

/// \brief The §5.1 fixture: full-scale synthetic lexicon, specificity map,
///        Algorithm 1 sequences.
struct LexiconFixture {
  wordnet::WordNetDatabase lexicon;
  core::SpecificityMap specificity;
  core::SequencerResult sequences;
  std::vector<wordnet::TermId> all_terms;

  static LexiconFixture Build(size_t terms, uint64_t seed = 2010) {
    wordnet::SyntheticWordNetOptions wo;
    wo.target_term_count = terms;
    wo.seed = seed;
    auto lex = wordnet::GenerateSyntheticWordNet(wo);
    if (!lex.ok()) {
      std::fprintf(stderr, "lexicon generation failed: %s\n",
                   lex.status().ToString().c_str());
      std::exit(1);
    }
    LexiconFixture f{std::move(lex).value(), {}, {}, {}};
    f.specificity = core::SpecificityMap::FromHypernymDepth(f.lexicon);
    f.sequences = core::SequenceDictionary(f.lexicon);
    f.all_terms.resize(f.lexicon.term_count());
    for (wordnet::TermId t = 0; t < f.lexicon.term_count(); ++t) {
      f.all_terms[t] = t;
    }
    return f;
  }

  core::BucketOrganization Buckets(size_t bktsz, size_t segsz) const {
    core::BucketizerOptions o;
    o.bucket_size = bktsz;
    o.segment_size = segsz;
    auto org = core::FormBuckets(sequences, specificity, o);
    if (!org.ok()) {
      std::fprintf(stderr, "bucketize failed: %s\n",
                   org.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(org).value();
  }
};

/// \brief The §5.2 fixture: lexicon + corpus + impact-ordered index.
struct RetrievalFixture {
  wordnet::WordNetDatabase lexicon;
  corpus::Corpus corpus_data;
  index::BuildOutput built;
  core::SpecificityMap specificity;
  core::SequencerResult sequences;

  static RetrievalFixture Build(size_t terms, size_t docs,
                                uint64_t seed = 77) {
    wordnet::SyntheticWordNetOptions wo;
    wo.target_term_count = terms;
    wo.seed = seed;
    auto lex = wordnet::GenerateSyntheticWordNet(wo);
    if (!lex.ok()) std::exit(1);
    corpus::SyntheticCorpusOptions co;
    co.num_docs = docs;
    co.mean_doc_tokens = 150;
    co.num_topics = 64;
    co.terms_per_topic = std::min<size_t>(1500, terms / 4);
    co.seed = seed + 1;
    auto corp = corpus::GenerateSyntheticCorpus(*lex, co);
    if (!corp.ok()) std::exit(1);
    auto built = index::BuildIndex(*corp, {});
    if (!built.ok()) std::exit(1);
    RetrievalFixture f{std::move(lex).value(), std::move(corp).value(),
                       std::move(built).value(), {}, {}};
    f.specificity = core::SpecificityMap::FromHypernymDepth(f.lexicon);
    f.sequences = core::SequenceDictionary(f.lexicon);
    return f;
  }

  core::BucketOrganization Buckets(size_t bktsz) const {
    core::BucketizerOptions o;
    o.bucket_size = bktsz;
    o.segment_size = SIZE_MAX;  // clamped to the maximum N/BktSz
    auto org = core::FormBuckets(sequences, specificity, o);
    if (!org.ok()) std::exit(1);
    return std::move(org).value();
  }

  /// Random queries over indexed terms (the paper forms queries from the
  /// searchable dictionary at random).
  std::vector<std::vector<wordnet::TermId>> RandomQueries(
      size_t count, size_t query_size, Rng* rng) const {
    auto terms = built.index.IndexedTerms();
    std::vector<std::vector<wordnet::TermId>> queries(count);
    for (auto& q : queries) {
      for (size_t i = 0; i < query_size; ++i) {
        q.push_back(terms[rng->Uniform(terms.size())]);
      }
    }
    return queries;
  }
};

}  // namespace embellish::bench

#endif  // EMBELLISH_BENCH_BENCH_UTIL_H_
