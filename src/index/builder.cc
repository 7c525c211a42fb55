#include "index/builder.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/answer_path.h"

namespace embellish::index {

Status IndexBuildOptions::Validate() const {
  if (impact_bits < 2 || impact_bits > 8) {
    return Status::InvalidArgument(
        "impact_bits out of [2, 8] (postings serialize impacts in one byte)");
  }
  if (scoring == ScoringModel::kOkapiBM25) {
    if (bm25.k1 <= 0.0) {
      return Status::InvalidArgument("BM25 k1 must be positive");
    }
    if (bm25.b < 0.0 || bm25.b > 1.0) {
      return Status::InvalidArgument("BM25 b out of [0, 1]");
    }
  }
  return Status::OK();
}

namespace {

// Scores one document under the configured model and calls
// `emit(term, p_dt)` once per distinct term, in ascending term id order.
// Term counts come from runs of a sorted copy of the tokens in `scratch`;
// visiting terms in id order fixes the order the cosine norm is summed in,
// so a full build and a delta score the same document bit-identically.
// `doc_frequency(term)` supplies f_t: the corpus's own for a full build,
// the frozen snapshot's for a delta.
template <typename DocFrequency, typename Emit>
void ScoreDocument(const corpus::Document& doc, uint64_t num_docs,
                   double avg_doc_len, const DocFrequency& doc_frequency,
                   const IndexBuildOptions& options,
                   std::vector<wordnet::TermId>* scratch, const Emit& emit) {
  scratch->assign(doc.tokens.begin(), doc.tokens.end());
  std::sort(scratch->begin(), scratch->end());
  auto for_each_term = [&](const auto& fn) {
    for (size_t i = 0; i < scratch->size();) {
      size_t j = i + 1;
      while (j < scratch->size() && (*scratch)[j] == (*scratch)[i]) ++j;
      fn((*scratch)[i], static_cast<uint32_t>(j - i));
      i = j;
    }
  };

  double w_d = 1.0;
  if (options.scoring == ScoringModel::kCosine) {
    double norm_sq = 0.0;
    for_each_term([&](wordnet::TermId, uint32_t f_dt) {
      double w = DocTermWeight(f_dt);
      norm_sq += w * w;
    });
    w_d = std::sqrt(norm_sq);
  }

  for_each_term([&](wordnet::TermId term, uint32_t f_dt) {
    double p_dt;
    if (options.scoring == ScoringModel::kCosine) {
      p_dt = DocTermWeight(f_dt) * TermWeight(num_docs, doc_frequency(term)) /
             w_d;
    } else {
      p_dt = Bm25Impact(num_docs, doc_frequency(term), f_dt,
                        static_cast<double>(doc.tokens.size()), avg_doc_len,
                        options.bm25);
    }
    emit(term, p_dt);
  });
}

}  // namespace

Result<BuildOutput> BuildIndex(const corpus::Corpus& corpus,
                               const IndexBuildOptions& options) {
  EMB_RETURN_NOT_OK(options.Validate());
  common::NoteHeavyBuild();
  const size_t num_docs = corpus.document_count();
  if (num_docs == 0) {
    return Status::InvalidArgument("corpus is empty");
  }
  if (corpus.TotalTokens() == 0) {
    return Status::InvalidArgument("corpus contains no indexable tokens");
  }

  const double avg_doc_len =
      static_cast<double>(corpus.TotalTokens()) /
      static_cast<double>(num_docs);
  auto doc_frequency = [&](wordnet::TermId term) {
    return corpus.DocumentFrequency(term);
  };
  std::vector<wordnet::TermId> scratch;

  // Pass 1: every real-valued impact, computed only to find the maximum the
  // quantizer scales by. Nothing is staged; pass 2 recomputes each impact
  // with the same arithmetic.
  double max_impact = 0.0;
  for (const corpus::Document& doc : corpus.documents()) {
    ScoreDocument(doc, num_docs, avg_doc_len, doc_frequency, options, &scratch,
                  [&](wordnet::TermId, double p_dt) {
                    max_impact = std::max(max_impact, p_dt);
                  });
  }
  EMB_ASSIGN_OR_RETURN(ImpactQuantizer quantizer,
                       ImpactQuantizer::Create(options.impact_bits, max_impact));

  // Pass 2: recompute, quantize straight into the final shared lists (each
  // reserved at its exact length f_t), then impact-order every list. The
  // lists are created non-const here and published const when the index
  // is returned, so this function is their only writer.
  auto writable = [](const std::shared_ptr<const std::vector<Posting>>& list) {
    return const_cast<std::vector<Posting>*>(list.get());
  };
  auto lists = std::make_shared<ListMap>();
  for (const corpus::Document& doc : corpus.documents()) {
    ScoreDocument(doc, num_docs, avg_doc_len, doc_frequency, options, &scratch,
                  [&](wordnet::TermId term, double p_dt) {
                    std::shared_ptr<const std::vector<Posting>>& slot =
                        (*lists)[term];
                    if (slot == nullptr) {
                      auto list = std::make_shared<std::vector<Posting>>();
                      list->reserve(corpus.DocumentFrequency(term));
                      slot = std::move(list);
                    }
                    writable(slot)->push_back(
                        Posting{doc.id, quantizer.Quantize(p_dt)});
                  });
  }
  for (auto& [term, list] : *lists) {
    std::vector<Posting>* postings = writable(list);
    std::sort(postings->begin(), postings->end(), PostingOrder);
  }

  return BuildOutput{
      InvertedIndex(num_docs, std::move(lists), options.impact_bits),
      quantizer, max_impact};
}

uint32_t FrozenCorpusStats::DocumentFrequency(wordnet::TermId term) const {
  auto it = doc_frequency.find(term);
  // Unseen at capture time: clamp to 1 so ln(1 + N/f_t) stays finite. The
  // term was absent from the frozen collection, so "rarest possible" is the
  // faithful reading of the frozen statistics.
  return it == doc_frequency.end() ? 1u : std::max(1u, it->second);
}

FrozenCorpusStats CaptureCorpusStats(const corpus::Corpus& corpus) {
  FrozenCorpusStats stats;
  stats.num_docs = corpus.document_count();
  stats.avg_doc_len = stats.num_docs == 0
                          ? 0.0
                          : static_cast<double>(corpus.TotalTokens()) /
                                static_cast<double>(stats.num_docs);
  for (wordnet::TermId term : corpus.DistinctTerms()) {
    stats.doc_frequency[term] = corpus.DocumentFrequency(term);
  }
  return stats;
}

Result<std::unordered_map<wordnet::TermId, std::vector<Posting>>>
BuildDeltaLists(const std::vector<corpus::Document>& docs,
                const FrozenCorpusStats& stats,
                const ImpactQuantizer& quantizer,
                const IndexBuildOptions& options) {
  EMB_RETURN_NOT_OK(options.Validate());
  if (stats.num_docs == 0) {
    return Status::FailedPrecondition("frozen statistics are empty");
  }
  common::NoteHeavyBuild();

  // Scored like BuildIndex, but N / f_t / avg_doc_len come from the frozen
  // snapshot and the quantizer is the frozen one (impacts above the frozen
  // maximum saturate at max_level — acceptable drift until the next full
  // rebuild, and deterministic either way).
  auto doc_frequency = [&](wordnet::TermId term) {
    return stats.DocumentFrequency(term);
  };
  std::vector<wordnet::TermId> scratch;
  std::unordered_map<wordnet::TermId, std::vector<Posting>> lists;
  for (const corpus::Document& doc : docs) {
    ScoreDocument(doc, stats.num_docs, stats.avg_doc_len, doc_frequency,
                  options, &scratch, [&](wordnet::TermId term, double p_dt) {
                    lists[term].push_back(
                        Posting{doc.id, quantizer.Quantize(p_dt)});
                  });
  }
  for (auto& [term, list] : lists) {
    std::sort(list.begin(), list.end(), PostingOrder);
  }
  return lists;
}

InvertedIndex MergeDeltaLists(
    const InvertedIndex& base,
    const std::unordered_map<wordnet::TermId, std::vector<Posting>>& delta,
    size_t new_num_docs) {
  common::NoteHeavyBuild();
  if (delta.empty()) {
    // Nothing lands here (a shard the delta missed): share the whole map.
    return InvertedIndex(new_num_docs, base.lists(), base.impact_bits());
  }
  // Copy-on-write: the successor starts from the base's list pointers, and
  // only the terms the delta touches get a freshly merged list.
  auto merged = std::make_shared<ListMap>(*base.lists());
  for (const auto& [term, fresh] : delta) {
    std::shared_ptr<const std::vector<Posting>>& slot = (*merged)[term];
    if (slot == nullptr) {
      slot = std::make_shared<const std::vector<Posting>>(fresh);
      continue;
    }
    auto out = std::make_shared<std::vector<Posting>>();
    out->reserve(slot->size() + fresh.size());
    std::merge(slot->begin(), slot->end(), fresh.begin(), fresh.end(),
               std::back_inserter(*out), PostingOrder);
    slot = std::move(out);
  }
  return InvertedIndex(new_num_docs, std::move(merged), base.impact_bits());
}

}  // namespace embellish::index
