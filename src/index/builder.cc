#include "index/builder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <utility>

#include "common/answer_path.h"
#include "common/strings.h"

namespace embellish::index {

Status IndexBuildOptions::Validate() const {
  if (impact_bits < 2 || impact_bits > 8) {
    return Status::InvalidArgument(
        "impact_bits out of [2, 8] (a posting holds its impact in one byte)");
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

// Document chunks per pool thread in a pooled build: enough for the pool to
// balance uneven chunks, few enough that the per-chunk count tables (one
// vocabulary-sized row each) stay small.
constexpr size_t kBuildChunksPerThread = 4;

// A posting at a quantizer level. Validate caps impact_bits at 8, so every
// level (at most 2^8 - 1) fits the posting's impact byte.
Posting QuantizedPosting(corpus::DocId doc, uint32_t level) {
  return Posting{doc, static_cast<uint8_t>(level)};
}

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
                               const IndexBuildOptions& options,
                               ThreadPool* pool) {
  EMB_RETURN_NOT_OK(options.Validate());
  // The build is charged to the calling thread once, here; the chunks
  // below run on pool threads and never note a build themselves.
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
  const std::vector<uint32_t>& doc_frequency = corpus.DocumentFrequencies();
  const size_t vocab = doc_frequency.size();
  auto frequency_of = [&](wordnet::TermId term) {
    return doc_frequency[term];
  };

  // Contiguous document chunks, scored independently. Chunk c owns row c
  // of `slots`: its per-term posting count after pass 1, its per-term write
  // cursor in pass 2. The rows are allocated here, on the calling thread,
  // so no worker's malloc arena keeps them resident after the build. They
  // are separate vocabulary-sized allocations rather than one table: glibc
  // raises its mmap and trim thresholds to the size of any freed mmap'd
  // block, and a ~2 MB table freed here made every thread's arena keep
  // more free memory resident while serving (+3.6 MiB peak on perfbench's
  // sharded_ingest).
  const size_t chunks =
      pool == nullptr
          ? 1
          : std::min(num_docs, kBuildChunksPerThread * pool->num_threads());
  auto chunk_docs = [&](size_t c) {
    return std::pair<size_t, size_t>(c * num_docs / chunks,
                                     (c + 1) * num_docs / chunks);
  };
  auto for_each_chunk = [&](const std::function<void(size_t)>& fn) {
    if (pool == nullptr) {
      fn(0);
      return;
    }
    pool->ParallelFor(0, chunks, 1, [&](size_t begin, size_t end) {
      for (size_t c = begin; c < end; ++c) fn(c);
    });
  };
  std::vector<std::vector<uint32_t>> slots(chunks,
                                          std::vector<uint32_t>(vocab, 0));
  std::vector<double> chunk_max(chunks, 0.0);

  // Pass 1: every real-valued impact, computed only to find the maximum the
  // quantizer scales by, plus each chunk's per-term counts. Nothing is
  // staged; pass 2 recomputes each impact with the same arithmetic. The
  // maximum over chunk maxima is the serial maximum: max ignores order.
  for_each_chunk([&](size_t c) {
    uint32_t* counts = slots[c].data();
    std::vector<wordnet::TermId> scratch;
    double max_impact = 0.0;
    const auto [first, last] = chunk_docs(c);
    for (size_t d = first; d < last; ++d) {
      ScoreDocument(corpus.document(static_cast<corpus::DocId>(d)), num_docs,
                    avg_doc_len, frequency_of, options, &scratch,
                    [&](wordnet::TermId term, double p_dt) {
                      max_impact = std::max(max_impact, p_dt);
                      ++counts[term];
                    });
    }
    chunk_max[c] = max_impact;
  });
  const double max_impact =
      *std::max_element(chunk_max.begin(), chunk_max.end());
  EMB_ASSIGN_OR_RETURN(ImpactQuantizer quantizer,
                       ImpactQuantizer::Create(options.impact_bits, max_impact));

  // Sizing: each chunk's counts become its start offsets in every list (an
  // exclusive prefix sum in chunk order), and each list is allocated at its
  // exact length f_t. Counts that do not add up to f_t would write outside
  // a list, so they fail the build.
  std::vector<uint32_t> filled(vocab, 0);
  for (size_t c = 0; c < chunks; ++c) {
    uint32_t* row = slots[c].data();
    for (size_t t = 0; t < vocab; ++t) {
      const uint32_t count = row[t];
      row[t] = filled[t];
      filled[t] += count;
    }
  }
  // The lists are created non-const here and published const when the
  // index is returned, so this function is their only writer.
  auto lists = std::make_shared<ListMap>(vocab);
  std::vector<Posting*> list_data(vocab, nullptr);
  std::vector<wordnet::TermId> terms;
  for (size_t t = 0; t < vocab; ++t) {
    if (filled[t] != doc_frequency[t]) {
      return Status::Internal(StringPrintf(
          "term %zu: chunks counted %u postings, f_t is %u", t, filled[t],
          doc_frequency[t]));
    }
    if (doc_frequency[t] == 0) continue;
    auto list = std::make_shared<std::vector<Posting>>(doc_frequency[t]);
    list_data[t] = list->data();
    lists->Set(static_cast<wordnet::TermId>(t), std::move(list));
    terms.push_back(static_cast<wordnet::TermId>(t));
  }

  // Pass 2: recompute and quantize each posting straight into its slot.
  // Chunks write disjoint slot ranges, in chunk order within every list,
  // so each list comes out in document order, as a serial append leaves it.
  for_each_chunk([&](size_t c) {
    uint32_t* cursor = slots[c].data();
    std::vector<wordnet::TermId> scratch;
    const auto [first, last] = chunk_docs(c);
    for (size_t d = first; d < last; ++d) {
      const corpus::Document& doc =
          corpus.document(static_cast<corpus::DocId>(d));
      ScoreDocument(doc, num_docs, avg_doc_len, frequency_of, options,
                    &scratch, [&](wordnet::TermId term, double p_dt) {
                      list_data[term][cursor[term]++] =
                          QuantizedPosting(doc.id, quantizer.Quantize(p_dt));
                    });
    }
  });

  // Impact-order every list. Doc ids are unique within a list, so
  // PostingOrder is a strict total order and the sorted list does not
  // depend on which thread sorts it. Lists are dealt largest first,
  // round-robin over the chunks, so every chunk starts on a long list.
  std::sort(terms.begin(), terms.end(),
            [&](wordnet::TermId a, wordnet::TermId b) {
              return doc_frequency[a] > doc_frequency[b];
            });
  for_each_chunk([&](size_t c) {
    for (size_t i = c; i < terms.size(); i += chunks) {
      Posting* data = list_data[terms[i]];
      std::sort(data, data + doc_frequency[terms[i]], PostingOrder);
    }
  });

  return BuildOutput{
      InvertedIndex(num_docs, std::move(lists), options.impact_bits),
      quantizer, max_impact};
}

uint32_t FrozenCorpusStats::DocumentFrequency(wordnet::TermId term) const {
  // Unseen at capture time: clamp to 1 so ln(1 + N/f_t) stays finite. The
  // term was absent from the frozen collection, so "rarest possible" is the
  // faithful reading of the frozen statistics.
  return term < doc_frequency.size() ? std::max(1u, doc_frequency[term]) : 1u;
}

FrozenCorpusStats CaptureCorpusStats(const corpus::Corpus& corpus) {
  FrozenCorpusStats stats;
  stats.num_docs = corpus.document_count();
  stats.avg_doc_len = stats.num_docs == 0
                          ? 0.0
                          : static_cast<double>(corpus.TotalTokens()) /
                                static_cast<double>(stats.num_docs);
  stats.doc_frequency = corpus.DocumentFrequencies();
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
                        QuantizedPosting(doc.id, quantizer.Quantize(p_dt)));
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
    // Nothing lands here (a shard the delta missed): share the whole table.
    return InvertedIndex(new_num_docs, base.lists(), base.impact_bits());
  }
  // Copy-on-write: the successor starts from a flat copy of the base's
  // list pointers, grown once to hold every delta term, and only the terms
  // the delta touches get a freshly merged list.
  auto merged = std::make_shared<ListMap>(*base.lists());
  size_t table_size = 0;
  for (const auto& [term, fresh] : delta) {
    table_size = std::max(table_size, size_t{term} + 1);
  }
  merged->GrowTo(table_size);
  for (const auto& [term, fresh] : delta) {
    const std::vector<Posting>* old = merged->Find(term);
    if (old == nullptr) {
      merged->Set(term, std::make_shared<const std::vector<Posting>>(fresh));
      continue;
    }
    auto out = std::make_shared<std::vector<Posting>>();
    out->reserve(old->size() + fresh.size());
    std::merge(old->begin(), old->end(), fresh.begin(), fresh.end(),
               std::back_inserter(*out), PostingOrder);
    merged->Set(term, std::move(out));
  }
  return InvertedIndex(new_num_docs, std::move(merged), base.impact_bits());
}

}  // namespace embellish::index
