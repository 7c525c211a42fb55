#include "core/private_retrieval.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/stopwatch.h"
#include "common/strings.h"

namespace embellish::core {

void RetrievalCosts::Add(const RetrievalCosts& other) {
  server_io_ms += other.server_io_ms;
  server_cpu_ms += other.server_cpu_ms;
  uplink_bytes += other.uplink_bytes;
  downlink_bytes += other.downlink_bytes;
  user_cpu_ms += other.user_cpu_ms;
  decryptions += other.decryptions;
}

namespace {

// A candidate's sort key: (~bound, doc) ascending is CandidateOrder.
uint64_t CandidateKey(uint32_t bound, corpus::DocId doc) {
  return uint64_t{~bound} << 32 | doc;
}

// Sorts (key, payload) pairs by key with an LSD radix sort, a byte per pass,
// that skips the bytes every key shares: a bound and a doc id below 2^16
// take four passes, none of them a branch on the data. On a 544-candidate
// answer it costs about half of a comparison sort of the candidates, which
// mispredicts a branch on every other step.
template <typename T>
void SortByKey(std::vector<std::pair<uint64_t, T>>* items) {
  const size_t n = items->size();
  if (n < 2) return;
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (const auto& item : *items) {
    for (int byte = 0; byte < 8; ++byte) {
      ++counts[byte][item.first >> (8 * byte) & 0xFF];
    }
  }
  std::vector<std::pair<uint64_t, T>> scratch(n);
  for (int byte = 0; byte < 8; ++byte) {
    const int shift = 8 * byte;
    std::array<uint32_t, 256>& start = counts[byte];
    if (start[(*items)[0].first >> shift & 0xFF] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : start) sum += std::exchange(c, sum);
    for (const auto& item : *items) {
      scratch[start[item.first >> shift & 0xFF]++] = item;
    }
    items->swap(scratch);
  }
}

}  // namespace

void SortCandidates(std::vector<EncryptedCandidate>* candidates) {
  std::vector<std::pair<uint64_t, EncryptedCandidate*>> order;
  order.reserve(candidates->size());
  for (EncryptedCandidate& c : *candidates) {
    order.push_back({CandidateKey(c.bound, c.doc), &c});
  }
  SortByKey(&order);
  std::vector<EncryptedCandidate> sorted;
  sorted.reserve(order.size());
  for (const auto& [key, c] : order) sorted.push_back(std::move(*c));
  *candidates = std::move(sorted);
}

PrivateRetrievalServer::PrivateRetrievalServer(
    const index::InvertedIndex* index, const BucketOrganization* buckets,
    const storage::StorageLayout* layout,
    const storage::DiskModelOptions& disk_options,
    const PrivateRetrievalServerOptions& options, ThreadPool* pool)
    : index_(index),
      buckets_(buckets),
      layout_(layout),
      disk_options_(disk_options),
      options_(options),
      pool_(pool) {}

Result<EncryptedResult> PrivateRetrievalServer::Process(
    const EmbellishedQuery& query, const crypto::BenalohPublicKey& pk,
    RetrievalCosts* costs) const {
  if (query.entries.empty()) {
    return Status::InvalidArgument("empty embellished query");
  }

  // --- I/O: fetch each touched bucket once (Section 4: a bucket's lists
  // share disk blocks, so one extent read covers all its terms). ---
  if (layout_ != nullptr) {
    std::unordered_set<size_t> touched;
    for (const EmbellishedTerm& e : query.entries) {
      auto where = buckets_->Locate(e.term);
      if (where.ok()) touched.insert(where->bucket);
    }
    storage::SimulatedDisk disk(disk_options_);
    for (size_t b : touched) {
      EMB_RETURN_NOT_OK(layout_->ChargeGroupRead(b, &disk));
    }
    if (costs != nullptr) costs->server_io_ms += disk.accumulated_ms();
  }

  // --- CPU: Algorithm 4 proper. ---
  //
  // Entries are independent until the per-document merge (line 5), and
  // modular multiplication is commutative, so each worker accumulates into a
  // private map and the maps merge under a lock — the final residues are
  // bit-identical to serial evaluation in query order.
  CpuStopwatch serial_cpu;
  const bignum::MontgomeryContext& mont = pk.mont();
  const size_t k = mont.limb_count();
  const uint64_t* mont_one = mont.One().data();

  // Dense work list so the parallel loop indexes an array, not a filtered
  // iteration.
  struct EntryWork {
    const std::vector<index::Posting>* list;
    const bignum::BigInt* indicator;
  };
  std::vector<EntryWork> work;
  work.reserve(query.entries.size());
  for (const EmbellishedTerm& entry : query.entries) {
    const std::vector<index::Posting>* list = index_->postings(entry.term);
    if (list == nullptr || list->empty()) continue;
    work.push_back(EntryWork{list, &entry.indicator.value});
  }

  // Per document, k + 1 words: the k limbs of E(score) in Montgomery form,
  // then the sum of the impacts of its postings over every entry, genuine
  // or decoy (its bound B_d). The bound rides in the score's allocation, so
  // a document still costs one map node and one allocation.
  std::unordered_map<corpus::DocId, std::vector<uint64_t>> acc;
  std::mutex acc_mu;

  auto process_entries = [&](size_t begin, size_t end) {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::unordered_map<corpus::DocId, std::vector<uint64_t>> local;
    std::vector<uint64_t> c_mont(k);
    std::vector<uint64_t> powered(k);
    std::vector<uint64_t> table;  // flat power table, grows once per worker

    for (size_t w = begin; w < end; ++w) {
      const std::vector<index::Posting>& list = *work[w].list;
      mont.ToMontgomeryInto(*work[w].indicator, c_mont.data(), &scratch);

      // E(u)^p for the discretized impacts p in [1, 255]. For long lists a
      // power table turns each posting into a single MontMul; short lists
      // use direct square-and-multiply to avoid the table's setup cost.
      uint8_t max_impact = 0;
      for (const index::Posting& p : list) {
        max_impact = std::max(max_impact, p.impact);
      }
      const bool use_table = options_.use_power_table && list.size() >= 64;
      if (use_table) {
        if (table.size() < (max_impact + 1) * k) {
          table.resize((max_impact + 1) * k);
        }
        std::memcpy(table.data(), mont_one, k * sizeof(uint64_t));
        for (uint32_t e = 1; e <= max_impact; ++e) {
          mont.MontMulInto(table.data() + (e - 1) * k, c_mont.data(),
                           table.data() + e * k, &scratch);
        }
      }

      for (const index::Posting& p : list) {
        const uint64_t* pw;
        if (use_table) {
          pw = table.data() + p.impact * k;
        } else {
          std::memcpy(powered.data(), mont_one, k * sizeof(uint64_t));
          for (int bit = std::bit_width(p.impact); bit-- > 0;) {
            mont.MontMulInto(powered.data(), powered.data(), powered.data(),
                             &scratch);
            if ((p.impact >> bit) & 1) {
              mont.MontMulInto(powered.data(), c_mont.data(), powered.data(),
                               &scratch);
            }
          }
          pw = powered.data();
        }
        auto [it, inserted] = local.try_emplace(p.doc);
        std::vector<uint64_t>& value = it->second;
        if (inserted) {
          value.resize(k + 1);
          std::memcpy(value.data(), pw, k * sizeof(uint64_t));
        } else {
          mont.MontMulInto(value.data(), pw, value.data(), &scratch);  // line 5
        }
        value[k] += p.impact;
      }
    }

    std::lock_guard<std::mutex> lock(acc_mu);
    for (auto& [doc, value] : local) {
      auto [it, inserted] = acc.try_emplace(doc, std::move(value));
      if (!inserted) {
        mont.MontMulInto(it->second.data(), value.data(), it->second.data(),
                         &scratch);
        it->second[k] += value[k];
      }
    }
  };

  double cpu_ms = serial_cpu.ElapsedMillis();
  serial_cpu.Restart();
  if (pool_ != nullptr) {
    cpu_ms += pool_->ParallelFor(0, work.size(), /*min_grain=*/1,
                                 process_entries);
    serial_cpu.Restart();
  } else {
    process_entries(0, work.size());
  }

  // (bound desc, doc asc): the order Algorithm 5's threshold reads, and a
  // canonical one, so results are deterministic on the wire. The sort key
  // carries the bound and the doc id.
  std::vector<std::pair<uint64_t, const uint64_t*>> order;
  order.reserve(acc.size());
  for (const auto& [doc, value] : acc) {
    // A document whose postings all carry impact 0 cannot score.
    if (value[k] == 0) continue;
    const auto bound =
        static_cast<uint32_t>(std::min<uint64_t>(value[k], UINT32_MAX));
    order.push_back({CandidateKey(bound, doc), value.data()});
  }
  SortByKey(&order);
  EncryptedResult result;
  result.candidates.reserve(order.size());
  {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::vector<uint64_t> plain(k);
    for (const auto& [key, score] : order) {
      mont.FromMontgomeryInto(score, plain.data(), &scratch);
      result.candidates.push_back(EncryptedCandidate{
          static_cast<corpus::DocId>(key), ~static_cast<uint32_t>(key >> 32),
          crypto::BenalohCiphertext{bignum::BigInt::FromLimbs(plain)}});
    }
  }
  cpu_ms += serial_cpu.ElapsedMillis();

  if (costs != nullptr) {
    costs->server_cpu_ms += cpu_ms;
    costs->downlink_bytes += result.WireBytes(pk);
  }
  return result;
}

PrivateRetrievalClient::PrivateRetrievalClient(
    const BucketOrganization* buckets,
    const crypto::BenalohPublicKey* public_key,
    const crypto::BenalohPrivateKey* private_key, ThreadPool* pool)
    : embellisher_(buckets, public_key, pool),
      public_key_(public_key),
      private_key_(private_key) {}

Result<EmbellishedQuery> PrivateRetrievalClient::FormulateQuery(
    const std::vector<wordnet::TermId>& genuine_terms, Rng* rng,
    RetrievalCosts* costs) const {
  CpuStopwatch cpu;
  EMB_ASSIGN_OR_RETURN(EmbellishedQuery query,
                       embellisher_.Embellish(genuine_terms, rng));
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
    costs->uplink_bytes += query.WireBytes(*public_key_);
  }
  return query;
}

Result<std::vector<index::ScoredDoc>> PrivateRetrievalClient::PostFilter(
    const EncryptedResult& result, size_t k, RetrievalCosts* costs) const {
  CpuStopwatch cpu;
  // `top` holds the best k positive scores so far as a heap whose front is
  // the k-th. A candidate's score is at most its bound, and every later
  // candidate's (bound, doc) comes after its own, so once the k-th ranks
  // before (bound, doc) no candidate left can displace it.
  const auto ranks_before = [](const index::ScoredDoc& a,
                               const index::ScoredDoc& b) {
    return a.score != b.score ? a.score > b.score : a.doc < b.doc;
  };
  std::vector<index::ScoredDoc> top;
  uint64_t decrypted = 0;
  for (size_t i = 0; i < result.candidates.size() && k > 0; ++i) {
    const EncryptedCandidate& cand = result.candidates[i];
    if (i > 0 && !CandidateOrder(result.candidates[i - 1], cand)) {
      return Status::Corruption(StringPrintf(
          "PR candidates leave (bound desc, doc asc) order at %zu", i));
    }
    if (top.size() == k &&
        !ranks_before(index::ScoredDoc{cand.doc, cand.bound}, top.front())) {
      break;
    }
    EMB_ASSIGN_OR_RETURN(uint64_t score, private_key_->Decrypt(cand.score));
    ++decrypted;
    if (score > cand.bound) {
      return Status::Corruption(StringPrintf(
          "PR candidate %u decrypts to score %llu above its bound %u",
          cand.doc, static_cast<unsigned long long>(score), cand.bound));
    }
    if (score == 0) continue;
    top.push_back(index::ScoredDoc{cand.doc, score});
    std::push_heap(top.begin(), top.end(), ranks_before);
    if (top.size() > k) {
      std::pop_heap(top.begin(), top.end(), ranks_before);
      top.pop_back();
    }
  }
  index::SortByScore(&top);
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
    costs->decryptions += decrypted;
  }
  return top;
}

Result<std::vector<index::ScoredDoc>> RunPrivateQuery(
    const PrivateRetrievalClient& client, const PrivateRetrievalServer& server,
    const crypto::BenalohPublicKey& pk,
    const std::vector<wordnet::TermId>& genuine_terms, size_t k, Rng* rng,
    RetrievalCosts* costs) {
  EMB_ASSIGN_OR_RETURN(EmbellishedQuery query,
                       client.FormulateQuery(genuine_terms, rng, costs));
  EMB_ASSIGN_OR_RETURN(EncryptedResult encrypted,
                       server.Process(query, pk, costs));
  return client.PostFilter(encrypted, k, costs);
}

}  // namespace embellish::core
