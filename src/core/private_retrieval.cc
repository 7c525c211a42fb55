#include "core/private_retrieval.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"

namespace embellish::core {

void RetrievalCosts::Add(const RetrievalCosts& other) {
  server_io_ms += other.server_io_ms;
  server_cpu_ms += other.server_cpu_ms;
  uplink_bytes += other.uplink_bytes;
  downlink_bytes += other.downlink_bytes;
  user_cpu_ms += other.user_cpu_ms;
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

  // Accumulators in Montgomery form keyed by document.
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
        if (inserted) {
          it->second.assign(pw, pw + k);
        } else {
          mont.MontMulInto(it->second.data(), pw, it->second.data(),
                           &scratch);  // line 5
        }
      }
    }

    std::lock_guard<std::mutex> lock(acc_mu);
    for (auto& [doc, value] : local) {
      auto [it, inserted] = acc.try_emplace(doc, std::move(value));
      if (!inserted) {
        mont.MontMulInto(it->second.data(), value.data(), it->second.data(),
                         &scratch);
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

  EncryptedResult result;
  result.candidates.reserve(acc.size());
  {
    bignum::MontgomeryContext::Scratch scratch(mont);
    std::vector<uint64_t> plain(k);
    for (auto& [doc, score_mont] : acc) {
      mont.FromMontgomeryInto(score_mont.data(), plain.data(), &scratch);
      result.candidates.push_back(EncryptedCandidate{
          doc, crypto::BenalohCiphertext{bignum::BigInt::FromLimbs(plain)}});
    }
  }
  // Canonical order so results are deterministic on the wire.
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const EncryptedCandidate& a, const EncryptedCandidate& b) {
              return a.doc < b.doc;
            });
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
  std::vector<index::ScoredDoc> scored;
  scored.reserve(result.candidates.size());
  for (const EncryptedCandidate& cand : result.candidates) {
    EMB_ASSIGN_OR_RETURN(uint64_t score, private_key_->Decrypt(cand.score));
    if (score > 0) {
      scored.push_back(index::ScoredDoc{cand.doc, score});
    }
  }
  index::SortByScore(&scored);
  if (scored.size() > k) scored.resize(k);
  if (costs != nullptr) {
    costs->user_cpu_ms += cpu.ElapsedMillis();
  }
  return scored;
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
