// Server loop walkthrough: the framed request/response protocol end to end.
//
//   1. build a lexicon, bucket organization and impact-ordered index;
//   2. stand up an EmbellishServer with a thread pool;
//   3. register two sessions via hello frames;
//   4. issue embellished queries through the wire — including a repeated
//      one, which goes out as different bytes of the same size, so the
//      server cannot tell that it repeats;
//   5. show that a corrupted frame gets a transported error, not a crash;
//   6. print the server's cost accounting.

#include <cstdio>

#include "embellish.h"

using namespace embellish;

int main() {
  // ---- 1. Substrate: lexicon, buckets, corpus, index ----
  wordnet::SyntheticWordNetOptions wo;
  wo.target_term_count = 2000;
  wo.seed = 42;
  auto lexicon = wordnet::GenerateSyntheticWordNet(wo);
  if (!lexicon.ok()) return 1;

  auto specificity = core::SpecificityMap::FromHypernymDepth(*lexicon);
  auto sequences = core::SequenceDictionary(*lexicon);
  core::BucketizerOptions bo;
  bo.bucket_size = 4;
  bo.segment_size = 64;
  auto buckets = core::FormBuckets(sequences, specificity, bo);
  if (!buckets.ok()) return 1;

  corpus::SyntheticCorpusOptions co;
  co.num_docs = 300;
  co.seed = 43;
  auto corp = corpus::GenerateSyntheticCorpus(*lexicon, co);
  if (!corp.ok()) return 1;
  auto built = index::BuildIndex(*corp, {});
  if (!built.ok()) return 1;
  std::printf("substrate: %zu terms, %zu buckets, %zu docs indexed\n",
              lexicon->term_count(), buckets->bucket_count(),
              corp->document_count());

  // ---- 2. The server: batched dispatch on a thread pool ----
  ThreadPool pool(4);
  server::EmbellishServer srv(&built->index, &*buckets, nullptr, {}, &pool);

  // ---- 3. Two sessions say hello (registering their public keys) ----
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  auto alice = server::SessionClient::Create(1, &*buckets, ko, /*seed=*/7);
  auto bob = server::SessionClient::Create(2, &*buckets, ko, /*seed=*/8);
  if (!alice.ok() || !bob.ok()) return 1;
  srv.HandleFrame(alice->HelloFrame());
  srv.HandleFrame(bob->HelloFrame());
  std::printf("sessions registered: %zu\n", srv.session_count());

  // ---- 4. Queries through the wire ----
  auto terms = built->index.IndexedTerms();
  std::vector<wordnet::TermId> alice_terms{terms[10], terms[25]};
  std::vector<wordnet::TermId> bob_terms{terms[40]};

  // Returns the request frame sent (empty on failure).
  auto run = [&](server::SessionClient& who, const char* name,
                 const std::vector<wordnet::TermId>& genuine) {
    auto request = who.QueryFrame(genuine);
    if (!request.ok()) return std::vector<uint8_t>{};
    auto response = srv.HandleFrame(*request);
    auto top = who.DecodeResultFrame(response, /*k=*/5);
    if (!top.ok()) {
      std::printf("  %s: error: %s\n", name, top.status().ToString().c_str());
      return std::vector<uint8_t>{};
    }
    std::printf("  %s: %zu-byte request -> %zu-byte response, top doc", name,
                request->size(), response.size());
    if (!top->empty()) {
      std::printf(" %u (score %llu)", (*top)[0].doc,
                  static_cast<unsigned long long>((*top)[0].score));
    }
    std::printf("\n");
    return std::move(*request);
  };

  std::printf("first round:\n");
  auto alice_first = run(*alice, "alice", alice_terms);
  run(*bob, "bob", bob_terms);

  // A repeated genuine-term set: session-consistent embellishment produces
  // the same co-bucket decoy set, but the indicators are encrypted afresh,
  // so the server sees a frame of the same size and no repeated bytes.
  std::printf("alice repeats her query:\n");
  auto alice_again = run(*alice, "alice", alice_terms);
  const bool same_size = alice_first.size() == alice_again.size();
  const bool same_bytes = alice_first == alice_again;
  std::printf("  repeated request: same size %s, same bytes %s\n",
              same_size ? "yes" : "no", same_bytes ? "yes" : "no");
  if (alice_first.empty() || !same_size || same_bytes) return 1;

  // ---- 5. A corrupted frame is answered, not fatal ----
  auto request = alice->QueryFrame(alice_terms);
  if (!request.ok()) return 1;
  (*request)[server::kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  auto response = srv.HandleFrame(*request);
  auto frame = server::DecodeFrame(response);
  if (frame.ok() && frame->kind == server::FrameKind::kError) {
    Status transported;
    if (server::DecodeError(frame->payload, &transported).ok()) {
      std::printf("corrupted frame -> %s\n",
                  transported.ToString().c_str());
    }
  }

  // ---- 6. Accounting ----
  auto stats = srv.stats();
  std::printf("server: %llu frames, %llu queries, %llu errors, "
              "%.2f ms CPU, %llu uplink B, %llu downlink B\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.errors),
              stats.server_cpu_ms,
              static_cast<unsigned long long>(stats.uplink_bytes),
              static_cast<unsigned long long>(stats.downlink_bytes));
  return 0;
}
