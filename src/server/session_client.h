// Client-side counterpart of the EmbellishServer: owns one session's keypair
// and embellishment state and speaks the framed wire protocol.
//
// Every query is formulated and encrypted afresh, as Algorithm 3 does per
// query. A genuine term's decoys are a deterministic function of the bucket
// organization (core/session.h), so a repeated genuine-term set shows the
// server the same term multiset; but re-sending the same ciphertexts would
// also show it that the set repeats. Ciphertext equality links queries,
// which the adversary of Section 3.1 (Eq. 1-2) does not see: it observes
// bucket sets only. Under randomized Benaloh encryption, issuing one set
// twice and issuing two sets drawn from the same buckets give frames of the
// same size and kind, and no frame repeats another's bytes.

#ifndef EMBELLISH_SERVER_SESSION_CLIENT_H_
#define EMBELLISH_SERVER_SESSION_CLIENT_H_

#include <memory>
#include <vector>

#include "core/private_retrieval.h"
#include "server/framing.h"

namespace embellish::server {

/// \brief One user session speaking the framed protocol.
class SessionClient {
 public:
  /// \brief Generates the session keypair (deterministic given `seed`).
  ///        `buckets` must outlive the client.
  static Result<SessionClient> Create(
      uint64_t session_id, const core::BucketOrganization* buckets,
      const crypto::BenalohKeyOptions& key_options, uint64_t seed);

  uint64_t session_id() const { return session_id_; }
  const crypto::BenalohPublicKey& public_key() const {
    return keys_->public_key();
  }

  /// \brief The registration frame; send once before any query.
  std::vector<uint8_t> HelloFrame() const;

  /// \brief The framed embellished query for `genuine_terms`, encrypted
  ///        afresh on every call.
  Result<std::vector<uint8_t>> QueryFrame(
      const std::vector<wordnet::TermId>& genuine_terms);

  /// \brief Decodes a server response frame and runs Algorithm 5 post
  ///        filtering; kError frames surface as their transported Status.
  Result<std::vector<index::ScoredDoc>> DecodeResultFrame(
      const std::vector<uint8_t>& response, size_t k);

  /// \brief Cumulative client-side cost accounting (uplink/downlink count
  ///        whole frames; user CPU covers formulation and post filtering).
  const core::RetrievalCosts& costs() const { return costs_; }

 private:
  SessionClient(uint64_t session_id, const core::BucketOrganization* buckets,
                std::unique_ptr<crypto::BenalohKeyPair> keys, uint64_t seed);

  uint64_t session_id_;
  // keys_ lives behind a unique_ptr so the pointers handed to client_ stay
  // stable when the SessionClient itself is moved.
  std::unique_ptr<crypto::BenalohKeyPair> keys_;
  core::PrivateRetrievalClient client_;
  Rng rng_;
  core::RetrievalCosts costs_;
};

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_SESSION_CLIENT_H_
