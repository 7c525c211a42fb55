#include "server/session_client.h"

#include "core/wire_format.h"

namespace embellish::server {

SessionClient::SessionClient(uint64_t session_id,
                             const core::BucketOrganization* buckets,
                             std::unique_ptr<crypto::BenalohKeyPair> keys,
                             uint64_t seed)
    : session_id_(session_id),
      keys_(std::move(keys)),
      client_(buckets, &keys_->public_key(), &keys_->private_key(),
              /*pool=*/nullptr),
      rng_(seed) {}

Result<SessionClient> SessionClient::Create(
    uint64_t session_id, const core::BucketOrganization* buckets,
    const crypto::BenalohKeyOptions& key_options, uint64_t seed) {
  Rng keygen_rng(seed);
  EMB_ASSIGN_OR_RETURN(crypto::BenalohKeyPair keys,
                       crypto::BenalohKeyPair::Generate(key_options,
                                                        &keygen_rng));
  return SessionClient(
      session_id, buckets,
      std::make_unique<crypto::BenalohKeyPair>(std::move(keys)), seed ^ 1);
}

std::vector<uint8_t> SessionClient::HelloFrame() const {
  return EncodeFrame(FrameKind::kHello, session_id_,
                     EncodeHello(keys_->public_key()));
}

Result<std::vector<uint8_t>> SessionClient::QueryFrame(
    const std::vector<wordnet::TermId>& genuine_terms) {
  EMB_ASSIGN_OR_RETURN(core::EmbellishedQuery query,
                       client_.FormulateQuery(genuine_terms, &rng_, &costs_));
  // FormulateQuery charged the payload's wire bytes; charge the whole frame
  // instead.
  costs_.uplink_bytes -= query.WireBytes(keys_->public_key());
  std::vector<uint8_t> frame =
      EncodeFrame(FrameKind::kQuery, session_id_,
                  core::EncodeQuery(query, keys_->public_key()));
  costs_.uplink_bytes += frame.size();
  return frame;
}

Result<std::vector<index::ScoredDoc>> SessionClient::DecodeResultFrame(
    const std::vector<uint8_t>& response, size_t k) {
  EMB_ASSIGN_OR_RETURN(Frame frame, DecodeFrame(response));
  costs_.downlink_bytes += response.size();
  // Error frames are surfaced before the session check: the server answers
  // an undecodable request with session id 0, and the transported status is
  // the information the caller needs.
  if (frame.kind == FrameKind::kError) {
    Status transported;
    EMB_RETURN_NOT_OK(DecodeError(frame.payload, &transported));
    return transported;
  }
  if (frame.session_id != session_id_) {
    return Status::Corruption("response frame for a different session");
  }
  if (frame.kind != FrameKind::kResult) {
    return Status::Corruption("expected a result frame");
  }
  EMB_ASSIGN_OR_RETURN(
      core::EncryptedResult result,
      core::DecodeResult(frame.payload, keys_->public_key()));
  return client_.PostFilter(result, k, &costs_);
}

}  // namespace embellish::server
