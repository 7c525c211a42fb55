// Byte-level wire formats for the PR protocol messages.
//
// The §5.2 traffic metric counts exactly these encodings. Layouts (all
// integers big-endian):
//
//   EmbellishedQuery:  [u32 entry_count] then per entry
//                      [u32 term_id][ciphertext: key_bytes]
//   EncryptedResult:   [u32 candidate_count][u32 top bound][u8 Rice k],
//                      then one bit-stream, MSB-first, with per candidate
//                      (in bound desc, doc asc order) a unary bound drop
//                      from the previous candidate's bound (from the top
//                      bound for the first) and a Rice(k)-coded value: the
//                      doc id where a bound run starts, else the doc gap
//                      less one; zero bits to a byte boundary; then per
//                      candidate, in the same order, [ciphertext: key_bytes]
//
// The result's header and stream are a core/pir_retrieval Rice list, the
// codec of the PIR columns, with a 32-bit top value; the encoder takes the
// smallest k in [0, 31] with the fewest bits. The §5.2 result carried
// [u32 doc_id][ciphertext] per candidate, 36 bytes at 256-bit keys; this one
// carries each candidate's bound as well and is smaller, ~34 bytes.
//
// Decoding validates counts, sizes and ciphertext ranges and returns
// Status::Corruption on malformed input — exercised by the failure
// injection tests.

#ifndef EMBELLISH_CORE_WIRE_FORMAT_H_
#define EMBELLISH_CORE_WIRE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "core/embellisher.h"
#include "core/private_retrieval.h"

namespace embellish::core {

/// \brief Serializes an embellished query for the uplink.
std::vector<uint8_t> EncodeQuery(const EmbellishedQuery& query,
                                 const crypto::BenalohPublicKey& pk);

/// \brief Parses and validates an embellished query.
Result<EmbellishedQuery> DecodeQuery(const std::vector<uint8_t>& bytes,
                                     const crypto::BenalohPublicKey& pk);

/// \brief Serializes an encrypted result for the downlink. Its candidates
///        must be in strict CandidateOrder with every bound at least 1, as
///        PrivateRetrievalServer::Process, MergeShardResults and
///        DecodeResult give them; the layout cannot carry any other result,
///        and for one the encoder returns no bytes, which every decoder
///        refuses.
std::vector<uint8_t> EncodeResult(const EncryptedResult& result,
                                  const crypto::BenalohPublicKey& pk);

/// \brief Parses and validates an encrypted result: Corruption as
///        DecodeRiceList gives it for the header and stream ("PR result
///        ..."), when the count's ciphertexts exceed the payload, when
///        padding bits are not zero, when the size is not header + stream +
///        count x key_bytes, or when a ciphertext is out of range.
Result<EncryptedResult> DecodeResult(const std::vector<uint8_t>& bytes,
                                     const crypto::BenalohPublicKey& pk);

}  // namespace embellish::core

#endif  // EMBELLISH_CORE_WIRE_FORMAT_H_
