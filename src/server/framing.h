// Versioned request/response framing for the EmbellishServer request loop.
//
// core/wire_format encodes the protocol *payloads* (embellished queries and
// encrypted results) exactly as the paper's §5.2 traffic metric counts them.
// This layer wraps those payloads in a self-describing envelope so a server
// can accept untrusted bytes from many concurrent sessions:
//
//   offset  size  field
//   0       4     magic 0x454D4251 ("EMBQ"), big-endian
//   4       1     version (kProtocolVersion)
//   5       1     kind (FrameKind)
//   6       2     flags, must be zero (reserved for future use)
//   8       8     session id, big-endian
//   16      4     payload size in bytes, big-endian
//   20      4     FNV-1a 32 checksum over bytes [0, 20) plus the payload
//   24      n     payload
//
// The checksum covers the header fields as well as the payload (with the
// checksum field itself excluded by construction), so any single corrupted
// bit anywhere in a frame is detected. DecodeFrame validates sizes before
// touching any attacker-controlled length and returns Status::Corruption on
// every malformed input — exercised bit-by-bit by the fuzz tests.
//
// Payload codecs for the frame kinds that do not already have one in
// core/wire_format (session hello, transported errors, PIR execs) live here
// too.

#ifndef EMBELLISH_SERVER_FRAMING_H_
#define EMBELLISH_SERVER_FRAMING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/benaloh.h"
#include "crypto/pir.h"
#include "index/topk.h"

namespace embellish::server {

inline constexpr uint32_t kFrameMagic = 0x454D4251;  // "EMBQ"
// Version 4: PR results carry their candidates in (bound desc, doc asc)
// order as a Rice-coded (bound, doc) stream ahead of the ciphertexts
// (core/wire_format); a version-3 peer would read the top bound and stream
// as doc ids and ciphertexts. Version 3 made PIR columns impact-ordered and
// Rice-coded (core/pir_retrieval).
inline constexpr uint8_t kProtocolVersion = 4;
inline constexpr size_t kFrameHeaderBytes = 24;

/// \brief Upper bound on each big-integer field of a hello payload: the
///        widest modulus BenalohKeyPair::Generate makes. A session's key
///        sizes the server's work on each of its PR queries, superlinearly in
///        its width, and the server keeps every registered key resident, so a
///        key pins 1 KiB at most.
inline constexpr size_t kMaxHelloValueBytes =
    crypto::kMaxBenalohModulusBits / 8;

/// \brief What a frame carries. Requests flow client -> server, responses
///        server -> client.
enum class FrameKind : uint8_t {
  kHello = 1,          ///< request: register the session's Benaloh public key
  kHelloOk = 2,        ///< response: registration acknowledged (topology)
  kQuery = 3,          ///< request: core::EncodeQuery bytes (PR scheme)
  kResult = 4,         ///< response: core::EncodeResult bytes
  kPirQuery = 5,       ///< request: one PIR execution against one bucket
  kPirResult = 6,      ///< response: the PIR gamma vector
  kError = 7,          ///< response: transported Status
  kTopKQuery = 8,      ///< request: plaintext top-k over the inverted index
  kTopKResult = 9,     ///< response: the ranked (doc, score) prefix
  kShardRequest = 10,  ///< coordinator -> shard: shard-scoped envelope
  kShardResponse = 11, ///< shard -> coordinator: envelope echo + inner frame
  kDegradedResult = 12,  ///< response: partial merge + missing-slice marker
};

/// \brief True for the kinds this protocol version defines.
bool IsKnownFrameKind(uint8_t kind);

/// \brief A decoded frame.
struct Frame {
  uint8_t version = kProtocolVersion;
  FrameKind kind = FrameKind::kError;
  uint64_t session_id = 0;
  std::vector<uint8_t> payload;
};

/// \brief FNV-1a 32-bit hash (the frame checksum primitive).
uint32_t Fnv1a32(const uint8_t* data, size_t size, uint32_t seed = 2166136261u);

/// \brief Wraps `payload` in a checksummed envelope.
std::vector<uint8_t> EncodeFrame(FrameKind kind, uint64_t session_id,
                                 const std::vector<uint8_t>& payload);

/// \brief Parses and validates an envelope; Corruption on any malformed
///        input (short, trailing garbage, bad magic/version/flags/kind, or
///        checksum mismatch).
Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes);

// --- Payload codecs ---------------------------------------------------------

/// \brief Hello payload: the session's Benaloh public key
///        ([u32 n_size][n][u32 g_size][g][u64 r], all big-endian).
std::vector<uint8_t> EncodeHello(const crypto::BenalohPublicKey& pk);
Result<crypto::BenalohPublicKey> DecodeHello(
    const std::vector<uint8_t>& payload);

/// \brief HelloOk payload: the server's retrieval topology
///        ([u32 shard_count][u32 bucket_count], big-endian). A client needs
///        both to address PIR executions behind a ShardCoordinator (the
///        bucket field of kPirQuery carries shard * bucket_count + bucket)
///        — and a client that skips this discovery would otherwise silently
///        score only shard 0's fragment of every list. Decoding refuses any
///        other length, the empty payload included, and a zero shard count,
///        as Corruption.
std::vector<uint8_t> EncodeHelloOk(size_t shard_count, size_t bucket_count);
struct HelloOkPayload {
  size_t shard_count = 1;
  size_t bucket_count = 0;
};
Result<HelloOkPayload> DecodeHelloOk(const std::vector<uint8_t>& payload);

/// \brief Error payload: [u8 status_code][message bytes].
std::vector<uint8_t> EncodeError(const Status& status);

/// \brief Decodes an error payload; Corruption when it is malformed,
///        otherwise OK with the transported (always non-OK) status in `out`.
Status DecodeError(const std::vector<uint8_t>& payload, Status* out);

/// \brief PIR query payload:
///        [u32 bucket][u32 value_size][u32 col_count][n][q_0]..[q_{c-1}],
///        every value a big-endian residue padded to value_size bytes.
///        Decoding refuses a value_size above crypto::kMaxPirModulusBits / 8
///        as Corruption.
std::vector<uint8_t> EncodePirQuery(size_t bucket,
                                    const crypto::PirQuery& query);
struct PirQueryPayload {
  size_t bucket = 0;
  crypto::PirQuery query;
};
Result<PirQueryPayload> DecodePirQuery(const std::vector<uint8_t>& payload);

/// \brief A whole kPirResult frame, equal to EncodeFrame(kPirResult,
///        session_id, payload) for the payload
///        [u32 value_size][u32 row_count][gamma...], every gamma a
///        big-endian residue padded to value_size bytes. The response's flat
///        buffer is copied once, straight into the frame, and checksummed in
///        the same single pass as the header.
std::vector<uint8_t> EncodePirResultFrame(uint64_t session_id,
                                          const crypto::PirResponse& response);

/// \brief Parses a kPirResult payload. Checks the header against the bytes
///        present (value_size > 0, exactly row_count residues) and copies
///        the residues once.
Result<crypto::PirResponse> DecodePirResponse(
    const std::vector<uint8_t>& payload);

/// \brief Plaintext top-k query payload:
///        [u32 k][u32 term_count][u32 term_id]... The answer is the full
///        accumulation prefix (EvaluateFull truncated to k) on every server
///        configuration, so the response bytes are independent of sharding —
///        the coordinator merge and the monolithic evaluation cannot differ.
std::vector<uint8_t> EncodeTopKQuery(size_t k,
                                     const std::vector<wordnet::TermId>& terms);
struct TopKQueryPayload {
  size_t k = 0;
  std::vector<wordnet::TermId> terms;
};
Result<TopKQueryPayload> DecodeTopKQuery(const std::vector<uint8_t>& payload);

/// \brief Top-k response payload: [u32 count]([u32 doc][u64 score])..., in
///        canonical (score desc, doc asc) order.
std::vector<uint8_t> EncodeTopKResult(const std::vector<index::ScoredDoc>& docs);
Result<std::vector<index::ScoredDoc>> DecodeTopKResult(
    const std::vector<uint8_t>& payload);

// --- Shard envelope ---------------------------------------------------------

/// \brief The shard-scoped envelope a coordinator wraps downstream requests
///        in (kShardRequest) and a shard echoes on its responses
///        (kShardResponse):
///
///          [u32 shard_id][u64 coordinator_epoch][u64 seq][u32 inner_size]
///          [inner frame bytes]
///
///        The envelope rides inside a checksummed frame, so every single-bit
///        flip anywhere in it is detected at the frame layer; the explicit
///        inner_size additionally pins the inner frame's extent against
///        truncation that forges a shorter-but-valid outer payload. The
///        epoch fences out stale coordinators after a takeover, and the seq
///        echo lets the coordinator detect reordered or replayed responses
///        on a transport. An empty inner frame (inner_size 0) is a ping: the
///        shard answers with a kHelloOk advertising its topology, which is
///        how the coordinator discovers bucket_count and verifies liveness.
struct ShardEnvelope {
  size_t shard_id = 0;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  std::vector<uint8_t> inner;  ///< a complete frame, or empty for a ping
};

/// \brief Encodes the envelope. A shard id beyond the u32 wire width
///        saturates to UINT32_MAX (like EncodePirQuery's bucket field),
///        which DecodeShardEnvelope rejects as a reserved sentinel — an
///        overflowed id errors out instead of aliasing another shard.
std::vector<uint8_t> EncodeShardEnvelope(size_t shard_id, uint64_t epoch,
                                         uint64_t seq,
                                         const std::vector<uint8_t>& inner);

/// \brief Parses and validates an envelope payload; Corruption on any
///        malformed input (truncation, inner_size disagreeing with the bytes
///        present, trailing garbage, or the UINT32_MAX shard-id sentinel).
Result<ShardEnvelope> DecodeShardEnvelope(const std::vector<uint8_t>& payload);

// --- Degraded result --------------------------------------------------------

/// \brief A coordinator's partial answer when whole replica groups are down
///        and partial-result mode is on (see
///        ShardCoordinatorOptions::allow_partial_results):
///
///          [u8 inner_kind][u32 missing_count][u32 slice]...[inner payload]
///
///        `inner_kind` names the payload the surviving shards merged into
///        (kResult or kTopKResult), `missing` lists the slices whose
///        documents are absent from that merge (sorted ascending), and the
///        remaining bytes are exactly the payload a full merge over the
///        surviving slices produces. The marker is typed so a client can
///        never mistake a partial answer for a complete one.
struct DegradedResultPayload {
  FrameKind inner_kind = FrameKind::kResult;
  std::vector<uint32_t> missing;  ///< unreachable slices, ascending
  std::vector<uint8_t> inner_payload;
};

std::vector<uint8_t> EncodeDegradedResult(FrameKind inner_kind,
                                          const std::vector<uint32_t>& missing,
                                          const std::vector<uint8_t>& inner);

/// \brief Parses a degraded-result payload; Corruption on malformed input
///        (unknown or non-result inner kind, empty or unsorted missing
///        list, truncation).
Result<DegradedResultPayload> DecodeDegradedResult(
    const std::vector<uint8_t>& payload);

}  // namespace embellish::server

#endif  // EMBELLISH_SERVER_FRAMING_H_
