#include "server/framing.h"

#include "common/endian.h"
#include "common/strings.h"

namespace embellish::server {

namespace {

// Bounds-checked sequential reader over an untrusted payload. Every length
// is validated against the bytes actually remaining before it is used, so
// no attacker-controlled value ever reaches an allocation or a pointer
// computation unchecked.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }

  Result<uint32_t> ReadU32() {
    if (remaining() < 4) {
      return Status::Corruption("payload truncated inside a u32 field");
    }
    uint32_t v = GetU32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    if (remaining() < 8) {
      return Status::Corruption("payload truncated inside a u64 field");
    }
    uint64_t v = GetU64(data_ + pos_);
    pos_ += 8;
    return v;
  }

  Result<std::vector<uint8_t>> ReadBytes(size_t n) {
    if (remaining() < n) {
      return Status::Corruption(StringPrintf(
          "payload field wants %zu bytes but only %zu remain", n,
          remaining()));
    }
    std::vector<uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  Result<bignum::BigInt> ReadBigInt(size_t n) {
    EMB_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadBytes(n));
    return bignum::BigInt::FromBigEndianBytes(bytes);
  }

  Status ExpectDone() const {
    if (pos_ != size_) {
      return Status::Corruption(
          StringPrintf("%zu trailing bytes after payload", size_ - pos_));
    }
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The checksum of a whole frame: the header up to the checksum field, then
// the payload.
uint32_t FrameChecksum(const uint8_t* frame, size_t size) {
  return Fnv1a32(frame + kFrameHeaderBytes, size - kFrameHeaderBytes,
                 Fnv1a32(frame, 20));
}

// Appends a frame header for a `payload_size`-byte payload. Its checksum
// field stays zero until SealFrame, once the payload follows.
void PutFrameHeader(FrameKind kind, uint64_t session_id, size_t payload_size,
                    std::vector<uint8_t>* out) {
  PutU32(out, kFrameMagic);
  out->push_back(kProtocolVersion);
  out->push_back(static_cast<uint8_t>(kind));
  out->push_back(0);  // flags
  out->push_back(0);
  PutU64(out, session_id);
  PutU32(out, static_cast<uint32_t>(payload_size));
  PutU32(out, 0);  // checksum
}

void SealFrame(std::vector<uint8_t>* frame) {
  const uint32_t checksum = FrameChecksum(frame->data(), frame->size());
  for (int i = 0; i < 4; ++i) {
    (*frame)[20 + i] = static_cast<uint8_t>(checksum >> (24 - 8 * i));
  }
}

void PutPaddedBigInt(std::vector<uint8_t>* out, const bignum::BigInt& v,
                     size_t width) {
  std::vector<uint8_t> bytes = v.ToBigEndianBytesPadded(width);
  out->insert(out->end(), bytes.begin(), bytes.end());
}

}  // namespace

bool IsKnownFrameKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<uint8_t>(FrameKind::kDegradedResult);
}

uint32_t Fnv1a32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

std::vector<uint8_t> EncodeFrame(FrameKind kind, uint64_t session_id,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutFrameHeader(kind, session_id, payload.size(), &out);
  out.insert(out.end(), payload.begin(), payload.end());
  SealFrame(&out);
  return out;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::Corruption(StringPrintf(
        "frame shorter than its %zu-byte header", kFrameHeaderBytes));
  }
  // The declared payload size is compared against the bytes present, never
  // multiplied or used to size an allocation, so a hostile value is inert.
  const size_t payload_size = GetU32(bytes.data() + 16);
  if (bytes.size() - kFrameHeaderBytes != payload_size) {
    return Status::Corruption(StringPrintf(
        "frame declares %zu payload bytes but carries %zu", payload_size,
        bytes.size() - kFrameHeaderBytes));
  }
  // Checksum covers the header (minus the checksum field) and the payload;
  // verify before interpreting any field so a corrupted frame is rejected
  // no matter which bit flipped.
  if (FrameChecksum(bytes.data(), bytes.size()) != GetU32(bytes.data() + 20)) {
    return Status::Corruption("frame checksum mismatch");
  }
  if (GetU32(bytes.data()) != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  if (bytes[4] != kProtocolVersion) {
    return Status::Corruption(
        StringPrintf("unsupported protocol version %u", bytes[4]));
  }
  if (!IsKnownFrameKind(bytes[5])) {
    return Status::Corruption(StringPrintf("unknown frame kind %u", bytes[5]));
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    return Status::Corruption("reserved frame flags must be zero");
  }
  Frame frame;
  frame.version = bytes[4];
  frame.kind = static_cast<FrameKind>(bytes[5]);
  frame.session_id = GetU64(bytes.data() + 8);
  frame.payload.assign(bytes.begin() + kFrameHeaderBytes, bytes.end());
  return frame;
}

// --- Hello ------------------------------------------------------------------

std::vector<uint8_t> EncodeHello(const crypto::BenalohPublicKey& pk) {
  std::vector<uint8_t> out;
  std::vector<uint8_t> n_bytes = pk.n().ToBigEndianBytesPadded(
      pk.CiphertextBytes());
  std::vector<uint8_t> g_bytes = pk.g().ToBigEndianBytesPadded(
      pk.CiphertextBytes());
  PutU32(&out, static_cast<uint32_t>(n_bytes.size()));
  out.insert(out.end(), n_bytes.begin(), n_bytes.end());
  PutU32(&out, static_cast<uint32_t>(g_bytes.size()));
  out.insert(out.end(), g_bytes.begin(), g_bytes.end());
  PutU64(&out, pk.r());
  return out;
}

Result<crypto::BenalohPublicKey> DecodeHello(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t n_size, reader.ReadU32());
  if (n_size == 0 || n_size > kMaxHelloValueBytes) {
    return Status::Corruption(
        StringPrintf("hello modulus size %u outside (0, %zu]", n_size,
                     kMaxHelloValueBytes));
  }
  EMB_ASSIGN_OR_RETURN(bignum::BigInt n, reader.ReadBigInt(n_size));
  EMB_ASSIGN_OR_RETURN(uint32_t g_size, reader.ReadU32());
  if (g_size == 0 || g_size > kMaxHelloValueBytes) {
    return Status::Corruption(
        StringPrintf("hello generator size %u outside (0, %zu]", g_size,
                     kMaxHelloValueBytes));
  }
  EMB_ASSIGN_OR_RETURN(bignum::BigInt g, reader.ReadBigInt(g_size));
  EMB_ASSIGN_OR_RETURN(uint64_t r, reader.ReadU64());
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  // BenalohPublicKey's constructor builds a Montgomery context and requires
  // an odd modulus > 1; a hostile hello must not be able to trip that
  // precondition, so validate the arithmetic shape here.
  if (n.IsZero() || n.IsOne() || !n.IsOdd()) {
    return Status::Corruption("hello modulus must be odd and > 1");
  }
  if (g.IsZero() || !(g < n)) {
    return Status::Corruption("hello generator must lie in [1, n)");
  }
  if (r < 2) {
    return Status::Corruption("hello message space must be >= 2");
  }
  return crypto::BenalohPublicKey(std::move(n), std::move(g), r);
}

std::vector<uint8_t> EncodeHelloOk(size_t shard_count, size_t bucket_count) {
  std::vector<uint8_t> out;
  out.reserve(8);
  PutU32(&out, static_cast<uint32_t>(shard_count));
  PutU32(&out, static_cast<uint32_t>(bucket_count));
  return out;
}

Result<HelloOkPayload> DecodeHelloOk(const std::vector<uint8_t>& payload) {
  HelloOkPayload topology;
  if (payload.empty()) return topology;  // legacy monolithic server
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t shard_count, reader.ReadU32());
  EMB_ASSIGN_OR_RETURN(uint32_t bucket_count, reader.ReadU32());
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  if (shard_count == 0) {
    return Status::Corruption("hello-ok advertises zero shards");
  }
  topology.shard_count = shard_count;
  topology.bucket_count = bucket_count;
  return topology;
}

// --- Error ------------------------------------------------------------------

std::vector<uint8_t> EncodeError(const Status& status) {
  const std::string& msg = status.message();
  std::vector<uint8_t> out;
  out.reserve(1 + msg.size());
  out.push_back(static_cast<uint8_t>(status.code()));
  out.insert(out.end(), msg.data(), msg.data() + msg.size());
  return out;
}

Status DecodeError(const std::vector<uint8_t>& payload, Status* out) {
  if (payload.empty()) {
    return Status::Corruption("error payload missing its status code");
  }
  std::string msg(payload.begin() + 1, payload.end());
  switch (static_cast<StatusCode>(payload[0])) {
    case StatusCode::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(msg));
      return Status::OK();
    case StatusCode::kNotFound:
      *out = Status::NotFound(std::move(msg));
      return Status::OK();
    case StatusCode::kOutOfRange:
      *out = Status::OutOfRange(std::move(msg));
      return Status::OK();
    case StatusCode::kFailedPrecondition:
      *out = Status::FailedPrecondition(std::move(msg));
      return Status::OK();
    case StatusCode::kCorruption:
      *out = Status::Corruption(std::move(msg));
      return Status::OK();
    case StatusCode::kNotSupported:
      *out = Status::NotSupported(std::move(msg));
      return Status::OK();
    case StatusCode::kInternal:
      *out = Status::Internal(std::move(msg));
      return Status::OK();
    case StatusCode::kCryptoError:
      *out = Status::CryptoError(std::move(msg));
      return Status::OK();
    case StatusCode::kIoError:
      *out = Status::IoError(std::move(msg));
      return Status::OK();
    case StatusCode::kUnavailable:
      *out = Status::Unavailable(std::move(msg));
      return Status::OK();
    case StatusCode::kBusy:
      *out = Status::Busy(std::move(msg));
      return Status::OK();
    case StatusCode::kOk:
      break;  // an OK code in an error frame is itself corruption
  }
  return Status::Corruption("error payload carries an invalid status code");
}

// --- PIR --------------------------------------------------------------------

std::vector<uint8_t> EncodePirQuery(size_t bucket,
                                    const crypto::PirQuery& query) {
  const size_t value_size = (query.n.BitLength() + 7) / 8;
  std::vector<uint8_t> out;
  out.reserve(12 + (1 + query.q.size()) * value_size);
  // Saturate rather than wrap: a shard-qualified bucket beyond the u32
  // field must decode to an out-of-range value the server rejects, never
  // silently address a different (shard, bucket) pair.
  PutU32(&out, bucket > UINT32_MAX ? UINT32_MAX
                                   : static_cast<uint32_t>(bucket));
  PutU32(&out, static_cast<uint32_t>(value_size));
  PutU32(&out, static_cast<uint32_t>(query.q.size()));
  PutPaddedBigInt(&out, query.n, value_size);
  for (const bignum::BigInt& q : query.q) {
    PutPaddedBigInt(&out, q, value_size);
  }
  return out;
}

Result<PirQueryPayload> DecodePirQuery(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t bucket, reader.ReadU32());
  EMB_ASSIGN_OR_RETURN(uint32_t value_size, reader.ReadU32());
  EMB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (value_size == 0) {
    return Status::Corruption("PIR value size must be positive");
  }
  // The server's work grows with the client's modulus: refuse one wider
  // than any PirClient creates before reading a residue.
  if (value_size > crypto::kMaxPirModulusBits / 8) {
    return Status::Corruption(StringPrintf(
        "PIR value size %u exceeds the %zu-byte modulus bound", value_size,
        crypto::kMaxPirModulusBits / 8));
  }
  // Bound count by the bytes present before any size arithmetic (the
  // divisions cannot overflow; a product could).
  if (count > reader.remaining() / value_size) {
    return Status::Corruption(StringPrintf(
        "PIR query declares %u residues but holds %zu payload bytes", count,
        reader.remaining()));
  }
  PirQueryPayload out;
  out.bucket = bucket;
  EMB_ASSIGN_OR_RETURN(out.query.n, reader.ReadBigInt(value_size));
  out.query.q.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EMB_ASSIGN_OR_RETURN(bignum::BigInt q, reader.ReadBigInt(value_size));
    out.query.q.push_back(std::move(q));
  }
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  return out;
}

std::vector<uint8_t> EncodePirResultFrame(
    uint64_t session_id, const crypto::PirResponse& response) {
  const size_t payload_size = 8 + response.values.size();
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload_size);
  PutFrameHeader(FrameKind::kPirResult, session_id, payload_size, &out);
  PutU32(&out, static_cast<uint32_t>(response.value_size));
  PutU32(&out, static_cast<uint32_t>(response.rows()));
  out.insert(out.end(), response.values.begin(), response.values.end());
  SealFrame(&out);
  return out;
}

Result<crypto::PirResponse> DecodePirResponse(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t value_size, reader.ReadU32());
  EMB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (value_size == 0) {
    return Status::Corruption("PIR value size must be positive");
  }
  if (count > reader.remaining() / value_size) {
    return Status::Corruption(StringPrintf(
        "PIR response declares %u residues but holds %zu payload bytes",
        count, reader.remaining()));
  }
  // The bound above makes count * value_size <= remaining(): no wrap.
  crypto::PirResponse out;
  out.value_size = value_size;
  EMB_ASSIGN_OR_RETURN(out.values,
                       reader.ReadBytes(size_t{count} * value_size));
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  return out;
}

// --- Top-k ------------------------------------------------------------------

std::vector<uint8_t> EncodeTopKQuery(
    size_t k, const std::vector<wordnet::TermId>& terms) {
  std::vector<uint8_t> out;
  out.reserve(8 + terms.size() * 4);
  PutU32(&out, k > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(k));
  PutU32(&out, static_cast<uint32_t>(terms.size()));
  for (wordnet::TermId t : terms) PutU32(&out, t);
  return out;
}

Result<TopKQueryPayload> DecodeTopKQuery(const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t k, reader.ReadU32());
  EMB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  // Bound the attacker-controlled count by the bytes present before any
  // size arithmetic, like every other count field in this protocol.
  if (count > reader.remaining() / 4) {
    return Status::Corruption(StringPrintf(
        "top-k query declares %u terms but holds %zu payload bytes", count,
        reader.remaining()));
  }
  TopKQueryPayload out;
  out.k = k;
  out.terms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    EMB_ASSIGN_OR_RETURN(uint32_t term, reader.ReadU32());
    out.terms.push_back(term);
  }
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  return out;
}

std::vector<uint8_t> EncodeTopKResult(
    const std::vector<index::ScoredDoc>& docs) {
  std::vector<uint8_t> out;
  out.reserve(4 + docs.size() * 12);
  PutU32(&out, static_cast<uint32_t>(docs.size()));
  for (const index::ScoredDoc& d : docs) {
    PutU32(&out, d.doc);
    PutU64(&out, d.score);
  }
  return out;
}

Result<std::vector<index::ScoredDoc>> DecodeTopKResult(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count > reader.remaining() / 12) {
    return Status::Corruption(StringPrintf(
        "top-k result declares %u docs but holds %zu payload bytes", count,
        reader.remaining()));
  }
  std::vector<index::ScoredDoc> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    index::ScoredDoc d;
    EMB_ASSIGN_OR_RETURN(d.doc, reader.ReadU32());
    EMB_ASSIGN_OR_RETURN(d.score, reader.ReadU64());
    out.push_back(d);
  }
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  return out;
}

// --- Shard envelope ---------------------------------------------------------

std::vector<uint8_t> EncodeShardEnvelope(size_t shard_id, uint64_t epoch,
                                         uint64_t seq,
                                         const std::vector<uint8_t>& inner) {
  std::vector<uint8_t> out;
  out.reserve(24 + inner.size());
  // Saturate rather than wrap, mirroring EncodePirQuery's bucket field: an
  // oversized shard id must decode to the reserved sentinel the decoder
  // rejects, never alias shard (id mod 2^32).
  PutU32(&out, shard_id > UINT32_MAX ? UINT32_MAX
                                     : static_cast<uint32_t>(shard_id));
  PutU64(&out, epoch);
  PutU64(&out, seq);
  PutU32(&out, static_cast<uint32_t>(inner.size()));
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

Result<ShardEnvelope> DecodeShardEnvelope(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload);
  EMB_ASSIGN_OR_RETURN(uint32_t shard_id, reader.ReadU32());
  if (shard_id == UINT32_MAX) {
    return Status::Corruption(
        "shard id is the reserved saturation sentinel");
  }
  ShardEnvelope out;
  out.shard_id = shard_id;
  EMB_ASSIGN_OR_RETURN(out.epoch, reader.ReadU64());
  EMB_ASSIGN_OR_RETURN(out.seq, reader.ReadU64());
  EMB_ASSIGN_OR_RETURN(uint32_t inner_size, reader.ReadU32());
  if (inner_size != reader.remaining()) {
    return Status::Corruption(StringPrintf(
        "shard envelope declares %u inner bytes but carries %zu", inner_size,
        reader.remaining()));
  }
  EMB_ASSIGN_OR_RETURN(out.inner, reader.ReadBytes(inner_size));
  EMB_RETURN_NOT_OK(reader.ExpectDone());
  return out;
}

// --- Degraded result --------------------------------------------------------

std::vector<uint8_t> EncodeDegradedResult(
    FrameKind inner_kind, const std::vector<uint32_t>& missing,
    const std::vector<uint8_t>& inner) {
  std::vector<uint8_t> out;
  out.reserve(5 + missing.size() * 4 + inner.size());
  out.push_back(static_cast<uint8_t>(inner_kind));
  PutU32(&out, static_cast<uint32_t>(missing.size()));
  for (uint32_t slice : missing) PutU32(&out, slice);
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

Result<DegradedResultPayload> DecodeDegradedResult(
    const std::vector<uint8_t>& payload) {
  if (payload.empty()) {
    return Status::Corruption("degraded result missing its inner kind");
  }
  // Only the shard-disjoint merge kinds may be marked degraded: a partial
  // PIR answer would be a wrong answer, not a smaller one.
  const uint8_t inner_kind = payload[0];
  if (inner_kind != static_cast<uint8_t>(FrameKind::kResult) &&
      inner_kind != static_cast<uint8_t>(FrameKind::kTopKResult)) {
    return Status::Corruption(StringPrintf(
        "degraded result wraps non-mergeable inner kind %u", inner_kind));
  }
  const std::vector<uint8_t> rest(payload.begin() + 1, payload.end());
  PayloadReader reader(rest);
  EMB_ASSIGN_OR_RETURN(uint32_t missing_count, reader.ReadU32());
  if (missing_count == 0) {
    return Status::Corruption(
        "degraded result marks no slice missing (a full answer must not "
        "carry the degraded marker)");
  }
  if (missing_count > reader.remaining() / 4) {
    return Status::Corruption(StringPrintf(
        "degraded result declares %u missing slices but holds %zu payload "
        "bytes", missing_count, reader.remaining()));
  }
  DegradedResultPayload out;
  out.inner_kind = static_cast<FrameKind>(inner_kind);
  out.missing.reserve(missing_count);
  for (uint32_t i = 0; i < missing_count; ++i) {
    EMB_ASSIGN_OR_RETURN(uint32_t slice, reader.ReadU32());
    if (!out.missing.empty() && slice <= out.missing.back()) {
      return Status::Corruption(
          "degraded-result missing slices must be strictly ascending");
    }
    out.missing.push_back(slice);
  }
  EMB_ASSIGN_OR_RETURN(out.inner_payload, reader.ReadBytes(reader.remaining()));
  return out;
}

}  // namespace embellish::server
