#include "core/wire_format.h"

#include "common/endian.h"
#include "common/strings.h"
#include "core/pir_retrieval.h"

namespace embellish::core {

namespace {

// A PR answer's candidate list: [u32 count][u32 top bound][u8 Rice k] and
// the (bound, doc) stream.
constexpr RiceListFormat kResultFormat{
    32, 0, "PR result", "bound", "candidates", "stream"};
constexpr size_t kResultHeaderBytes = (32 + kResultFormat.top_bits + 8) / 8;

// Appends `c` in exactly key_bytes, big-endian and zero-padded, so a short
// value cannot shift every later ciphertext.
void AppendCiphertext(const crypto::BenalohPublicKey& pk,
                      const crypto::BenalohCiphertext& c,
                      std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + pk.CiphertextBytes());
  pk.SerializeInto(c, out->data() + at);
}

Result<crypto::BenalohCiphertext> ReadCiphertext(
    const crypto::BenalohPublicKey& pk, const uint8_t* p) {
  return pk.Deserialize(std::span<const uint8_t>(p, pk.CiphertextBytes()));
}

std::vector<RiceEntry> ResultEntries(const EncryptedResult& result) {
  std::vector<RiceEntry> entries;
  entries.reserve(result.candidates.size());
  for (const EncryptedCandidate& c : result.candidates) {
    entries.push_back({c.bound, static_cast<uint32_t>(c.doc)});
  }
  return entries;
}

}  // namespace

std::vector<uint8_t> EncodeQuery(const EmbellishedQuery& query,
                                 const crypto::BenalohPublicKey& pk) {
  std::vector<uint8_t> out;
  out.reserve(4 + query.entries.size() * (4 + pk.CiphertextBytes()));
  PutU32(&out, static_cast<uint32_t>(query.entries.size()));
  for (const EmbellishedTerm& e : query.entries) {
    PutU32(&out, static_cast<uint32_t>(e.term));
    AppendCiphertext(pk, e.indicator, &out);
  }
  return out;
}

Result<EmbellishedQuery> DecodeQuery(const std::vector<uint8_t>& bytes,
                                     const crypto::BenalohPublicKey& pk) {
  const size_t key_bytes = pk.CiphertextBytes();
  if (bytes.size() < 4) {
    return Status::Corruption("frame shorter than its header");
  }
  const uint32_t count = GetU32(bytes.data());
  const size_t entry_size = 4 + key_bytes;
  // Bound the attacker-controlled count by the bytes actually present before
  // any multiplication: on a 32-bit size_t, 4 + count * entry_size can wrap
  // and a hostile header would otherwise slip past the size check and force
  // a huge reserve below.
  if (count > (bytes.size() - 4) / entry_size) {
    return Status::Corruption(
        StringPrintf("frame declares %u entries but holds %zu payload bytes",
                     count, bytes.size() - 4));
  }
  const size_t expected = 4 + static_cast<size_t>(count) * entry_size;
  if (bytes.size() != expected) {
    return Status::Corruption(
        StringPrintf("frame size %zu != expected %zu for %u entries",
                     bytes.size(), expected, count));
  }
  EmbellishedQuery query;
  query.entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* p = bytes.data() + 4 + i * entry_size;
    EMB_ASSIGN_OR_RETURN(crypto::BenalohCiphertext indicator,
                         ReadCiphertext(pk, p + 4));
    query.entries.push_back(EmbellishedTerm{
        static_cast<wordnet::TermId>(GetU32(p)), std::move(indicator)});
  }
  return query;
}

std::vector<uint8_t> EncodeResult(const EncryptedResult& result,
                                  const crypto::BenalohPublicKey& pk) {
  auto list = EncodeRiceList(ResultEntries(result), kResultFormat);
  if (!list.ok()) return {};
  std::vector<uint8_t> out = std::move(*list);
  out.reserve(out.size() + result.candidates.size() * pk.CiphertextBytes());
  for (const EncryptedCandidate& c : result.candidates) {
    AppendCiphertext(pk, c.score, &out);
  }
  return out;
}

Result<EncryptedResult> DecodeResult(const std::vector<uint8_t>& bytes,
                                     const crypto::BenalohPublicKey& pk) {
  // The ciphertexts fill the payload's tail, so the count fixes where the
  // (bound, doc) stream must end. In 64 bits, so a hostile count cannot wrap.
  const bool has_header = bytes.size() >= kResultHeaderBytes;
  const uint64_t key_bytes = pk.CiphertextBytes();
  const uint64_t cipher_bytes =
      has_header ? uint64_t{GetU32(bytes.data())} * key_bytes : 0;
  if (has_header && cipher_bytes > bytes.size() - kResultHeaderBytes) {
    return Status::Corruption("PR result candidates exceed its payload");
  }
  const size_t list_bytes = bytes.size() - static_cast<size_t>(cipher_bytes);
  size_t end_bit = 0;
  EMB_ASSIGN_OR_RETURN(
      std::vector<RiceEntry> entries,
      DecodeRiceList(std::span<const uint8_t>(bytes.data(), list_bytes),
                     8 * list_bytes, kResultFormat, &end_bit));
  if (end_bit % 8 != 0 && (bytes[end_bit / 8] & (0xFFu >> (end_bit % 8)))) {
    return Status::Corruption("PR result padding bits are not zero");
  }
  const size_t stream_bytes = (end_bit + 7) / 8;
  if (stream_bytes != list_bytes) {
    return Status::Corruption(StringPrintf(
        "PR result size %zu != %zu for its stream and %zu candidates",
        bytes.size(), stream_bytes + static_cast<size_t>(cipher_bytes),
        entries.size()));
  }
  EncryptedResult result;
  result.candidates.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EMB_ASSIGN_OR_RETURN(
        crypto::BenalohCiphertext score,
        ReadCiphertext(pk, bytes.data() + list_bytes + i * key_bytes));
    result.candidates.push_back(EncryptedCandidate{
        static_cast<corpus::DocId>(entries[i].doc), entries[i].value,
        std::move(score)});
  }
  return result;
}

size_t EncryptedResult::WireBytes(const crypto::BenalohPublicKey& pk) const {
  return RiceListBytes(ResultEntries(*this), kResultFormat) +
         candidates.size() * pk.CiphertextBytes();
}

}  // namespace embellish::core
