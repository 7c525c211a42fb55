// Framed-protocol round trips and exhaustive corruption fuzzing: every
// truncated, oversized or bit-flipped frame must come back as
// Status::Corruption — never crash, never decode into something plausible.
// The frame checksum covers header and payload, so *every* single-bit flip
// is detectable, and these tests hold the codec to that.

#include "server/framing.h"

#include <gtest/gtest.h>

#include <string>

#include "bignum/modmath.h"
#include "bignum/montgomery.h"
#include "common/endian.h"
#include "common/rng.h"

namespace embellish::server {
namespace {

crypto::BenalohKeyPair TestKeys(uint64_t seed = 11) {
  Rng rng(seed);
  crypto::BenalohKeyOptions ko;
  ko.key_bits = 256;
  ko.r = 59049;
  return std::move(crypto::BenalohKeyPair::Generate(ko, &rng)).value();
}

std::vector<uint8_t> SomePayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Uniform(256));
  return out;
}

TEST(FramingTest, RoundTripsEveryKind) {
  for (uint8_t k = static_cast<uint8_t>(FrameKind::kHello);
       k <= static_cast<uint8_t>(FrameKind::kError); ++k) {
    std::vector<uint8_t> payload = SomePayload(37, k);
    auto bytes = EncodeFrame(static_cast<FrameKind>(k), 0xA1B2C3D4E5F60718ull,
                             payload);
    ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
    auto frame = DecodeFrame(bytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->version, kProtocolVersion);
    EXPECT_EQ(static_cast<uint8_t>(frame->kind), k);
    EXPECT_EQ(frame->session_id, 0xA1B2C3D4E5F60718ull);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(FramingTest, RoundTripsEmptyPayload) {
  auto bytes = EncodeFrame(FrameKind::kHelloOk, 7, {});
  auto frame = DecodeFrame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FramingTest, RejectsEveryTruncation) {
  auto bytes = EncodeFrame(FrameKind::kQuery, 42, SomePayload(64, 1));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    auto frame = DecodeFrame(truncated);
    ASSERT_FALSE(frame.ok()) << "cut=" << cut;
    EXPECT_TRUE(frame.status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(FramingTest, RejectsTrailingGarbage) {
  auto bytes = EncodeFrame(FrameKind::kQuery, 42, SomePayload(16, 2));
  for (size_t extra : {1u, 7u, 1024u}) {
    std::vector<uint8_t> oversized = bytes;
    oversized.insert(oversized.end(), extra, 0xAB);
    auto frame = DecodeFrame(oversized);
    ASSERT_FALSE(frame.ok()) << "extra=" << extra;
    EXPECT_TRUE(frame.status().IsCorruption());
  }
}

TEST(FramingTest, RejectsEverySingleBitFlip) {
  // The checksum spans header and payload, so any one flipped bit anywhere
  // in the frame must surface as Corruption.
  auto bytes = EncodeFrame(FrameKind::kQuery, 0x0102030405060708ull,
                           SomePayload(96, 3));
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      auto frame = DecodeFrame(flipped);
      ASSERT_FALSE(frame.ok()) << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(frame.status().IsCorruption());
    }
  }
}

TEST(FramingTest, RejectsHostilePayloadSizeField) {
  // A frame whose declared payload size disagrees with the bytes present is
  // rejected before any allocation sized from the field.
  auto bytes = EncodeFrame(FrameKind::kQuery, 1, SomePayload(8, 4));
  for (uint8_t hostile : {0x00, 0x7F, 0xFF}) {
    std::vector<uint8_t> tampered = bytes;
    tampered[16] = hostile;
    tampered[17] = hostile;
    tampered[18] = hostile;
    tampered[19] = hostile;
    auto frame = DecodeFrame(tampered);
    ASSERT_FALSE(frame.ok());
    EXPECT_TRUE(frame.status().IsCorruption());
  }
}

TEST(FramingTest, ChecksumIsPositionSensitive) {
  // Swapping two payload bytes keeps the byte multiset identical; FNV-1a is
  // order-sensitive so the frame must still be rejected.
  std::vector<uint8_t> payload = SomePayload(32, 5);
  payload[0] = 0x11;
  payload[1] = 0x22;
  auto bytes = EncodeFrame(FrameKind::kQuery, 1, payload);
  std::swap(bytes[kFrameHeaderBytes], bytes[kFrameHeaderBytes + 1]);
  EXPECT_FALSE(DecodeFrame(bytes).ok());
}

TEST(FramingTest, RejectsEarlierProtocolVersions) {
  // Version 1 carried PIR columns as [u32 byte length][5-byte postings], and
  // version 2 bit-packed them behind a doc-id width and an impact width; a
  // version-2 peer would read a Rice-coded column's top impact and Rice
  // parameter as those widths. Version 3 carried PR results as [u32 doc
  // id][ciphertext] per candidate in doc order, and would read a version-4
  // result's top bound and (bound, doc) stream as doc ids and ciphertexts.
  // A well-formed, correctly checksummed frame of any earlier version must
  // be refused by version, not decoded.
  for (uint8_t version : {1, 2, 3}) {
    auto bytes = EncodeFrame(FrameKind::kPirResult, 3, SomePayload(40, 6));
    bytes[4] = version;
    uint32_t checksum = Fnv1a32(bytes.data(), 20);
    checksum = Fnv1a32(bytes.data() + kFrameHeaderBytes,
                       bytes.size() - kFrameHeaderBytes, checksum);
    for (int i = 0; i < 4; ++i) {
      bytes[20 + i] = static_cast<uint8_t>(checksum >> (24 - 8 * i));
    }
    auto frame = DecodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_TRUE(frame.status().IsCorruption());
    EXPECT_EQ(frame.status().message(),
              "unsupported protocol version " + std::to_string(version));
  }
}

// --- Hello payload ----------------------------------------------------------

TEST(FramingTest, HelloRoundTrip) {
  auto keys = TestKeys();
  const crypto::BenalohPublicKey& pk = keys.public_key();
  auto payload = EncodeHello(pk);
  auto decoded = DecodeHello(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->n(), pk.n());
  EXPECT_EQ(decoded->g(), pk.g());
  EXPECT_EQ(decoded->r(), pk.r());
  EXPECT_EQ(decoded->CiphertextBytes(), pk.CiphertextBytes());
}

TEST(FramingTest, HelloRejectsTruncationAndGarbage) {
  auto payload = EncodeHello(TestKeys().public_key());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> truncated(payload.begin(),
                                   payload.begin() + static_cast<long>(cut));
    auto decoded = DecodeHello(truncated);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
  std::vector<uint8_t> oversized = payload;
  oversized.push_back(0);
  EXPECT_FALSE(DecodeHello(oversized).ok());
}

TEST(FramingTest, HelloRejectsDegenerateKeys) {
  // An even / trivial modulus must not reach the Montgomery context (whose
  // constructor requires an odd modulus > 1); the decoder screens it out.
  auto keys = TestKeys();
  auto mutate = [&](auto&& fn) {
    auto payload = EncodeHello(keys.public_key());
    fn(&payload);
    auto decoded = DecodeHello(payload);
    EXPECT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption());
  };
  // Even modulus: clear the low bit of n (big-endian -> last byte of n).
  const size_t n_size = keys.public_key().CiphertextBytes();
  mutate([&](std::vector<uint8_t>* p) { (*p)[4 + n_size - 1] &= 0xFE; });
  // Zero modulus.
  mutate([&](std::vector<uint8_t>* p) {
    std::fill(p->begin() + 4, p->begin() + 4 + static_cast<long>(n_size), 0);
  });
  // Generator >= n: make g all-0xFF.
  mutate([&](std::vector<uint8_t>* p) {
    std::fill(p->begin() + 8 + static_cast<long>(n_size), p->end() - 8, 0xFF);
  });
  // Message space r < 2.
  mutate([&](std::vector<uint8_t>* p) {
    std::fill(p->end() - 8, p->end(), 0);
  });
}

TEST(FramingTest, HelloRejectsOversizedKeyMaterial) {
  // The server keeps registered keys resident, so hello fields are capped;
  // a payload that actually carries kMaxHelloValueBytes + 1 modulus bytes
  // must be refused by the size cap, not stored.
  const uint32_t n_size = static_cast<uint32_t>(kMaxHelloValueBytes + 1);
  std::vector<uint8_t> payload{
      static_cast<uint8_t>(n_size >> 24), static_cast<uint8_t>(n_size >> 16),
      static_cast<uint8_t>(n_size >> 8), static_cast<uint8_t>(n_size)};
  payload.resize(4 + n_size, 0xAB);  // the full oversized modulus is present
  payload.resize(payload.size() + 4 + 1 + 8, 0);  // g_size=..., g, r
  auto decoded = DecodeHello(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

// --- Error payload ----------------------------------------------------------

TEST(FramingTest, ErrorRoundTrip) {
  Status original = Status::FailedPrecondition("session 9 unknown");
  auto payload = EncodeError(original);
  Status transported;
  ASSERT_TRUE(DecodeError(payload, &transported).ok());
  EXPECT_EQ(transported, original);
}

TEST(FramingTest, ErrorRejectsMalformedPayloads) {
  Status transported;
  EXPECT_TRUE(DecodeError({}, &transported).IsCorruption());
  // An OK code inside an error payload is itself corruption.
  EXPECT_TRUE(DecodeError({0}, &transported).IsCorruption());
  // Unknown code.
  EXPECT_TRUE(DecodeError({250, 'x'}, &transported).IsCorruption());
}

// --- PIR payloads -----------------------------------------------------------

TEST(FramingTest, PirQueryRoundTrip) {
  Rng rng(21);
  auto client = crypto::PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(3, 8, &rng);
  ASSERT_TRUE(query.ok());
  auto payload = EncodePirQuery(5, *query);
  auto decoded = DecodePirQuery(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->bucket, 5u);
  EXPECT_EQ(decoded->query.n, query->n);
  ASSERT_EQ(decoded->query.q.size(), query->q.size());
  for (size_t i = 0; i < query->q.size(); ++i) {
    EXPECT_EQ(decoded->query.q[i], query->q[i]);
  }
}

TEST(FramingTest, PirQueryRejectsHostileCounts) {
  Rng rng(22);
  auto client = crypto::PirClient::Create(256, &rng);
  ASSERT_TRUE(client.ok());
  auto query = client->BuildQuery(0, 4, &rng);
  ASSERT_TRUE(query.ok());
  auto payload = EncodePirQuery(0, *query);

  // Hostile residue count: the 4+size_t(count)*value_size arithmetic must
  // be short-circuited by the bytes-present bound, not attempted.
  std::vector<uint8_t> tampered = payload;
  tampered[8] = 0xFF;
  tampered[9] = 0xFF;
  tampered[10] = 0xFF;
  tampered[11] = 0xFF;
  auto decoded = DecodePirQuery(tampered);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());

  // Zero value size would divide by zero if unchecked.
  tampered = payload;
  for (size_t i = 4; i < 8; ++i) tampered[i] = 0;
  EXPECT_TRUE(DecodePirQuery(tampered).status().IsCorruption());

  // Truncations.
  for (size_t cut : {0u, 3u, 11u, 40u}) {
    std::vector<uint8_t> truncated(payload.begin(),
                                   payload.begin() + static_cast<long>(cut));
    EXPECT_TRUE(DecodePirQuery(truncated).status().IsCorruption())
        << "cut=" << cut;
  }
}

TEST(FramingTest, PirQueryRejectsModuliPastTheBound) {
  // The server's work grows with the client's modulus, so the decoder
  // accepts residues up to the largest modulus a PirClient creates (512
  // bytes) and refuses a wider one, whole and well formed as it is.
  static_assert(crypto::kMaxPirModulusBits / 8 == 512);
  Rng rng(23);
  for (size_t bits : {crypto::kMaxPirModulusBits,
                      crypto::kMaxPirModulusBits + 8}) {
    crypto::PirQuery query;
    query.n = (bignum::RandomBits(bits - 1, &rng) << 1) + bignum::BigInt(1);
    for (size_t j = 0; j < 3; ++j) {
      query.q.push_back(bignum::RandomBelow(query.n, &rng));
    }
    auto payload = EncodePirQuery(2, query);
    const uint32_t value_size = GetU32(payload.data() + 4);
    auto decoded = DecodePirQuery(payload);
    if (bits == crypto::kMaxPirModulusBits) {
      EXPECT_EQ(value_size, 512u);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->query.n, query.n);
    } else {
      EXPECT_EQ(value_size, 513u);
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(decoded.status().IsCorruption());
    }
  }
}

// The PIR response encoder from before answers were flat, kept as the
// reference: the header, then one residue per row written through
// BigInt::ToBigEndianBytesPadded.
std::vector<uint8_t> ReferencePirResponseEncoding(
    const std::vector<bignum::BigInt>& gammas, size_t value_size) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(value_size));
  PutU32(&out, static_cast<uint32_t>(gammas.size()));
  for (const bignum::BigInt& g : gammas) {
    std::vector<uint8_t> bytes = g.ToBigEndianBytesPadded(value_size);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

// gamma_i = prod_j (b_ij ? q_j : q_j^2) mod n, one row at a time through
// the allocating BigInt API — independent of the answer engine.
std::vector<bignum::BigInt> ReferenceGammas(const crypto::PirDatabase& db,
                                            const crypto::PirQuery& query) {
  auto mont = bignum::MontgomeryContext::Create(query.n);
  EXPECT_TRUE(mont.ok());
  std::vector<bignum::BigInt> gammas;
  for (size_t i = 0; i < db.rows(); ++i) {
    bignum::BigInt acc(1);
    for (size_t j = 0; j < db.cols(); ++j) {
      const bignum::BigInt& q = query.q[j];
      acc = mont->Mul(acc, db.GetBit(i, j) ? q : mont->Mul(q, q));
    }
    gammas.push_back(std::move(acc));
  }
  return gammas;
}

TEST(FramingTest, PirResponseEncodingMatchesThePerRowEncoder) {
  // The flat answer must put the same bytes on the wire as padding each
  // row's BigInt did, including rows whose residue has leading zero bytes
  // and a 200-bit modulus whose 25-byte residues start inside a limb.
  // Sixteen columns give each row one of 2^16 residues, so about one row in
  // 256 starts with a zero byte.
  Rng rng(23);
  auto db = std::make_shared<crypto::PirDatabase>(2048, 16);
  for (size_t i = 0; i < db->rows(); ++i) {
    for (size_t j = 0; j < db->cols(); ++j) db->SetBit(i, j, rng.Bernoulli(0.5));
  }
  for (size_t key_bits : {200u, 256u}) {
    SCOPED_TRACE(key_bits);
    auto client = crypto::PirClient::Create(key_bits, &rng);
    ASSERT_TRUE(client.ok());
    auto query = client->BuildQuery(1, db->cols(), &rng);
    ASSERT_TRUE(query.ok());
    auto response = crypto::PirServer(db).Answer(*query);
    ASSERT_TRUE(response.ok());

    const std::vector<bignum::BigInt> gammas = ReferenceGammas(*db, *query);
    const size_t value_size = client->key_bytes();
    size_t short_rows = 0;
    for (const bignum::BigInt& g : gammas) {
      if (g.BitLength() <= 8 * (value_size - 1)) ++short_rows;
    }
    ASSERT_GT(short_rows, 0u) << "no residue with a leading zero byte";

    const std::vector<uint8_t> frame = EncodePirResultFrame(9, *response);
    auto parsed = DecodeFrame(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, FrameKind::kPirResult);
    EXPECT_EQ(parsed->payload,
              ReferencePirResponseEncoding(gammas, value_size));

    // The round trip is byte-identical, and re-encodes to the same frame.
    auto decoded = DecodePirResponse(parsed->payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->value_size, value_size);
    EXPECT_EQ(decoded->values, response->values);
    EXPECT_EQ(EncodePirResultFrame(9, *decoded), frame);
  }
}

TEST(FramingTest, PirResultFrameEqualsEncodeFrame) {
  // One buffer and one checksum pass give the bytes of framing the payload
  // separately, for an empty answer, one row and 3,000 rows.
  for (size_t rows : {0u, 1u, 3000u}) {
    SCOPED_TRACE(rows);
    crypto::PirResponse response;
    response.value_size = 32;
    response.values = SomePayload(rows * 32, 31 + rows);
    std::vector<uint8_t> payload;
    PutU32(&payload, 32);
    PutU32(&payload, static_cast<uint32_t>(rows));
    payload.insert(payload.end(), response.values.begin(),
                   response.values.end());
    EXPECT_EQ(EncodePirResultFrame(0x0102030405060708ull, response),
              EncodeFrame(FrameKind::kPirResult, 0x0102030405060708ull,
                          payload));
  }
}

TEST(FramingTest, PirResponseRejectsHostileHeaders) {
  crypto::PirResponse response;
  response.value_size = 32;
  response.values = SomePayload(9 * 32, 29);
  auto frame = DecodeFrame(EncodePirResultFrame(4, response));
  ASSERT_TRUE(frame.ok());
  const std::vector<uint8_t> payload = frame->payload;
  ASSERT_TRUE(DecodePirResponse(payload).ok());

  auto header = [](uint32_t value_size, uint32_t count, size_t body_bytes) {
    std::vector<uint8_t> out;
    PutU32(&out, value_size);
    PutU32(&out, count);
    out.resize(out.size() + body_bytes, 0x5A);
    return out;
  };
  // Zero value size would divide by zero if unchecked.
  EXPECT_TRUE(DecodePirResponse(header(0, 1, 32)).status().IsCorruption());
  EXPECT_TRUE(DecodePirResponse(header(0, 0, 0)).status().IsCorruption());
  // A count beyond the residues present.
  EXPECT_TRUE(DecodePirResponse(header(32, 10, 9 * 32)).status().IsCorruption());
  EXPECT_TRUE(
      DecodePirResponse(header(32, UINT32_MAX, 32)).status().IsCorruption());
  // count * value_size = 0x1'0001'0000 wraps to 0x1'0000 in 32 bits, exactly
  // the bytes present: only the division bound catches it.
  EXPECT_TRUE(DecodePirResponse(header(0x10000, 0x10001, 0x10000))
                  .status()
                  .IsCorruption());
  // Truncation inside the header or the residues, and trailing bytes.
  for (size_t cut : {0u, 3u, 7u, 8u, 40u}) {
    std::vector<uint8_t> truncated(payload.begin(),
                                   payload.begin() + static_cast<long>(cut));
    EXPECT_TRUE(DecodePirResponse(truncated).status().IsCorruption())
        << "cut=" << cut;
  }
  std::vector<uint8_t> bad(payload.begin(), payload.end() - 1);
  EXPECT_TRUE(DecodePirResponse(bad).status().IsCorruption());
  bad = payload;
  bad.push_back(0);
  EXPECT_TRUE(DecodePirResponse(bad).status().IsCorruption());
}

}  // namespace
}  // namespace embellish::server
