// Wire-format round trips and failure injection for the PR protocol
// messages: a server/client pair must interoperate through raw bytes, and
// every malformed frame must be rejected with Corruption — never decoded
// into something plausible.

#include "core/wire_format.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/endian.h"
#include "core/bucket_io.h"
#include "index/builder.h"
#include "mutation_runner.h"
#include "testutil.h"

namespace embellish::core {
namespace {

class WireFormatTest : public ::testing::Test {
 protected:
  WireFormatTest()
      : lex_(testutil::SmallSyntheticLexicon(1500, 111)),
        corp_(testutil::SmallCorpus(lex_, 150, 112)),
        built_(std::move(index::BuildIndex(corp_, {})).value()),
        org_(testutil::MakeBuckets(lex_, 4, 64)) {
    Rng rng(113);
    crypto::BenalohKeyOptions ko;
    ko.key_bits = 256;
    ko.r = 59049;
    keys_ = std::make_unique<crypto::BenalohKeyPair>(
        std::move(crypto::BenalohKeyPair::Generate(ko, &rng)).value());
  }

  EmbellishedQuery MakeQuery(Rng* rng) {
    QueryEmbellisher embellisher(&org_, &keys_->public_key());
    auto terms = built_.index.IndexedTerms();
    std::vector<wordnet::TermId> genuine{terms[3], terms[71]};
    return std::move(embellisher.Embellish(genuine, rng)).value();
  }

  wordnet::WordNetDatabase lex_;
  corpus::Corpus corp_;
  index::BuildOutput built_;
  BucketOrganization org_;
  std::unique_ptr<crypto::BenalohKeyPair> keys_;
};

TEST_F(WireFormatTest, QueryRoundTrip) {
  Rng rng(1);
  EmbellishedQuery query = MakeQuery(&rng);
  auto bytes = EncodeQuery(query, keys_->public_key());
  EXPECT_EQ(bytes.size(), 4 + query.WireBytes(keys_->public_key()));
  auto decoded = DecodeQuery(bytes, keys_->public_key());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->entries.size(), query.entries.size());
  for (size_t i = 0; i < query.entries.size(); ++i) {
    EXPECT_EQ(decoded->entries[i].term, query.entries[i].term);
    EXPECT_EQ(decoded->entries[i].indicator, query.entries[i].indicator);
  }
}

TEST_F(WireFormatTest, DecodedQueryProcessesIdentically) {
  // Full interop: encode on the client, decode on the server, process, and
  // get byte-identical results to the in-memory path.
  Rng rng(2);
  EmbellishedQuery query = MakeQuery(&rng);
  auto bytes = EncodeQuery(query, keys_->public_key());
  auto decoded = DecodeQuery(bytes, keys_->public_key());
  ASSERT_TRUE(decoded.ok());

  PrivateRetrievalServer server(&built_.index, &org_, nullptr);
  auto direct = server.Process(query, keys_->public_key(), nullptr);
  auto via_wire = server.Process(*decoded, keys_->public_key(), nullptr);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_wire.ok());
  ASSERT_EQ(direct->candidates.size(), via_wire->candidates.size());
  for (size_t i = 0; i < direct->candidates.size(); ++i) {
    EXPECT_EQ(direct->candidates[i].doc, via_wire->candidates[i].doc);
    EXPECT_EQ(direct->candidates[i].score, via_wire->candidates[i].score);
  }
}

TEST_F(WireFormatTest, ResultRoundTrip) {
  Rng rng(3);
  EmbellishedQuery query = MakeQuery(&rng);
  PrivateRetrievalServer server(&built_.index, &org_, nullptr);
  auto result = server.Process(query, keys_->public_key(), nullptr);
  ASSERT_TRUE(result.ok());
  auto bytes = EncodeResult(*result, keys_->public_key());
  auto decoded = DecodeResult(bytes, keys_->public_key());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->candidates.size(), result->candidates.size());
  for (size_t i = 0; i < result->candidates.size(); ++i) {
    EXPECT_EQ(decoded->candidates[i].doc, result->candidates[i].doc);
    EXPECT_EQ(decoded->candidates[i].score, result->candidates[i].score);
  }
}

TEST_F(WireFormatTest, RejectsTruncatedFrames) {
  Rng rng(4);
  auto bytes = EncodeQuery(MakeQuery(&rng), keys_->public_key());
  for (size_t cut : {0u, 3u, 5u, 37u}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    auto decoded = DecodeQuery(truncated, keys_->public_key());
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
  std::vector<uint8_t> minus_one(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(DecodeQuery(minus_one, keys_->public_key()).ok());
}

TEST_F(WireFormatTest, RejectsTrailingGarbage) {
  Rng rng(5);
  auto bytes = EncodeQuery(MakeQuery(&rng), keys_->public_key());
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeQuery(bytes, keys_->public_key()).ok());
}

TEST_F(WireFormatTest, RejectsLyingEntryCount) {
  Rng rng(6);
  auto bytes = EncodeQuery(MakeQuery(&rng), keys_->public_key());
  bytes[3] += 1;  // count + 1 without payload
  EXPECT_FALSE(DecodeQuery(bytes, keys_->public_key()).ok());
  // Huge count must not cause a huge allocation before the size check.
  bytes[0] = 0xFF;
  EXPECT_FALSE(DecodeQuery(bytes, keys_->public_key()).ok());
}

TEST_F(WireFormatTest, RejectsOverflowingEntryCount) {
  // The count field is attacker-controlled; 4 + count * entry_size can wrap
  // on a 32-bit size_t, so the decoder must bound count by the bytes present
  // before any multiplication. With entry_size = 36 (4 + 256/8), a count of
  // 0x0E38E38F makes the product overflow 32 bits to a tiny value.
  const size_t entry_size = 4 + keys_->public_key().CiphertextBytes();
  ASSERT_EQ(entry_size, 36u);
  for (uint32_t hostile : {0x0E38E38Fu, 0xFFFFFFFFu, 0x80000000u}) {
    std::vector<uint8_t> bytes{
        static_cast<uint8_t>(hostile >> 24), static_cast<uint8_t>(hostile >> 16),
        static_cast<uint8_t>(hostile >> 8), static_cast<uint8_t>(hostile)};
    bytes.resize(bytes.size() + 2 * entry_size, 0);  // far fewer than claimed
    auto decoded = DecodeQuery(bytes, keys_->public_key());
    ASSERT_FALSE(decoded.ok()) << "count=" << hostile;
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

TEST_F(WireFormatTest, BitFlipFuzzNeverCrashes) {
  // Unframed payload encodings carry no checksum, so a flipped ciphertext
  // bit may still decode into another valid residue — but a flip must never
  // crash, and flips in the structural fields must be rejected cleanly.
  Rng rng(8);
  auto bytes = EncodeQuery(MakeQuery(&rng), keys_->public_key());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = DecodeQuery(flipped, keys_->public_key());
      if (byte < 4) {
        // Any count flip changes the expected size -> Corruption.
        ASSERT_FALSE(decoded.ok()) << "byte=" << byte << " bit=" << bit;
        EXPECT_TRUE(decoded.status().IsCorruption());
      } else if (!decoded.ok()) {
        EXPECT_TRUE(decoded.status().IsCorruption())
            << "byte=" << byte << " bit=" << bit;
      }
    }
  }
}

TEST_F(WireFormatTest, ResultDecoderRejectsMalformedInput) {
  Rng rng(9);
  EmbellishedQuery query = MakeQuery(&rng);
  PrivateRetrievalServer server(&built_.index, &org_, nullptr);
  auto result = server.Process(query, keys_->public_key(), nullptr);
  ASSERT_TRUE(result.ok());
  auto bytes = EncodeResult(*result, keys_->public_key());

  for (size_t cut : {0u, 2u, 7u, 41u}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    auto decoded = DecodeResult(truncated, keys_->public_key());
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
  std::vector<uint8_t> oversized = bytes;
  oversized.insert(oversized.end(), 17, 0xEE);
  EXPECT_TRUE(
      DecodeResult(oversized, keys_->public_key()).status().IsCorruption());
  std::vector<uint8_t> hostile_count = bytes;
  hostile_count[0] = 0xFF;
  EXPECT_TRUE(DecodeResult(hostile_count, keys_->public_key())
                  .status()
                  .IsCorruption());
}

TEST_F(WireFormatTest, RejectsCiphertextOutOfRange) {
  Rng rng(7);
  EmbellishedQuery query = MakeQuery(&rng);
  auto bytes = EncodeQuery(query, keys_->public_key());
  // Overwrite the first ciphertext with 0xFF..FF >= n.
  for (size_t i = 8; i < 8 + keys_->public_key().CiphertextBytes(); ++i) {
    bytes[i] = 0xFF;
  }
  auto decoded = DecodeQuery(bytes, keys_->public_key());
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST_F(WireFormatTest, EmptyFramesRoundTrip) {
  EncryptedResult empty;
  auto bytes = EncodeResult(empty, keys_->public_key());
  auto decoded = DecodeResult(bytes, keys_->public_key());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->candidates.empty());
}

// --- The PR result layout: (bound, doc) stream, then ciphertexts -------------

// `count` candidates with distinct (bound, doc) pairs in CandidateOrder:
// bounds in [2^32 - 1 - 2 x count, 2^32 - 1], so some share a run, and docs
// anywhere in [0, 2^32 - 1]. The top bound's run holds docs 0 and
// 2^32 - 1 when count allows. (Drops are unary, so a result's bounds must
// span a narrow range to stay small; real bounds are below 2^16.)
EncryptedResult RandomResult(size_t count, const crypto::BenalohPublicKey& pk,
                             Rng* rng) {
  std::set<std::pair<uint32_t, uint32_t>> drawn;  // (2^32 - 1 - bound, doc)
  for (uint32_t doc : {0u, UINT32_MAX}) {
    if (drawn.size() < count) drawn.insert({0, doc});
  }
  while (drawn.size() < count) {
    drawn.insert({static_cast<uint32_t>(rng->Uniform(2 * count + 1)),
                  static_cast<uint32_t>(rng->Next64())});
  }
  EncryptedResult result;
  for (const auto& [below_top, doc] : drawn) {
    auto score = pk.Encrypt(rng->Uniform(pk.r()), rng);
    EXPECT_TRUE(score.ok());
    result.candidates.push_back({doc, UINT32_MAX - below_top, *score});
  }
  return result;
}

// A result payload by hand: the header, the stream's bits ('0'/'1', spaces
// ignored) zero-filled to a byte, then `ciphertexts` valid ciphertexts.
std::vector<uint8_t> ResultPayload(uint32_t count, uint32_t top, uint8_t k,
                                   const std::string& stream,
                                   size_t ciphertexts,
                                   const crypto::BenalohPublicKey& pk) {
  std::vector<uint8_t> out;
  PutU32(&out, count);
  PutU32(&out, top);
  out.push_back(k);
  size_t bit = 0;
  for (char c : stream) {
    if (c == ' ') continue;
    if (bit % 8 == 0) out.push_back(0);
    if (c == '1') out.back() |= static_cast<uint8_t>(0x80u >> (bit % 8));
    ++bit;
  }
  Rng rng(5);
  for (size_t i = 0; i < ciphertexts; ++i) {
    std::vector<uint8_t> c = pk.Serialize(*pk.Encrypt(1, &rng));
    out.insert(out.end(), c.begin(), c.end());
  }
  return out;
}

TEST_F(WireFormatTest, ResultRoundTripsCountsAndExtremes) {
  const crypto::BenalohPublicKey& pk = keys_->public_key();
  Rng rng(21);
  for (size_t count : {0u, 1u, 544u, 5000u}) {
    SCOPED_TRACE(count);
    EncryptedResult result = RandomResult(count, pk, &rng);
    std::vector<uint8_t> bytes = EncodeResult(result, pk);
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes.size(), result.WireBytes(pk));
    auto decoded = DecodeResult(bytes, pk);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(decoded->candidates.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(decoded->candidates[i].doc, result.candidates[i].doc) << i;
      EXPECT_EQ(decoded->candidates[i].bound, result.candidates[i].bound) << i;
      EXPECT_EQ(decoded->candidates[i].score, result.candidates[i].score) << i;
    }
    if (count >= 2) {
      EXPECT_EQ(decoded->candidates.front().bound, UINT32_MAX);
      EXPECT_EQ(decoded->candidates.front().doc, 0u);
      EXPECT_TRUE(std::any_of(
          decoded->candidates.begin(), decoded->candidates.end(),
          [](const EncryptedCandidate& c) {
            return c.bound == UINT32_MAX && c.doc == UINT32_MAX;
          }));
    }
  }
  // The empty result is its bare header: count 0, top bound 0, k 0.
  EXPECT_EQ(EncodeResult(EncryptedResult{}, pk),
            (std::vector<uint8_t>{0, 0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_F(WireFormatTest, ResultEncoderRefusesWhatTheLayoutCannotCarry) {
  // Candidates out of (bound desc, doc asc) order, repeated, or with bound
  // 0 have no encoding: the encoder gives no bytes, which every decoder
  // refuses.
  const crypto::BenalohPublicKey& pk = keys_->public_key();
  Rng rng(22);
  const crypto::BenalohCiphertext c = *pk.Encrypt(1, &rng);
  const std::vector<std::vector<EncryptedCandidate>> refused = {
      {{5, 3, c}, {6, 4, c}},  // bound rises
      {{6, 4, c}, {5, 4, c}},  // doc falls within a bound run
      {{5, 4, c}, {5, 4, c}},  // repeated
      {{5, 0, c}},             // bound 0
  };
  for (const auto& candidates : refused) {
    EXPECT_TRUE(EncodeResult(EncryptedResult{candidates}, pk).empty());
  }
  EXPECT_TRUE(DecodeResult({}, pk).status().IsCorruption());
}

TEST_F(WireFormatTest, ResultDecoderRejectsEachHostileField) {
  const crypto::BenalohPublicKey& pk = keys_->public_key();
  auto expect_corruption = [&](const std::vector<uint8_t>& bytes,
                               const std::string& message) {
    auto decoded = DecodeResult(bytes, pk);
    ASSERT_FALSE(decoded.ok()) << message;
    EXPECT_TRUE(decoded.status().IsCorruption()) << message;
    EXPECT_EQ(decoded.status().message(), message);
  };
  // One candidate, doc 0 under bound 1 at k = 0: a zero drop bit, a zero
  // quotient bit and six padding bits.
  const std::vector<uint8_t> one = ResultPayload(1, 1, 0, "0 0", 1, pk);
  ASSERT_TRUE(DecodeResult(one, pk).ok());
  ASSERT_EQ(one.size(), 9u + 1 + 32);

  const std::string short_header = "PR result shorter than its 9-byte header";
  expect_corruption({}, short_header);
  expect_corruption(std::vector<uint8_t>(one.begin(), one.begin() + 8),
                    short_header);

  // count x (2 + k) bits, and count x 32 ciphertext bytes, past the bytes
  // present, in 64 bits: 0x08000000 x 32 is 0 modulo 2^32.
  const std::string past_payload = "PR result candidates exceed its payload";
  for (uint32_t count : {0xFFFFFFFFu, 0x80000000u, 0x08000000u, 2u}) {
    std::vector<uint8_t> hostile = one;
    hostile[0] = static_cast<uint8_t>(count >> 24);
    hostile[1] = static_cast<uint8_t>(count >> 16);
    hostile[2] = static_cast<uint8_t>(count >> 8);
    hostile[3] = static_cast<uint8_t>(count);
    expect_corruption(hostile, past_payload);
  }
  // Two candidates at k = 31 need 66 stream bits; 64 are present.
  expect_corruption(
      ResultPayload(2, 1, 31, std::string(64, '0'), 2, pk), past_payload);

  expect_corruption(ResultPayload(1, 1, 32, "0 0", 1, pk),
                    "PR result Rice parameter 32 out of [0, 31]");
  expect_corruption(ResultPayload(0, 7, 0, "", 0, pk),
                    "PR result top bound 7 with no candidates");
  expect_corruption(ResultPayload(1, 0, 0, "0 0", 1, pk),
                    "PR result top bound is 0");

  // A drop of 2 from bound 3 reaches bound 1; a drop of 3 passes it.
  ASSERT_TRUE(DecodeResult(ResultPayload(1, 3, 0, "110 0", 1, pk), pk).ok());
  expect_corruption(ResultPayload(1, 3, 0, "1110 0", 1, pk),
                    "PR result bound drops below 1");

  // Through a gap at k = 31: doc 2^31 - 1, then a gap of 2^31 in the same
  // bound run carries the doc past 2^32 - 1.
  const std::string half = "0 0" + std::string(31, '1');
  auto top_doc = DecodeResult(
      ResultPayload(2, 1, 31, half + half + "000000", 2, pk), pk);
  ASSERT_TRUE(top_doc.ok()) << top_doc.status().ToString();
  EXPECT_EQ(top_doc->candidates.back().doc, UINT32_MAX);
  expect_corruption(
      ResultPayload(2, 1, 31, half + " 0 10" + std::string(31, '0'), 2, pk),
      "PR result doc id passes 2^32 - 1");
  expect_corruption(ResultPayload(1, 1, 31, "0 110" + std::string(31, '0'),
                                  1, pk),
                    "PR result value passes 2^32 - 1");
  // A quotient run of ones to the stream's end, and a quotient that
  // leaves 2 bits for an 8-bit remainder.
  expect_corruption(ResultPayload(1, 1, 0, "0" + std::string(15, '1'), 1, pk),
                    "PR result unary run reaches the stream's end");
  expect_corruption(
      ResultPayload(1, 1, 8, "0 " + std::string(12, '1') + "0 00", 1, pk),
      "PR result remainder cut short");

  // Each padding bit must be zero.
  for (int bit = 0; bit < 6; ++bit) {
    std::vector<uint8_t> padded = one;
    padded[9] |= static_cast<uint8_t>(1u << bit);
    expect_corruption(padded, "PR result padding bits are not zero");
  }
  // A spare byte between the stream and the ciphertexts, at the end, or at
  // the start of the ciphertexts: the size is not header + stream + count x
  // key bytes.
  std::vector<uint8_t> spare = one;
  spare.insert(spare.begin() + 10, 0);
  expect_corruption(spare,
                    "PR result size 43 != 42 for its stream and 1 candidates");
  expect_corruption(ResultPayload(1, 1, 0, "0 0 000000 00000000", 1, pk),
                    "PR result size 43 != 42 for its stream and 1 candidates");
  // A ciphertext outside Z*_n.
  std::vector<uint8_t> out_of_range = one;
  std::fill(out_of_range.begin() + 10, out_of_range.end(), 0xFF);
  EXPECT_TRUE(DecodeResult(out_of_range, pk).status().IsCorruption());
}

TEST_F(WireFormatTest, ResultDecoderSurvivesMutations) {
  // Every truncation, every header field at 0, its maximum and its true
  // value +-1, every single-bit flip, and splices of real encodings: each
  // decodes or is Corruption.
  const crypto::BenalohPublicKey& pk = keys_->public_key();
  testutil::MutationRunner runner(
      [&](const std::vector<uint8_t>& bytes) {
        return DecodeResult(bytes, pk).status();
      });
  Rng rng(23);
  PrivateRetrievalServer server(&built_.index, &org_, nullptr);
  auto processed = server.Process(MakeQuery(&rng), pk, nullptr);
  ASSERT_TRUE(processed.ok());
  ASSERT_GT(processed->candidates.size(), 20u);
  const std::vector<std::vector<uint8_t>> small = {
      EncodeResult(*processed, pk), EncodeResult(RandomResult(0, pk, &rng), pk),
      EncodeResult(RandomResult(1, pk, &rng), pk),
      EncodeResult(RandomResult(12, pk, &rng), pk)};
  const std::vector<uint8_t> large =
      EncodeResult(RandomResult(544, pk, &rng), pk);
  const testutil::WireField fields[] = {
      {"count", 0, 4}, {"top bound", 4, 4}, {"Rice parameter", 8, 1}};
  for (const std::vector<uint8_t>& bytes : small) {
    ASSERT_GE(bytes.size(), 9u);
    runner.Truncations(bytes);
    for (const testutil::WireField& field : fields) {
      runner.FieldValues(bytes, field);
    }
    runner.BitFlips(bytes);
  }
  // The 544-candidate answer: its flips cover the header and the stream's
  // first 64 bytes; the rest of its stream and its ciphertexts are alike to
  // the decoder, and the small encodings cover them.
  runner.Truncations(large);
  for (const testutil::WireField& field : fields) {
    runner.FieldValues(large, field);
  }
  runner.BitFlips(large, 0, 9 + 64);
  for (const auto& a : small) {
    for (const auto& b : small) runner.Splices(a, b, 13);
    runner.Splices(a, large, 509);
    runner.Splices(large, a, 509);
  }
  EXPECT_GT(runner.decoded(), 0u);
  EXPECT_GT(runner.runs(), 40000u);
}

// --- Bucket organization persistence ---------------------------------------

TEST_F(WireFormatTest, BucketOrganizationRoundTrip) {
  std::string text = SerializeBuckets(org_);
  auto parsed = ParseBuckets(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->bucket_count(), org_.bucket_count());
  for (size_t b = 0; b < org_.bucket_count(); ++b) {
    EXPECT_EQ(parsed->bucket(b), org_.bucket(b));
  }
  // Locate() agrees after the round trip.
  wordnet::TermId t = org_.bucket(7)[1];
  EXPECT_EQ(parsed->Locate(t)->bucket, org_.Locate(t)->bucket);
}

TEST_F(WireFormatTest, BucketFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/buckets_rt.txt";
  ASSERT_TRUE(SaveBucketsToFile(org_, path).ok());
  auto loaded = LoadBucketsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->bucket_count(), org_.bucket_count());
  std::remove(path.c_str());
}

TEST_F(WireFormatTest, BucketParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseBuckets("").ok());
  EXPECT_FALSE(ParseBuckets("wrong 1\n").ok());
  EXPECT_FALSE(ParseBuckets("embellish-buckets 1\nbuckets x\n").ok());
  EXPECT_FALSE(ParseBuckets("embellish-buckets 1\nbuckets 2\nB 1 2\n").ok());
  // Duplicate term across buckets -> Create() rejects.
  EXPECT_FALSE(
      ParseBuckets("embellish-buckets 1\nbuckets 2\nB 1 2\nB 2 3\n").ok());
  // Empty bucket.
  EXPECT_FALSE(
      ParseBuckets("embellish-buckets 1\nbuckets 2\nB 1 2\nB\n").ok());
  // Valid minimal case.
  EXPECT_TRUE(
      ParseBuckets("embellish-buckets 1\nbuckets 2\nB 1 2\nB 3 4\n").ok());
}

TEST_F(WireFormatTest, LoadBucketsMissingFile) {
  auto loaded = LoadBucketsFromFile("/nonexistent/buckets.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIoError());
}

}  // namespace
}  // namespace embellish::core
