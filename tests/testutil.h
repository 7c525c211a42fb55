// Shared fixtures for the test suite: small deterministic lexicons, corpora
// and bucket organizations so individual tests stay focused and fast.

#ifndef EMBELLISH_TESTS_TESTUTIL_H_
#define EMBELLISH_TESTS_TESTUTIL_H_

#include <memory>
#include <vector>

#include "bignum/modmath.h"
#include "core/bucketizer.h"
#include "core/sequencer.h"
#include "core/specificity.h"
#include "corpus/generator.h"
#include "crypto/benaloh.h"
#include "index/builder.h"
#include "index/epoch.h"
#include "wordnet/builder.h"
#include "wordnet/generator.h"

namespace embellish::testutil {

/// \brief A hand-built 12-term lexicon with two hypernym chains and one of
///        each non-hierarchy relation; depths are easy to eyeball.
///
///   entity
///   ├── animal ── dog ── puppy
///   │        └── cat
///   └── artifact ── vehicle ── car ── coupe
///                          └── truck
///   plus: antonym(dog, cat), meronym(car, engine [under artifact]),
///   derivation(vehicle, garage [under artifact]), domain(coupe, racing
///   [under entity]).
inline wordnet::WordNetDatabase TinyLexicon() {
  wordnet::WordNetBuilder b;
  auto entity = b.AddSynset({"entity"});
  auto animal = b.AddSynset({"animal", "beast"});
  auto dog = b.AddSynset({"dog"});
  auto puppy = b.AddSynset({"puppy"});
  auto cat = b.AddSynset({"cat"});
  auto artifact = b.AddSynset({"artifact"});
  auto vehicle = b.AddSynset({"vehicle"});
  auto car = b.AddSynset({"car", "auto"});
  auto coupe = b.AddSynset({"coupe"});
  auto truck = b.AddSynset({"truck"});
  auto engine = b.AddSynset({"engine"});
  auto garage = b.AddSynset({"garage"});
  auto racing = b.AddSynset({"racing"});

  (void)b.AddHypernym(animal, entity);
  (void)b.AddHypernym(dog, animal);
  (void)b.AddHypernym(puppy, dog);
  (void)b.AddHypernym(cat, animal);
  (void)b.AddHypernym(artifact, entity);
  (void)b.AddHypernym(vehicle, artifact);
  (void)b.AddHypernym(car, vehicle);
  (void)b.AddHypernym(coupe, car);
  (void)b.AddHypernym(truck, vehicle);
  (void)b.AddHypernym(engine, artifact);
  (void)b.AddHypernym(garage, artifact);
  (void)b.AddHypernym(racing, entity);

  (void)b.AddRelation(dog, wordnet::RelationType::kAntonym, cat);
  (void)b.AddRelation(car, wordnet::RelationType::kMeronym, engine);
  (void)b.AddRelation(vehicle, wordnet::RelationType::kDerivation, garage);
  (void)b.AddRelation(coupe, wordnet::RelationType::kDomain, racing);

  auto db = std::move(b).Build();
  return std::move(db).value();
}

/// \brief A small synthetic lexicon (deterministic).
inline wordnet::WordNetDatabase SmallSyntheticLexicon(
    size_t terms = 2000, uint64_t seed = 42) {
  wordnet::SyntheticWordNetOptions options;
  options.target_term_count = terms;
  options.seed = seed;
  auto db = wordnet::GenerateSyntheticWordNet(options);
  return std::move(db).value();
}

/// \brief A small synthetic corpus over `lexicon`.
inline corpus::Corpus SmallCorpus(const wordnet::WordNetDatabase& lexicon,
                                  size_t docs = 300, uint64_t seed = 7) {
  corpus::SyntheticCorpusOptions options;
  options.num_docs = docs;
  options.mean_doc_tokens = 60;
  options.num_topics = 8;
  options.terms_per_topic = std::min<size_t>(200, lexicon.term_count() / 2);
  options.seed = seed;
  auto c = corpus::GenerateSyntheticCorpus(lexicon, options);
  return std::move(c).value();
}

/// \brief Buckets for a lexicon via the real Algorithm 1 + 2 pipeline.
inline core::BucketOrganization MakeBuckets(
    const wordnet::WordNetDatabase& lexicon, size_t bucket_size,
    size_t segment_size) {
  auto spec = core::SpecificityMap::FromHypernymDepth(lexicon);
  auto seq = core::SequenceDictionary(lexicon);
  core::BucketizerOptions options;
  options.bucket_size = bucket_size;
  options.segment_size = segment_size;
  auto org = core::FormBuckets(seq, spec, options);
  return std::move(org).value();
}

/// \brief A Benaloh public key one byte wider than any
///        BenalohKeyPair::Generate makes: a full-width odd modulus of
///        crypto::kMaxBenalohModulusBits / 8 + 1 bytes and a generator
///        below it. A hello carrying it must be refused.
inline crypto::BenalohPublicKey OversizedBenalohKey(Rng* rng) {
  bignum::BigInt n =
      (bignum::RandomBits(crypto::kMaxBenalohModulusBits + 7, rng) << 1) +
      bignum::BigInt(1);
  bignum::BigInt g = bignum::RandomUnit(n, rng);
  return crypto::BenalohPublicKey(std::move(n), std::move(g), 59049);
}

/// \brief A frozen catalog over `index` (not owned), split `shards` ways by
///        document range, without storage layouts: servers over it charge
///        no I/O.
inline std::unique_ptr<index::IndexCatalog> FreezeCatalog(
    const index::InvertedIndex* index, const core::BucketOrganization* buckets,
    size_t shards = 1) {
  index::IndexCatalogOptions options;
  options.sharding.shard_count = shards;
  options.build_layouts = false;
  return std::move(index::IndexCatalog::Freeze(index, buckets, options))
      .value();
}

}  // namespace embellish::testutil

#endif  // EMBELLISH_TESTS_TESTUTIL_H_
