// Umbrella header for the embellish library.
//
// embellish is a from-scratch C++20 implementation of
//   Pang, Ding, Xiao: "Embellishing Text Search Queries To Protect User
//   Privacy", PVLDB 3(1), 2010,
// including every substrate the paper depends on: a lexical database with a
// synthetic WordNet generator, a text analysis pipeline, a synthetic corpus
// generator, an impact-ordered inverted index, Benaloh/Paillier homomorphic
// encryption and Kushilevitz-Ostrovsky PIR over arbitrary-precision
// arithmetic, plus the paper's bucket-organization, query-embellishment and
// private-retrieval algorithms with full cost accounting.
//
// Typical usage (see examples/quickstart.cc for the runnable version):
//
//   auto lexicon  = wordnet::GenerateSyntheticWordNet({});
//   auto spec     = core::SpecificityMap::FromHypernymDepth(*lexicon);
//   auto seq      = core::SequenceDictionary(*lexicon);
//   auto buckets  = core::FormBuckets(seq, spec, {.bucket_size = 4});
//   auto keys     = crypto::BenalohKeyPair::Generate({}, &rng);
//   core::PrivateRetrievalClient client(&*buckets, &keys->public_key(),
//                                       &keys->private_key());
//   core::PrivateRetrievalServer server(&index, &*buckets, &layout);
//   auto top = core::RunPrivateQuery(client, server, keys->public_key(),
//                                    {...term ids...}, 20, &rng, &costs);

#ifndef EMBELLISH_EMBELLISH_H_
#define EMBELLISH_EMBELLISH_H_

#include "common/answer_path.h"  // IWYU pragma: export
#include "common/log.h"          // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/stopwatch.h"    // IWYU pragma: export
#include "common/strings.h"      // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export

#include "bignum/bigint.h"       // IWYU pragma: export
#include "bignum/modmath.h"      // IWYU pragma: export
#include "bignum/montgomery.h"   // IWYU pragma: export
#include "bignum/prime.h"        // IWYU pragma: export

#include "crypto/benaloh.h"      // IWYU pragma: export
#include "crypto/paillier.h"     // IWYU pragma: export
#include "crypto/pir.h"          // IWYU pragma: export

#include "wordnet/builder.h"     // IWYU pragma: export
#include "wordnet/database.h"    // IWYU pragma: export
#include "wordnet/generator.h"   // IWYU pragma: export
#include "wordnet/mini_wordnet.h"// IWYU pragma: export
#include "wordnet/relation_extraction.h"  // IWYU pragma: export
#include "wordnet/text_format.h" // IWYU pragma: export

#include "text/analyzer.h"       // IWYU pragma: export
#include "text/stopwords.h"      // IWYU pragma: export
#include "text/tokenizer.h"      // IWYU pragma: export

#include "corpus/corpus.h"       // IWYU pragma: export
#include "corpus/generator.h"    // IWYU pragma: export
#include "corpus/zipf.h"         // IWYU pragma: export

#include "index/builder.h"       // IWYU pragma: export
#include "index/dictionary.h"    // IWYU pragma: export
#include "index/epoch.h"         // IWYU pragma: export
#include "index/impact.h"        // IWYU pragma: export
#include "index/inverted_index.h"// IWYU pragma: export
#include "index/sharding.h"      // IWYU pragma: export
#include "index/topk.h"          // IWYU pragma: export

#include "storage/block_device.h"// IWYU pragma: export
#include "storage/layout.h"      // IWYU pragma: export

#include "core/adversary.h"          // IWYU pragma: export
#include "core/bucket_io.h"          // IWYU pragma: export
#include "core/bucket_organization.h"// IWYU pragma: export
#include "core/bucketizer.h"         // IWYU pragma: export
#include "core/decoy_random.h"       // IWYU pragma: export
#include "core/embellisher.h"        // IWYU pragma: export
#include "core/grouping_adversary.h" // IWYU pragma: export
#include "core/pir_retrieval.h"      // IWYU pragma: export
#include "core/private_retrieval.h"  // IWYU pragma: export
#include "core/query_expansion.h"    // IWYU pragma: export
#include "core/risk.h"               // IWYU pragma: export
#include "core/semantic_distance.h"  // IWYU pragma: export
#include "core/sequencer.h"          // IWYU pragma: export
#include "core/session.h"            // IWYU pragma: export
#include "core/specificity.h"        // IWYU pragma: export
#include "core/wire_format.h"        // IWYU pragma: export

#include "server/async_frontend.h"   // IWYU pragma: export
#include "server/embellish_server.h" // IWYU pragma: export
#include "server/event_loop.h"       // IWYU pragma: export
#include "server/framing.h"          // IWYU pragma: export
#include "server/io_util.h"          // IWYU pragma: export
#include "server/multiplexed_transport.h"  // IWYU pragma: export
#include "server/session_client.h"   // IWYU pragma: export
#include "server/shard_coordinator.h"// IWYU pragma: export
#include "server/shard_transport.h"  // IWYU pragma: export

#endif  // EMBELLISH_EMBELLISH_H_
