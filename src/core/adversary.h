// The Bayesian adversary of Section 3.1 (Equations 1-2), implemented exactly
// on small instances.
//
// Observing buckets B_i1..B_im for each query i, the adversary's candidate
// space is Q_i = B_i1 x ... x B_im; candidate sequences are S = Q_1 x ... x
// Q_n. With prior alpha(s'), the posterior is
//     beta(s') = alpha(s') / sum_{s*} alpha(s*)                     (Eq. 1)
// and the privacy risk of the organization is
//     risk = sum_{s'} beta(s') * sim(s', s)                         (Eq. 2)
// where s is the genuine sequence. The paper notes exact computation is
// impractical in general (S is exponential); this module enumerates it for
// the small instances the tests and the privacy_audit example use, with a
// hard cap on |S|.
//
// sim(s', s) is instantiated as the mean per-position query similarity,
// where query similarity is the mean pairwise semantic proximity
// 1 / (1 + dist) between aligned terms — a monotone proxy for Formula 3
// that stays well-defined on term-id sequences.
//
// A server that sees two uplinks byte for byte alike learns that the two
// queries carry the same genuine terms, which the bucket sets alone do not
// show. The optional equality partition models that: linked positions must
// take the same candidate, so S shrinks to the first occurrences' product.
// Under the uniform prior each position's marginal stays uniform over its
// Q_i, so Eq. 2's risk does not move; the posterior on the genuine
// sequence is what linking raises (from 1/b^(m*r) to 1/b^m for one m-term
// set issued r times at bucket size b).

#ifndef EMBELLISH_CORE_ADVERSARY_H_
#define EMBELLISH_CORE_ADVERSARY_H_

#include <vector>

#include "common/status.h"
#include "core/bucket_organization.h"
#include "core/semantic_distance.h"

namespace embellish::core {

/// \brief Result of the exact risk computation.
struct AdversaryRisk {
  /// Eq. 2 value in [0, 1]: expected similarity of the adversary's pick to
  /// the genuine sequence.
  double risk = 0.0;

  /// Posterior mass beta(s) on the genuine sequence itself.
  double posterior_on_truth = 0.0;

  /// Number of candidate sequences enumerated (|S|).
  uint64_t candidate_count = 0;
};

/// \brief Exact Eq. 1-2 computation under a uniform prior.
///
/// `genuine_sequence[i]` is query i's genuine terms (each must be bucketed).
/// `repeat_of` is the equality the server observed between uplinks, one
/// entry per query position: entry i names the first position whose uplink
/// was byte-identical to position i's (i itself when none was). Empty means
/// no equality was observed. `candidate_count` and `posterior_on_truth`
/// multiply over first occurrences only; `risk` is the same with or without
/// the partition. Fails with InvalidArgument when |S| would exceed
/// `max_candidates`, or when `repeat_of` has the wrong length, points an
/// entry after its own position or at a position that itself repeats an
/// earlier one, or links positions whose genuine terms differ.
Result<AdversaryRisk> ComputeAdversaryRisk(
    const BucketOrganization& org, const SemanticDistanceCalculator& distance,
    const std::vector<std::vector<wordnet::TermId>>& genuine_sequence,
    const std::vector<size_t>& repeat_of = {},
    uint64_t max_candidates = 2000000);

}  // namespace embellish::core

#endif  // EMBELLISH_CORE_ADVERSARY_H_
