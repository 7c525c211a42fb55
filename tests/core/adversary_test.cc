#include "core/adversary.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/decoy_random.h"
#include "testutil.h"

namespace embellish::core {
namespace {

class AdversaryTest : public ::testing::Test {
 protected:
  AdversaryTest()
      : lex_(testutil::TinyLexicon()), dist_(&lex_) {}

  wordnet::WordNetDatabase lex_;
  SemanticDistanceCalculator dist_;
};

TEST_F(AdversaryTest, SingleQuerySingleTermUniformPosterior) {
  // One query, one term, bucket of width 4: posterior on the truth = 1/4.
  auto org = BucketOrganization::Create({{0, 5, 8, 11}});
  ASSERT_TRUE(org.ok());
  auto risk = ComputeAdversaryRisk(*org, dist_, {{0}});
  ASSERT_TRUE(risk.ok()) << risk.status().ToString();
  EXPECT_EQ(risk->candidate_count, 4u);
  EXPECT_NEAR(risk->posterior_on_truth, 0.25, 1e-12);
  // sim(truth, truth) = 1 contributes 1/4; decoys contribute less.
  EXPECT_GT(risk->risk, 0.25 * 1.0 - 1e-12);
  EXPECT_LT(risk->risk, 1.0);
}

TEST_F(AdversaryTest, WiderBucketsLowerPosterior) {
  auto narrow = BucketOrganization::Create({{0, 5}});
  auto wide = BucketOrganization::Create({{0, 5, 8, 11, 3, 6}});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  auto r_narrow = ComputeAdversaryRisk(*narrow, dist_, {{0}});
  auto r_wide = ComputeAdversaryRisk(*wide, dist_, {{0}});
  ASSERT_TRUE(r_narrow.ok());
  ASSERT_TRUE(r_wide.ok());
  EXPECT_GT(r_narrow->posterior_on_truth, r_wide->posterior_on_truth);
  EXPECT_GT(r_narrow->risk, r_wide->risk);
}

TEST_F(AdversaryTest, SemanticallyDiverseDecoysLowerRisk) {
  // Decoys near the genuine term inflate expected similarity; decoys far
  // from it deflate it. dog's close cover: {puppy, cat}; far cover:
  // {coupe, garage}.
  wordnet::TermId dog = lex_.FindTerm("dog");
  wordnet::TermId puppy = lex_.FindTerm("puppy");
  wordnet::TermId cat = lex_.FindTerm("cat");
  wordnet::TermId coupe = lex_.FindTerm("coupe");
  wordnet::TermId garage = lex_.FindTerm("garage");
  auto close_cover = BucketOrganization::Create({{dog, puppy, cat}});
  auto far_cover = BucketOrganization::Create({{dog, coupe, garage}});
  ASSERT_TRUE(close_cover.ok());
  ASSERT_TRUE(far_cover.ok());
  auto r_close = ComputeAdversaryRisk(*close_cover, dist_, {{dog}});
  auto r_far = ComputeAdversaryRisk(*far_cover, dist_, {{dog}});
  ASSERT_TRUE(r_close.ok());
  ASSERT_TRUE(r_far.ok());
  EXPECT_GT(r_close->risk, r_far->risk);
}

TEST_F(AdversaryTest, MultiQuerySequencePosteriorFactorizes) {
  auto org = BucketOrganization::Create({{0, 5}, {8, 11}});
  ASSERT_TRUE(org.ok());
  auto risk = ComputeAdversaryRisk(*org, dist_, {{0}, {8}});
  ASSERT_TRUE(risk.ok());
  EXPECT_EQ(risk->candidate_count, 4u);  // 2 x 2
  EXPECT_NEAR(risk->posterior_on_truth, 0.25, 1e-12);
}

TEST_F(AdversaryTest, MultiTermQueryExpandsCandidateSpace) {
  auto org = BucketOrganization::Create({{0, 5, 8}, {11, 3, 6}});
  ASSERT_TRUE(org.ok());
  auto risk = ComputeAdversaryRisk(*org, dist_, {{0, 11}});
  ASSERT_TRUE(risk.ok());
  EXPECT_EQ(risk->candidate_count, 9u);  // 3 x 3
  EXPECT_NEAR(risk->posterior_on_truth, 1.0 / 9.0, 1e-12);
}

TEST_F(AdversaryTest, RejectsOversizedCandidateSpace) {
  auto org = BucketOrganization::Create({{0, 5, 8, 11}});
  ASSERT_TRUE(org.ok());
  // 4^12 = 16M > 2M cap.
  std::vector<std::vector<wordnet::TermId>> seq(12, {0});
  auto risk = ComputeAdversaryRisk(*org, dist_, seq, /*repeat_of=*/{},
                                   /*max_candidates=*/2000000);
  EXPECT_FALSE(risk.ok());
}

TEST_F(AdversaryTest, RejectsMalformedInput) {
  auto org = BucketOrganization::Create({{0, 5}});
  ASSERT_TRUE(org.ok());
  EXPECT_FALSE(ComputeAdversaryRisk(*org, dist_, {}).ok());
  EXPECT_FALSE(ComputeAdversaryRisk(*org, dist_, {{}}).ok());
  EXPECT_FALSE(ComputeAdversaryRisk(*org, dist_, {{99}}).ok());  // unbucketed
}

TEST_F(AdversaryTest, LinkedRepeatsRaiseThePosteriorNotTheRisk) {
  // One 2-term set issued 3 times at bucket size 4. Unlinked, every issue
  // is a fresh 4 x 4 choice: 4^6 sequences. Linked by byte-identical
  // uplinks, the three issues are one choice: 4^2.
  auto org = BucketOrganization::Create({{0, 5, 8, 11}, {1, 3, 6, 9}});
  ASSERT_TRUE(org.ok());
  const std::vector<std::vector<wordnet::TermId>> thrice(3, {5, 6});
  auto unlinked = ComputeAdversaryRisk(*org, dist_, thrice);
  auto linked = ComputeAdversaryRisk(*org, dist_, thrice, {0, 0, 0});
  ASSERT_TRUE(unlinked.ok()) << unlinked.status().ToString();
  ASSERT_TRUE(linked.ok()) << linked.status().ToString();
  EXPECT_EQ(unlinked->candidate_count, 4096u);
  EXPECT_NEAR(unlinked->posterior_on_truth, 1.0 / 4096.0, 1e-15);
  EXPECT_EQ(linked->candidate_count, 16u);
  EXPECT_NEAR(linked->posterior_on_truth, 1.0 / 16.0, 1e-15);
  EXPECT_DOUBLE_EQ(linked->risk, unlinked->risk);

  // The identity partition is the unlinked case.
  auto identity = ComputeAdversaryRisk(*org, dist_, thrice, {0, 1, 2});
  ASSERT_TRUE(identity.ok());
  EXPECT_EQ(identity->candidate_count, 4096u);
  EXPECT_DOUBLE_EQ(identity->risk, unlinked->risk);
}

TEST_F(AdversaryTest, RejectsMalformedRepeatPartition) {
  auto org = BucketOrganization::Create({{0, 5, 8, 11}, {1, 3, 6, 9}});
  ASSERT_TRUE(org.ok());
  const std::vector<std::vector<wordnet::TermId>> thrice(3, {5, 6});
  // Wrong length.
  EXPECT_TRUE(ComputeAdversaryRisk(*org, dist_, thrice, {0, 0})
                  .status()
                  .IsInvalidArgument());
  // An entry that points after its own position.
  EXPECT_TRUE(ComputeAdversaryRisk(*org, dist_, thrice, {1, 1, 2})
                  .status()
                  .IsInvalidArgument());
  // An entry that points at a position which repeats an earlier one.
  EXPECT_TRUE(ComputeAdversaryRisk(*org, dist_, thrice, {0, 0, 1})
                  .status()
                  .IsInvalidArgument());
  // Linked positions whose genuine terms differ.
  const std::vector<std::vector<wordnet::TermId>> differ = {{5, 6}, {8, 6}};
  EXPECT_TRUE(ComputeAdversaryRisk(*org, dist_, differ, {0, 0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ComputeAdversaryRisk(*org, dist_, differ, {0, 1}).ok());
}

TEST_F(AdversaryTest, RiskBoundedByOne) {
  auto org = BucketOrganization::Create({{0, 5, 8}});
  ASSERT_TRUE(org.ok());
  auto risk = ComputeAdversaryRisk(*org, dist_, {{0}, {0}, {0}});
  ASSERT_TRUE(risk.ok());
  EXPECT_LE(risk->risk, 1.0 + 1e-12);
  EXPECT_GE(risk->risk, 0.0);
}

}  // namespace
}  // namespace embellish::core
