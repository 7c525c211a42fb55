#include "common/status.h"

#include <gtest/gtest.h>

namespace embellish {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad bucket size");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad bucket size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad bucket size");
}

TEST(StatusTest, AllFactoriesMapToDistinctCodes) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::CryptoError("x").IsCryptoError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, PrintsCodeAndMessage) {
  // A failed EXPECT_EQ on two statuses prints each through this.
  EXPECT_EQ(::testing::PrintToString(Status::Corruption("bad frame")),
            "Corruption: bad frame");
  EXPECT_EQ(::testing::PrintToString(Status::OK()), "OK");
}

TEST(StatusTest, CodeNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kCryptoError), "CryptoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> Doubler(Result<int> in) {
  EMB_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::Internal("boom")).status().IsInternal());
}

Status FailIfNegative(int v) {
  if (v < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status Chain(int v) {
  EMB_RETURN_NOT_OK(FailIfNegative(v));
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_TRUE(Chain(-1).IsOutOfRange());
}

}  // namespace
}  // namespace embellish
