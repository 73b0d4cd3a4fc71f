#include "util/status.h"

#include <gtest/gtest.h>

namespace twrs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), Status::Code::kOk);
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_FALSE(Status::IOError("x").ok());
  EXPECT_EQ(Status::IOError("disk gone").message(), "disk gone");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::IOError("open failed").ToString(),
            "IO error: open failed");
  EXPECT_EQ(Status::NotFound("").ToString(), "Not found");
  EXPECT_EQ(Status::InvalidArgument("bad").ToString(),
            "Invalid argument: bad");
  EXPECT_EQ(Status::Internal("lost").ToString(), "Internal error: lost");
}

Status FailsFirst() { return Status::Corruption("bad page"); }

Status Caller() {
  TWRS_RETURN_IF_ERROR(FailsFirst());
  return Status::OK();  // must be unreachable
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = Caller();
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "bad page");
}

TEST(StatusTest, CopyPreservesState) {
  Status a = Status::InvalidArgument("nope");
  Status b = a;
  EXPECT_TRUE(b.IsInvalidArgument());
  EXPECT_EQ(b.message(), "nope");
}

}  // namespace
}  // namespace twrs
