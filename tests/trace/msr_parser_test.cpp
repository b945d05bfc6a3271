#include "trace/msr_parser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ppssd::trace {
namespace {

TEST(MsrParser, ParsesWellFormedLine) {
  TraceRecord rec;
  std::uint64_t raw = 0;
  ASSERT_TRUE(MsrTraceParser::parse_line(
      "128166372003061629,hm,0,Read,383496192,32768,58000", &rec != nullptr
          ? rec
          : rec,
      &raw));
  EXPECT_EQ(rec.op, OpType::kRead);
  EXPECT_EQ(rec.offset, 383496192u);
  EXPECT_EQ(rec.size, 32768u);
  EXPECT_EQ(raw, 128166372003061629u);
}

TEST(MsrParser, WriteTypeCaseInsensitive) {
  TraceRecord rec;
  EXPECT_TRUE(
      MsrTraceParser::parse_line("1,h,0,WRITE,4096,512,1", rec, nullptr));
  EXPECT_EQ(rec.op, OpType::kWrite);
  EXPECT_TRUE(MsrTraceParser::parse_line("1,h,0,w,4096,512,1", rec, nullptr));
  EXPECT_EQ(rec.op, OpType::kWrite);
}

TEST(MsrParser, RejectsMalformedLines) {
  TraceRecord rec;
  EXPECT_FALSE(MsrTraceParser::parse_line("", rec, nullptr));
  EXPECT_FALSE(MsrTraceParser::parse_line("1,h,0,Read", rec, nullptr));
  EXPECT_FALSE(
      MsrTraceParser::parse_line("x,h,0,Read,1,1,1", rec, nullptr));
  EXPECT_FALSE(
      MsrTraceParser::parse_line("1,h,0,Flush,1,1,1", rec, nullptr));
  EXPECT_FALSE(
      MsrTraceParser::parse_line("1,h,0,Read,abc,1,1", rec, nullptr));
  EXPECT_FALSE(MsrTraceParser::parse_line("1,h,0,Read,1,0,1", rec, nullptr));
}

class MsrParserFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the fixture's tests concurrently, and
    // a shared path lets one test's TearDown delete the other's input.
    path_ = ::testing::TempDir() + "ppssd_msr_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    std::ofstream out(path_);
    out << "128166372003000000,srv,0,Write,0,4096,100\n"
        << "# a comment line\n"
        << "128166372003100000,srv,0,Read,0,8192,100\n"
        << "garbage line that should be skipped\n"
        << "128166372003200000,srv,0,Write,16384,4096,100\n";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(MsrParserFileTest, StreamsRecordsWithRebasedTime) {
  MsrTraceParser parser(path_);
  TraceRecord rec;

  ASSERT_TRUE(parser.next(rec));
  EXPECT_EQ(rec.arrival, 0u);  // rebased to trace start
  EXPECT_EQ(rec.op, OpType::kWrite);

  ASSERT_TRUE(parser.next(rec));
  // 100000 FILETIME ticks * 100 ns.
  EXPECT_EQ(rec.arrival, 10'000'000u);
  EXPECT_EQ(rec.op, OpType::kRead);
  EXPECT_EQ(rec.size, 8192u);

  ASSERT_TRUE(parser.next(rec));
  EXPECT_EQ(rec.offset, 16384u);

  EXPECT_FALSE(parser.next(rec));
  EXPECT_EQ(parser.skipped_lines(), 1u);  // only the garbage line
}

TEST_F(MsrParserFileTest, ResetRestartsStream) {
  MsrTraceParser parser(path_);
  TraceRecord rec;
  while (parser.next(rec)) {
  }
  parser.reset();
  ASSERT_TRUE(parser.next(rec));
  EXPECT_EQ(rec.arrival, 0u);
}

TEST(MsrParser, MissingFileThrows) {
  EXPECT_THROW(MsrTraceParser("/nonexistent/definitely_missing.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace ppssd::trace
