#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/rng.hpp"

namespace sma::core {
namespace {

core::MirroredVolume make_volume() {
  core::VolumeConfig cfg;
  cfg.n = 3;
  cfg.with_parity = true;
  cfg.arrangement = "shifted";
  cfg.content_bytes = 64;
  auto vol = core::MirroredVolume::create(cfg);
  EXPECT_TRUE(vol.is_ok());
  return std::move(vol).take();
}

TEST(TraceParse, BasicOpsCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "R 0 128\n"
      "\n"
      "W 64 32   # inline comment\n"
      "r 10 1\n"
      "w 0 5\n");
  auto ops = parse_trace(in);
  ASSERT_TRUE(ops.is_ok()) << ops.status().to_string();
  ASSERT_EQ(ops.value().size(), 4u);
  EXPECT_FALSE(ops.value()[0].is_write);
  EXPECT_EQ(ops.value()[0].offset, 0u);
  EXPECT_EQ(ops.value()[0].length, 128u);
  EXPECT_TRUE(ops.value()[1].is_write);
  EXPECT_EQ(ops.value()[1].offset, 64u);
  EXPECT_FALSE(ops.value()[2].is_write);
  EXPECT_TRUE(ops.value()[3].is_write);
}

TEST(TraceParse, RejectsBadLines) {
  {
    std::istringstream in("X 0 10\n");
    EXPECT_EQ(parse_trace(in).status().code(), ErrorCode::kInvalidArgument);
  }
  {
    std::istringstream in("R 0\n");  // missing length
    EXPECT_EQ(parse_trace(in).status().code(), ErrorCode::kInvalidArgument);
  }
  {
    std::istringstream in("R 0 0\n");  // zero length
    EXPECT_EQ(parse_trace(in).status().code(), ErrorCode::kInvalidArgument);
  }
  {
    std::istringstream in("R -5 10\n");
    EXPECT_EQ(parse_trace(in).status().code(), ErrorCode::kInvalidArgument);
  }
  {
    std::istringstream in("R 0 10 junk\n");
    EXPECT_EQ(parse_trace(in).status().code(), ErrorCode::kInvalidArgument);
  }
}

TEST(TraceParse, ErrorNamesTheLine) {
  std::istringstream in("R 0 10\nW 5 5\nBOGUS 1 2\n");
  const auto status = parse_trace(in).status();
  EXPECT_NE(status.message().find("line 3"), std::string::npos);
}

TEST(TraceReplay, CountsAndConsistency) {
  auto vol = make_volume();
  std::istringstream in(
      "W 0 100\n"
      "R 0 100\n"
      "W 250 64\n"
      "R 200 164\n");
  auto ops = parse_trace(in);
  ASSERT_TRUE(ops.is_ok());
  auto report = replay_trace(vol, ops.value());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().reads, 2u);
  EXPECT_EQ(report.value().writes, 2u);
  EXPECT_EQ(report.value().bytes_read, 264u);
  EXPECT_EQ(report.value().bytes_written, 164u);
  EXPECT_TRUE(vol.verify().is_ok());
}

TEST(TraceReplay, WriteThenReadReturnsWrittenBytes) {
  auto vol = make_volume();
  const std::vector<TraceOp> ops{{true, 10, 50}};
  ASSERT_TRUE(replay_trace(vol, ops, /*seed=*/7).is_ok());
  // Regenerate what the replayer wrote for op index 0.
  std::vector<std::uint8_t> expect(50);
  sma::fill_pattern(7 ^ 0x9e3779b97f4a7c15ULL, expect.data(), expect.size());
  std::vector<std::uint8_t> got(50);
  ASSERT_TRUE(vol.read_range(10, got).is_ok());
  EXPECT_EQ(got, expect);
}

TEST(TraceReplay, OutOfRangeOpFailsWithOpNumber) {
  auto vol = make_volume();
  const std::vector<TraceOp> ops{{false, 0, 10},
                                 {true, vol.capacity_bytes(), 1}};
  const auto status = replay_trace(vol, ops).status();
  EXPECT_EQ(status.code(), ErrorCode::kOutOfRange);
  EXPECT_NE(status.message().find("trace op 2"), std::string::npos);
}

TEST(TraceReplay, WorksDegraded) {
  auto vol = make_volume();
  vol.fail_disk(1);
  const std::vector<TraceOp> ops{{true, 0, 200}, {false, 0, 200}};
  auto report = replay_trace(vol, ops);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().reads, 1u);
}

TEST(TraceReplay, EmptyTraceTrivial) {
  auto vol = make_volume();
  auto report = replay_trace(vol, {});
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().reads + report.value().writes, 0u);
}

}  // namespace
}  // namespace sma::core
