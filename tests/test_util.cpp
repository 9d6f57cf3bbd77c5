/// Serialization, CLI parsing, timers, logging plumbing.
#include <gtest/gtest.h>

#include <sstream>

#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/serialize.hpp"
#include "util/timer.hpp"

namespace {

TEST(Serialize, PrimitiveRoundTrip) {
  std::stringstream ss;
  nc::util::write_u32(ss, 0xDEADBEEFu);
  nc::util::write_u64(ss, 0x0123456789ABCDEFull);
  nc::util::write_i64(ss, -42);
  nc::util::write_f32(ss, 3.25f);
  nc::util::write_f64(ss, -1.5e300);
  nc::util::write_string(ss, "wedge");

  EXPECT_EQ(nc::util::read_u32(ss), 0xDEADBEEFu);
  EXPECT_EQ(nc::util::read_u64(ss), 0x0123456789ABCDEFull);
  EXPECT_EQ(nc::util::read_i64(ss), -42);
  EXPECT_EQ(nc::util::read_f32(ss), 3.25f);
  EXPECT_EQ(nc::util::read_f64(ss), -1.5e300);
  EXPECT_EQ(nc::util::read_string(ss), "wedge");
}

TEST(Serialize, PodVectorRoundTrip) {
  std::stringstream ss;
  std::vector<std::int32_t> v{1, -2, 3, -4};
  nc::util::write_pod_vector(ss, v);
  EXPECT_EQ(nc::util::read_pod_vector<std::int32_t>(ss), v);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  nc::util::write_u32(ss, 7);
  (void)nc::util::read_u32(ss);
  EXPECT_THROW(nc::util::read_u64(ss), nc::util::SerializeError);
}

TEST(Serialize, MagicValidation) {
  std::stringstream ss;
  nc::util::write_magic(ss, "ABCD", 3);
  EXPECT_EQ(nc::util::read_magic(ss, "ABCD"), 3u);

  std::stringstream bad;
  nc::util::write_magic(bad, "ABCD", 3);
  EXPECT_THROW(nc::util::read_magic(bad, "WXYZ"), nc::util::SerializeError);
}

TEST(Cli, ParsesOptionsFlagsAndPositionals) {
  nc::util::ArgParser p("prog", "test");
  p.add_option("events", "16", "number of events");
  p.add_option("scale", "0.25", "geometry scale");
  p.add_flag("verbose", "chatty output");
  const char* argv[] = {"prog", "--events", "32", "--scale=0.5", "--verbose",
                        "input.bin"};
  ASSERT_TRUE(p.parse(6, argv));
  EXPECT_EQ(p.get_int("events"), 32);
  EXPECT_DOUBLE_EQ(p.get_double("scale"), 0.5);
  EXPECT_TRUE(p.get_bool("verbose"));
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "input.bin");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  nc::util::ArgParser p("prog", "test");
  p.add_option("events", "16", "n");
  p.add_flag("verbose", "v");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("events"), 16);
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(Cli, UnknownFlagRejected) {
  nc::util::ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(Cli, UnregisteredGetThrows) {
  nc::util::ArgParser p("prog", "test");
  EXPECT_THROW(p.get("nope"), std::invalid_argument);
}

TEST(Parallel, HardwareThreadsIsPositive) {
  EXPECT_GE(nc::util::hardware_threads(), 1u);
}

TEST(Timer, MeasuresElapsedTime) {
  nc::util::Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GT(t.elapsed_s(), 0.0);
  EXPECT_NEAR(t.elapsed_ms(), t.elapsed_s() * 1e3, t.elapsed_ms() * 0.5);
}

TEST(Accumulator, SumsWindows) {
  nc::util::Accumulator acc;
  for (int i = 0; i < 3; ++i) {
    acc.start();
    volatile double sink = 0;
    for (int j = 0; j < 100000; ++j) sink = sink + j;
    acc.stop();
  }
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_GT(acc.total_s(), 0.0);
  EXPECT_NEAR(acc.mean_s(), acc.total_s() / 3.0, 1e-12);
  acc.clear();
  EXPECT_EQ(acc.count(), 0u);
}

}  // namespace
