// The benchmark's own statistics against inputs with known answers.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace gatesbench {
namespace {

TEST(BenchStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values are what Python's statistics.quantiles(v, n=4) prints.
TEST(BenchStats, QuartilesMatchPythonExclusiveMethod) {
  const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  const Quartiles small = quartiles({10, 20});
  EXPECT_DOUBLE_EQ(small.q1, 7.5);
  EXPECT_DOUBLE_EQ(small.q2, 15);
  EXPECT_DOUBLE_EQ(small.q3, 22.5);

  const Quartiles five = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
}

TEST(BenchStats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.50).value, 50);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99).value, 99);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0).value, 100);
  EXPECT_DOUBLE_EQ(percentile({7}, 0.99).value, 7);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(BenchStats, TailNeedsTenSamplesBeyond) {
  std::vector<double> v(999, 1.0);
  EXPECT_FALSE(percentile(v, 0.99).supported);
  EXPECT_EQ(percentile(v, 0.99).beyond, 9u);
  v.push_back(1.0);
  EXPECT_TRUE(percentile(v, 0.99).supported);
  EXPECT_EQ(percentile(v, 0.99).beyond, 10u);
  // p50 of 20 samples has exactly ten beyond it.
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.50).supported);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.50).supported);
}

TEST(BenchStats, DueTimeLatencyCountsTheScheduleNotTheSend) {
  // 1000 records/s from t0 = 5 s: record 250 was due at 5.25 s. Consumed at
  // 5.30 s it has waited 50 ms, however late the generator produced it.
  EXPECT_DOUBLE_EQ(due_time(5.0, 250, 1000.0), 5.25);
  EXPECT_NEAR(due_latency(5.30, 5.0, 250, 1000.0), 0.05, 1e-12);
  EXPECT_NEAR(due_latency(5.25, 5.0, 250, 1000.0), 0.0, 1e-12);
}

TEST(BenchStats, GeneratorLagIsCallTimeMinusDueTime) {
  EXPECT_NEAR(generator_lag(5.252, 5.0, 250, 1000.0), 0.002, 1e-12);
  EXPECT_NEAR(generator_lag(5.249, 5.0, 250, 1000.0), -0.001, 1e-12);
  EXPECT_DOUBLE_EQ(generator_lag(5.0, 5.0, 0, 1000.0), 0);
}

}  // namespace
}  // namespace gatesbench
