#include "stats/ecdf.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "stats/summary.hpp"

namespace stopwatch::stats {
namespace {

TEST(Ecdf, BasicCdf) {
  const Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.cdf(10.0), 1.0);
}

TEST(Ecdf, QuantilesNearestRank) {
  const Ecdf e({10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.21), 20.0);
}

TEST(Ecdf, MomentsAndExtremes) {
  const Ecdf e({2.0, 4.0, 6.0});
  EXPECT_DOUBLE_EQ(e.mean(), 4.0);
  EXPECT_DOUBLE_EQ(e.min(), 2.0);
  EXPECT_DOUBLE_EQ(e.max(), 6.0);
  EXPECT_NEAR(e.stddev(), 2.0, 1e-12);
}

TEST(Ecdf, EmptyInputRejected) {
  EXPECT_THROW(Ecdf({}), ContractViolation);
}

TEST(Summary, PercentilesOrdered) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) xs.push_back(rng.uniform(0.0, 100.0));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 10000u);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  EXPECT_NEAR(s.mean, 50.0, 1.5);
}

}  // namespace
}  // namespace stopwatch::stats
