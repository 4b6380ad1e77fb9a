// ObservationLog: bounded memory (reservoir) and deterministic
// serialization — the byte-identity property the TimingTap tests and the
// --jobs runner rely on.
#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "leakage/observation_log.hpp"

namespace stopwatch::leakage {
namespace {

TEST(ObservationLog, ZeroCapacityIsRejected) {
  // Every log is bounded: there is no keep-everything capacity.
  EXPECT_THROW(ObservationLog(ObservationLogConfig{1, 0}), ContractViolation);
  ObservationLog log(ObservationLogConfig{1, 1});
  for (int i = 0; i < 100; ++i) log.record(0, i);
  EXPECT_EQ(log.samples(0).size(), 1u);
  EXPECT_EQ(log.total_count(), 100u);
}

TEST(ObservationLog, ReservoirKeepsRepresentativeSample) {
  // Record 0..9999; a uniform reservoir's retained mean should land near
  // the stream mean, not near either end.
  ObservationLog log(ObservationLogConfig{42, 256});
  for (int i = 0; i < 10'000; ++i) log.record(0, i);
  double retained_mean = 0.0;
  for (const double v : log.samples(0)) retained_mean += v;
  retained_mean /= static_cast<double>(log.samples(0).size());
  EXPECT_NEAR(retained_mean, 4999.5, 800.0);
}

TEST(ObservationLog, SameSeedSameRecordsSerializeByteIdentically) {
  const auto fill = [](ObservationLog& log) {
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
      log.record(i % 3, rng.exponential(1.0));
    }
  };
  ObservationLog a(ObservationLogConfig{7, 64});
  ObservationLog b(ObservationLogConfig{7, 64});
  fill(a);
  fill(b);
  EXPECT_EQ(a.serialize(), b.serialize());
  EXPECT_EQ(a.pooled_samples(), b.pooled_samples());

  // A different log seed draws different reservoir evictions.
  ObservationLog c(ObservationLogConfig{8, 64});
  fill(c);
  EXPECT_NE(a.serialize(), c.serialize());
  // ...while the counts still agree.
  EXPECT_EQ(a.total_count(), c.total_count());
  for (int cls = 0; cls < 3; ++cls) {
    EXPECT_EQ(a.samples(cls).size(), c.samples(cls).size());
  }
}

TEST(ObservationLog, RejectsNegativeClassAndUnknownLookups) {
  ObservationLog log;
  EXPECT_THROW(log.record(-1, 0.5), ContractViolation);
  log.record(0, 0.5);
  EXPECT_EQ(log.total_count(), 1u);
  EXPECT_THROW(static_cast<void>(log.samples(5)), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::leakage
