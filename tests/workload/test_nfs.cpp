#include "workload/nfs.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "stats/summary.hpp"

namespace stopwatch::workload {
namespace {

core::CloudConfig nfs_config(core::PolicyKind policy) {
  core::CloudConfig cfg;
  cfg.seed = 13;
  cfg.policy = policy;
  cfg.machine_count = 3;
  cfg.machine_template.disk_seek_min = Duration::micros(500);
  cfg.machine_template.disk_seek_max = Duration::millis(3);
  return cfg;
}

TEST(NfsMix, PaperMixSumsToOne) {
  double total = 0.0;
  for (const auto& e : paper_nfs_mix()) total += e.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(paper_nfs_mix().size(), 6u);
}

struct NfsRun {
  std::uint64_t issued{0};
  std::uint64_t completed{0};
  double mean_latency_ms{0};
};

NfsRun run_nfs(core::PolicyKind policy, double rate, Duration sim_time) {
  core::Cloud cloud(nfs_config(policy));
  const core::VmHandle vm = cloud.add_vm(
      "nfs", [] { return std::make_unique<NfsServerProgram>(); }, {0, 1, 2});
  NfsLoadGenerator gen(cloud, cloud.vm_addr(vm), 5, rate, paper_nfs_mix(),
                       17);
  cloud.start();
  gen.start();
  cloud.run_for(sim_time);
  cloud.halt_all();
  EXPECT_TRUE(cloud.replicas_deterministic(vm));
  NfsRun out;
  out.issued = gen.ops_issued();
  out.completed = gen.ops_completed();
  if (!gen.latencies_ms().empty()) {
    out.mean_latency_ms = stats::summarize(gen.latencies_ms()).mean;
  }
  return out;
}

TEST(Nfs, OpsCompleteUnderStopWatch) {
  const NfsRun r =
      run_nfs(core::PolicyKind::kStopWatch, 50, Duration::seconds(5));
  EXPECT_GT(r.issued, 150u);
  // Open loop: nearly everything issued long enough ago completes.
  EXPECT_GT(r.completed, r.issued * 8 / 10);
  EXPECT_GT(r.mean_latency_ms, 5.0);
  EXPECT_LT(r.mean_latency_ms, 80.0);
}

TEST(Nfs, BaselineFasterThanStopWatch) {
  const NfsRun base =
      run_nfs(core::PolicyKind::kBaselineXen, 50, Duration::seconds(5));
  const NfsRun sw =
      run_nfs(core::PolicyKind::kStopWatch, 50, Duration::seconds(5));
  EXPECT_LT(base.mean_latency_ms, sw.mean_latency_ms);
  // And within the paper's overall range (a handful of Δn-scale units).
  EXPECT_LT(sw.mean_latency_ms, base.mean_latency_ms * 8.0);
}

class NfsLoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(NfsLoadSweep, ThroughputScalesWithOfferedLoad) {
  const double rate = GetParam();
  const NfsRun r =
      run_nfs(core::PolicyKind::kStopWatch, rate, Duration::seconds(4));
  // Completed ops should track offered rate (open loop, 4 s minus warmup).
  const double expected = rate * 3.5;
  EXPECT_GT(static_cast<double>(r.completed), expected * 0.7) << rate;
  EXPECT_LT(static_cast<double>(r.completed), expected * 1.3) << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, NfsLoadSweep,
                         ::testing::Values(25.0, 50.0, 100.0, 200.0));

}  // namespace
}  // namespace stopwatch::workload
