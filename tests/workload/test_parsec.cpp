#include "workload/parsec.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/cloud.hpp"

namespace stopwatch::workload {
namespace {

core::CloudConfig parsec_config(core::PolicyKind policy,
                                std::uint64_t seed = 9) {
  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = policy;
  cfg.machine_count = 3;
  cfg.machine_template.disk_seek_min = Duration::micros(500);
  cfg.machine_template.disk_seek_max = Duration::millis(3);
  if (hypervisor::policy_replicated(policy)) {
    cfg.policy.stopwatch.delta_d = Duration::millis(9);
  }
  return cfg;
}

struct ParsecRun {
  double runtime_ms{0};
  std::uint64_t disk_interrupts{0};
  bool deterministic{false};
};

ParsecRun run_app(const ParsecAppSpec& spec, core::PolicyKind policy) {
  core::Cloud cloud(parsec_config(policy));
  bool done = false;
  RealTime finish{};
  const NodeId collector = cloud.add_external_node([&](const net::Packet&) {
    done = true;
    finish = cloud.simulator().now();
  });
  const core::VmHandle vm = cloud.add_vm(
      spec.name,
      [&spec, collector] {
        return std::make_unique<ParsecProgram>(spec, collector, 1);
      },
      {0, 1, 2});
  cloud.start();
  int guard = 0;
  while (!done && ++guard < 1000) cloud.run_for(Duration::millis(100));
  EXPECT_TRUE(done) << spec.name << " did not finish";
  ParsecRun out;
  out.runtime_ms = finish.to_seconds() * 1e3;
  out.disk_interrupts = cloud.replica(vm, 0).guest_counters().disk_interrupts;
  out.deterministic = cloud.replicas_deterministic(vm);
  return out;
}

TEST(Parsec, SuiteHasTheFivePaperApps) {
  const auto& suite = parsec_suite();
  ASSERT_EQ(suite.size(), 5u);
  EXPECT_EQ(suite[0].name, "ferret");
  EXPECT_EQ(suite[1].name, "blackscholes");
  EXPECT_EQ(suite[2].name, "canneal");
  EXPECT_EQ(suite[3].name, "dedup");
  EXPECT_EQ(suite[4].name, "streamcluster");
  for (const auto& s : suite) {
    EXPECT_EQ(s.disk_ops, s.paper_disk_interrupts) << s.name;
  }
}

TEST(Parsec, DiskInterruptCountMatchesSpec) {
  const auto& spec = parsec_suite()[0];  // ferret
  const ParsecRun r = run_app(spec, core::PolicyKind::kStopWatch);
  EXPECT_EQ(r.disk_interrupts, static_cast<std::uint64_t>(spec.disk_ops));
  EXPECT_TRUE(r.deterministic);
}

TEST(Parsec, BaselineRuntimeNearPaperValue) {
  const auto& spec = parsec_suite()[4];  // streamcluster
  const ParsecRun r = run_app(spec, core::PolicyKind::kBaselineXen);
  EXPECT_GT(r.runtime_ms, spec.paper_baseline_ms * 0.7);
  EXPECT_LT(r.runtime_ms, spec.paper_baseline_ms * 1.4);
}

TEST(Parsec, StopWatchOverheadTracksDiskInterrupts) {
  // The paper's Fig. 7 correlation: absolute overhead grows with disk ops.
  const auto& small = parsec_suite()[0];  // ferret, 31 ops
  const auto& large = parsec_suite()[3];  // dedup, 293 ops
  const double small_overhead =
      run_app(small, core::PolicyKind::kStopWatch).runtime_ms -
      run_app(small, core::PolicyKind::kBaselineXen).runtime_ms;
  const double large_overhead =
      run_app(large, core::PolicyKind::kStopWatch).runtime_ms -
      run_app(large, core::PolicyKind::kBaselineXen).runtime_ms;
  EXPECT_GT(large_overhead, small_overhead * 4.0);
}

TEST(Parsec, OverheadStaysWithinPaperBand) {
  const auto& spec = parsec_suite()[1];  // blackscholes (worst case 2.27x)
  const double base = run_app(spec, core::PolicyKind::kBaselineXen).runtime_ms;
  const double sw = run_app(spec, core::PolicyKind::kStopWatch).runtime_ms;
  EXPECT_GT(sw / base, 1.2);
  EXPECT_LT(sw / base, 3.5);
}

TEST(Parsec, RejectsDegenerateSpecs) {
  ParsecAppSpec bad;
  bad.name = "bad";
  bad.compute_instr = 0;
  bad.disk_ops = 1;
  EXPECT_THROW(ParsecProgram(bad, NodeId{0}, 1), ContractViolation);
  bad.compute_instr = 100;
  bad.disk_ops = 0;
  EXPECT_THROW(ParsecProgram(bad, NodeId{0}, 1), ContractViolation);
}

}  // namespace
}  // namespace stopwatch::workload
