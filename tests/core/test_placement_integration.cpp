// Capstone integration: deploy a whole cloud from a Theorem 2 placement —
// n machines, k guest VMs, replicas placed as edge-disjoint triangles —
// and verify that every VM runs, stays deterministic, and that the
// placement constraint (no two VMs share more than one machine) holds as
// the paper requires.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/cloud.hpp"
#include "placement/placement.hpp"
#include "workload/timing.hpp"

namespace stopwatch::core {
namespace {

TEST(PlacementIntegration, Theorem2CloudRunsAllVms) {
  const int n = 9;
  const int c = 4;
  const auto triangles = placement::theorem2_placement(n, c);
  ASSERT_EQ(triangles.size(), 12u);  // (1/3)*4*9
  ASSERT_TRUE(placement::valid_placement(triangles, n, c));

  CloudConfig cfg;
  cfg.seed = 14;
  cfg.machine_count = n;
  Cloud cloud(cfg);

  std::vector<VmHandle> vms;
  for (const auto& t : triangles) {
    vms.push_back(cloud.add_vm(
        "vm" + std::to_string(vms.size()),
        [] { return std::make_unique<workload::AttackerProbeProgram>(); },
        {t.a, t.b, t.c}));
  }
  // Broadcast a packet stream at the first few VMs.
  std::vector<std::unique_ptr<workload::BackgroundBroadcaster>> casts;
  for (int i = 0; i < 4; ++i) {
    casts.push_back(std::make_unique<workload::BackgroundBroadcaster>(
        cloud, cloud.vm_addr(vms[static_cast<std::size_t>(i)]), 40.0,
        static_cast<std::uint64_t>(100 + i)));
  }
  cloud.start();
  for (auto& b : casts) b->start();
  cloud.run_for(Duration::seconds(3));
  cloud.halt_all();

  // Every VM executed and stayed deterministic.
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_TRUE(cloud.replicas_deterministic(vms[i])) << "vm " << i;
    EXPECT_GT(cloud.replica(vms[i], 0).instr(), 1'000'000u) << "vm " << i;
  }
  // The probed VMs observed traffic.
  for (int i = 0; i < 4; ++i) {
    auto& probe = static_cast<workload::AttackerProbeProgram&>(
        cloud.replica(vms[static_cast<std::size_t>(i)], 0).program());
    EXPECT_GT(probe.observations_ns().size(), 20u) << "vm " << i;
  }
  EXPECT_EQ(cloud.total_divergences(), 0u);
}

TEST(PlacementIntegration, NonoverlappingCoresidencyHolds) {
  // The StopWatch constraint, stated directly: any two VMs' replica sets
  // share at most one machine (edge-disjoint triangles).
  const auto triangles = placement::theorem2_placement(15, 7);
  for (std::size_t i = 0; i < triangles.size(); ++i) {
    for (std::size_t j = i + 1; j < triangles.size(); ++j) {
      const std::set<int> a{triangles[i].a, triangles[i].b, triangles[i].c};
      const std::set<int> b{triangles[j].a, triangles[j].b, triangles[j].c};
      int shared = 0;
      for (int m : a) shared += b.count(m) > 0 ? 1 : 0;
      ASSERT_LE(shared, 1) << "VMs " << i << " and " << j;
    }
  }
}

}  // namespace
}  // namespace stopwatch::core
