#include "workload/file_service.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace stopwatch::workload {
namespace {

struct ServiceFixture {
  core::Cloud cloud;
  core::VmHandle server;

  explicit ServiceFixture(core::PolicyKind policy, std::uint64_t seed = 3)
      : cloud(make_config(policy, seed)),
        server(cloud.add_vm(
            "files", [] { return std::make_unique<FileServerProgram>(); },
            {0, 1, 2})) {}

  static core::CloudConfig make_config(core::PolicyKind policy,
                                       std::uint64_t seed) {
    core::CloudConfig cfg;
    cfg.seed = seed;
    cfg.policy = policy;
    cfg.machine_count = 3;
    return cfg;
  }

  double download_ms(FileDownloadClient& client, std::uint32_t size) {
    bool done = false;
    Duration latency{};
    client.download(size, [&](Duration d) {
      done = true;
      latency = d;
    });
    int guard = 0;
    while (!done && ++guard < 2000) cloud.run_for(Duration::millis(50));
    EXPECT_TRUE(done) << "download of " << size << " bytes stalled";
    return latency.to_seconds() * 1e3;
  }
};

class DownloadSizeTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(DownloadSizeTest, CompletesUnderBothProtocolsAndPolicies) {
  const auto [policy_int, size] = GetParam();
  const auto policy = static_cast<core::PolicyKind>(policy_int);
  ServiceFixture fx(policy);
  FileDownloadClient tcp(fx.cloud, fx.cloud.vm_addr(fx.server),
                         FileDownloadClient::Protocol::kHttpTcp);
  FileDownloadClient udp(fx.cloud, fx.cloud.vm_addr(fx.server),
                         FileDownloadClient::Protocol::kUdp);
  fx.cloud.start();
  const double tcp_ms = fx.download_ms(tcp, size);
  const double udp_ms = fx.download_ms(udp, size);
  EXPECT_GT(tcp_ms, 0.0);
  EXPECT_GT(udp_ms, 0.0);
  EXPECT_EQ(fx.cloud.total_divergences(), 0u);
  EXPECT_TRUE(fx.cloud.replicas_deterministic(fx.server));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPolicies, DownloadSizeTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(core::PolicyKind::kBaselineXen),
                          static_cast<int>(core::PolicyKind::kStopWatch)),
        ::testing::Values(1024u, 65536u, 1048576u)));

TEST(FileService, StopWatchHttpSlowerThanBaseline) {
  ServiceFixture base(core::PolicyKind::kBaselineXen);
  ServiceFixture sw(core::PolicyKind::kStopWatch);
  FileDownloadClient cb(base.cloud, base.cloud.vm_addr(base.server),
                        FileDownloadClient::Protocol::kHttpTcp);
  FileDownloadClient cs(sw.cloud, sw.cloud.vm_addr(sw.server),
                        FileDownloadClient::Protocol::kHttpTcp);
  base.cloud.start();
  sw.cloud.start();
  const double b = base.download_ms(cb, 100 * 1024);
  const double s = sw.download_ms(cs, 100 * 1024);
  EXPECT_GT(s, b * 1.3);
  EXPECT_LT(s, b * 6.0);  // but pipelining keeps it in the paper's range
}

TEST(FileService, UdpNarrowsTheGapOnLargeFiles) {
  ServiceFixture base(core::PolicyKind::kBaselineXen);
  ServiceFixture sw(core::PolicyKind::kStopWatch);
  FileDownloadClient cb(base.cloud, base.cloud.vm_addr(base.server),
                        FileDownloadClient::Protocol::kUdp);
  FileDownloadClient cs(sw.cloud, sw.cloud.vm_addr(sw.server),
                        FileDownloadClient::Protocol::kUdp);
  base.cloud.start();
  sw.cloud.start();
  const double b = base.download_ms(cb, 2 * 1024 * 1024);
  const double s = sw.download_ms(cs, 2 * 1024 * 1024);
  // The paper's Fig. 5 punchline: UDP StopWatch ~ competitive.
  EXPECT_LT(s, b * 1.4);
}

TEST(FileService, SequentialDownloadsUseIndependentConnections) {
  ServiceFixture fx(core::PolicyKind::kStopWatch);
  FileDownloadClient client(fx.cloud, fx.cloud.vm_addr(fx.server),
                            FileDownloadClient::Protocol::kHttpTcp);
  fx.cloud.start();
  const double first = fx.download_ms(client, 10 * 1024);
  const double second = fx.download_ms(client, 10 * 1024);
  // Fresh flow per download: no warm-connection advantage beyond noise.
  EXPECT_GT(second, first * 0.4);
  EXPECT_LT(second, first * 2.5);
  EXPECT_GE(client.tcp().stats().messages_delivered, 2u);
}

TEST(FileService, FinishedDownloadsReleaseTheirConnections) {
  ServiceFixture fx(core::PolicyKind::kStopWatch);
  FileDownloadClient client(fx.cloud, fx.cloud.vm_addr(fx.server),
                            FileDownloadClient::Protocol::kHttpTcp);
  fx.cloud.start();
  for (int i = 0; i < 20; ++i) {
    fx.download_ms(client, i % 2 == 0 ? 1024u : 30u * 1024u);
  }
  // Time for the last download's final ACKs to land.
  fx.cloud.run_for(Duration::millis(500));
  EXPECT_EQ(client.tcp().connection_count(), 0u);
  for (int r = 0; r < 3; ++r) {
    const auto& server = static_cast<const FileServerProgram&>(
        fx.cloud.replica(fx.server, r).program());
    EXPECT_EQ(server.tcp().connection_count(), 0u) << "replica " << r;
  }
}

TEST(FileService, ColdStartReadsWholeFileFromDisk) {
  ServiceFixture fx(core::PolicyKind::kStopWatch);
  FileDownloadClient client(fx.cloud, fx.cloud.vm_addr(fx.server),
                            FileDownloadClient::Protocol::kUdp);
  fx.cloud.start();
  fx.download_ms(client, 1024 * 1024);
  // 1 MB in 192 KiB chunks -> 6 disk interrupts on every replica.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(fx.cloud.replica(fx.server, r).guest_counters().disk_interrupts,
              6u);
  }
}

}  // namespace
}  // namespace stopwatch::workload
