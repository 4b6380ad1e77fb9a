// Scenario E4 — Paper Fig. 5: HTTP and UDP file-retrieval latency from a
// cloud-resident web server, baseline (unmodified Xen) vs StopWatch, across
// file sizes (cold start, averages over repeated runs).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.hpp"
#include "experiment/points.hpp"
#include "experiment/registry.hpp"
#include "stats/summary.hpp"
#include "workload/file_service.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;
using workload::FileDownloadClient;

const std::vector<std::uint32_t> kSizes = {1 << 10, 10 << 10, 100 << 10,
                                           1 << 20, 10 << 20};

std::vector<double> run_series(core::PolicyKind policy,
                               FileDownloadClient::Protocol proto,
                               std::uint64_t seed, std::size_t size_count,
                               int runs_per_size) {
  core::CloudConfig cfg;
  cfg.seed = seed;
  cfg.policy = policy;
  cfg.machine_count = 3;
  core::Cloud cloud(cfg);
  const core::VmHandle vm = cloud.add_vm(
      "webserver",
      [] { return std::make_unique<workload::FileServerProgram>(); },
      {0, 1, 2});
  FileDownloadClient client(cloud, cloud.vm_addr(vm), proto);
  cloud.start();

  std::vector<double> avg_ms;
  for (std::size_t i = 0; i < size_count; ++i) {
    std::vector<double> latencies;
    for (int run = 0; run < runs_per_size; ++run) {
      bool done = false;
      Duration latency{};
      client.download(kSizes[i], [&](Duration d) {
        done = true;
        latency = d;
      });
      while (!done) cloud.run_for(Duration::millis(100));
      latencies.push_back(latency.to_seconds() * 1e3);
    }
    avg_ms.push_back(stats::summarize(latencies).mean);
  }
  return avg_ms;
}

Result run(const ScenarioContext& ctx) {
  const auto size_count = static_cast<std::size_t>(ctx.param_int("size_count"));
  const int runs = ctx.param_int("runs_per_size");

  // Three independent points, heaviest first: HTTP under StopWatch, HTTP
  // baseline, then both UDP clouds in one point, so that their heaps (2.0
  // and 5.0 MiB at the largest size) are never held at once.
  std::vector<double> http_base;
  std::vector<double> http_sw;
  std::vector<double> udp_base;
  std::vector<double> udp_sw;
  experiment::for_each_point(ctx, 3, [&](std::size_t p) {
    switch (p) {
      case 0:
        http_sw = run_series(core::PolicyKind::kStopWatch,
                             FileDownloadClient::Protocol::kHttpTcp,
                             ctx.seed() ^ 21, size_count, runs);
        return;
      case 1:
        http_base = run_series(core::PolicyKind::kBaselineXen,
                               FileDownloadClient::Protocol::kHttpTcp,
                               ctx.seed() ^ 21, size_count, runs);
        return;
      default:
        udp_base = run_series(core::PolicyKind::kBaselineXen,
                              FileDownloadClient::Protocol::kUdp,
                              ctx.seed() ^ 22, size_count, runs);
        udp_sw = run_series(core::PolicyKind::kStopWatch,
                            FileDownloadClient::Protocol::kUdp,
                            ctx.seed() ^ 22, size_count, runs);
        return;
    }
  });

  Result result("fig5_file_download");
  std::vector<double> sizes_kb;
  std::vector<double> http_ratio;
  std::vector<double> udp_ratio;
  for (std::size_t i = 0; i < size_count; ++i) {
    sizes_kb.push_back(static_cast<double>(kSizes[i]) / 1024.0);
    http_ratio.push_back(http_sw[i] / http_base[i]);
    udp_ratio.push_back(udp_sw[i] / udp_base[i]);
  }
  result.add_series("file_size", "KiB", sizes_kb);
  result.add_series("http_baseline_latency", "ms", http_base);
  result.add_series("http_stopwatch_latency", "ms", http_sw);
  result.add_series("http_overhead_ratio", "x", http_ratio);
  result.add_series("udp_baseline_latency", "ms", udp_base);
  result.add_series("udp_stopwatch_latency", "ms", udp_sw);
  result.add_series("udp_overhead_ratio", "x", udp_ratio);
  result.add_metric("http_ratio_at_largest_size", http_ratio.back(), "x");
  result.add_metric("udp_ratio_at_largest_size", udp_ratio.back(), "x");
  result.set_note(
      "Paper shape check: HTTP-over-StopWatch settles below ~2.8x for sizes "
      ">= 100 KB (inbound ACKs each pay delta_n); UDP approaches the "
      "baseline as size grows (one inbound packet per retrieval).");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "fig5_file_download",
    .description =
        "Fig. 5: HTTP and UDP file-retrieval latency vs file size, baseline "
        "Xen vs StopWatch",
    .params = {ParamSpec{"size_count",
                         "number of file sizes from {1K,10K,100K,1M,10M}",
                         5.0, 3.0}.with_int_range(1, 5),
               ParamSpec{"runs_per_size", "downloads averaged per size", 5.0,
                         2.0}.with_int_range(1, 100)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
