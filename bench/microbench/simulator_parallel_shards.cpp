// Scenario — aggregate throughput of the shard-parallel event kernel.
//
// Runs one synthetic workload twice: on a single sim::Simulator core
// (sim_shards = 1 delegates straight to the sequential kernel) and on K
// cores under sim::ShardedSimulator's barrier protocol, and reports
// wall-clock ns/event for both plus their ratio. The workload is the
// cloud's shape in miniature: per-shard self-rescheduling timer chains
// (the vCPU-slice / beacon pattern that dominates event counts) with a
// fixed fraction of cross-shard handoffs riding the deterministic lane
// merge. Its metrics are wall-clock measurements, so it is built into
// stopwatch_microbench, not the science runner; the nightly trend gate
// tracks its ns/event trajectory.
//
// NOTE: speedup_x reflects the cores the host actually has. On a 1-CPU
// container the parallel run measures barrier + lane overhead (ratio
// near or below 1); the >= 2x acceptance check lives in CI, on 4-core
// runners.
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>

#include "experiment/registry.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

struct WorkloadStats {
  double wall_ns{0.0};
  std::uint64_t events{0};
  std::uint64_t crossed{0};
  std::uint64_t barriers{0};
  std::uint64_t adaptive_extensions{0};
};

/// Runs `chains` self-rescheduling chains per shard until `horizon`, every
/// 16th tick handing a no-op off to the next shard through the lane
/// protocol (with one shard that handoff degenerates to a self-schedule,
/// keeping the event count identical across shard counts).
WorkloadStats run_workload(int shards, int chains, Duration horizon,
                           Duration hop) {
  // The chains live here, outside their own callbacks: a chain whose
  // capture owned it would keep itself alive forever.
  std::deque<sim::Task> chain_store;
  sim::ShardedConfig cfg;
  cfg.shards = shards;
  sim::ShardedSimulator sharded(cfg);

  const std::int64_t horizon_ns = horizon.ns;
  // The only cross-shard traffic is the ring handoff to shard s+1, and
  // every handoff lands exactly `hop` past the sender's clock — declare
  // that floor; all other pairs never exchange events.
  for (int s = 0; shards > 1 && s < shards; ++s) {
    for (int d = 0; d < shards; ++d) {
      if (d == s) continue;
      if (d == (s + 1) % shards) {
        sharded.set_lookahead(s, d, hop);
      } else {
        sharded.set_lookahead_unreachable(s, d);
      }
    }
  }
  for (int s = 0; s < shards; ++s) {
    sim::Simulator& core = sharded.shard(s);
    for (int c = 0; c < chains; ++c) {
      // Chain state lives in the callback's capture; the tick delay walks
      // a fixed xorshift stream so every run does identical work.
      sim::Task* chain = &chain_store.emplace_back();
      auto x = static_cast<std::uint64_t>(s * 1000 + c) *
                   0x9E3779B97F4A7C15ULL |
               1ULL;
      *chain = [&sharded, own = &core, chain, x, s, shards, horizon_ns,
                hop]() mutable {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x % 16 == 0) {
          sharded.cross_schedule(s, (s + 1) % shards, own->now() + hop, [] {});
        }
        const auto delay = Duration::nanos(200 + static_cast<std::int64_t>(
                                                     x % 400));
        if (own->now().ns + delay.ns < horizon_ns) {
          own->schedule_after(delay, [chain] { (*chain)(); });
        }
      };
      core.schedule_at(RealTime::nanos(100 + c), [chain] { (*chain)(); });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sharded.run_until(RealTime::nanos(horizon_ns));
  const auto t1 = std::chrono::steady_clock::now();

  WorkloadStats stats;
  stats.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  stats.events = sharded.events_executed();
  stats.crossed = sharded.cross_scheduled();
  stats.barriers = sharded.barriers();
  stats.adaptive_extensions = sharded.adaptive_extensions();
  return stats;
}

Result run(const ScenarioContext& ctx) {
  const int shards = ctx.param_int("shards");
  const int chains = ctx.param_int("chains_per_shard");
  const auto horizon =
      Duration::from_seconds_f(ctx.param("horizon_ms") / 1000.0);
  const Duration hop = Duration::micros(40);

  // Same aggregate chain count on both kernels: the sequential run hosts
  // all shards * chains chains on its one core.
  const WorkloadStats seq = run_workload(1, shards * chains, horizon, hop);
  const WorkloadStats par = run_workload(shards, chains, horizon, hop);

  Result result("simulator_parallel_shards");
  result.add_metric("shards", shards, "cores");
  result.add_metric("events_total", static_cast<double>(par.events), "events");
  result.add_metric("cross_shard_events", static_cast<double>(par.crossed),
                    "events");
  result.add_metric("barriers", static_cast<double>(par.barriers), "windows");
  result.add_metric("adaptive_extensions",
                    static_cast<double>(par.adaptive_extensions), "windows");
  result.add_metric("ns_per_event_sequential",
                    seq.wall_ns / static_cast<double>(seq.events), "ns/event");
  result.add_metric("ns_per_event_parallel",
                    par.wall_ns / static_cast<double>(par.events), "ns/event");
  result.add_metric("speedup_x",
                    (seq.wall_ns / static_cast<double>(seq.events)) /
                        (par.wall_ns / static_cast<double>(par.events)),
                    "x");

  result.set_note(
      "Aggregate shard-parallel kernel throughput vs the sequential kernel "
      "on the same workload; speedup_x is bounded by the host's core count "
      "-- compare trends per runner class, not bytes.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "simulator_parallel_shards",
    .description =
        "Shard-parallel event kernel throughput: K timer-wheel cores under "
        "barrier windows + deterministic lane merge vs one sequential core "
        "on the same chain workload",
    .params = {ParamSpec{"shards", "simulator cores for the parallel run",
                         4.0, 4.0}
                   .with_int_range(2, 64),
               ParamSpec{"chains_per_shard",
                         "self-rescheduling timer chains per core", 64.0, 16.0}
                   .with_int_range(1, 4096),
               ParamSpec{"horizon_ms", "simulated milliseconds", 40.0, 4.0}
                   .with_range(0.1, 10000)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
