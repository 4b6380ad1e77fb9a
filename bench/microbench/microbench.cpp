// Scenario — microbenchmarks of the core primitives: the simulator event
// loop, median agreement math, placement construction, and the statistical
// machinery. These bound simulation throughput, so their ns/op trajectory
// is what future perf PRs move. Its metrics are wall-clock measurements,
// so it is built into stopwatch_microbench, not the science runner.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "experiment/registry.hpp"
#include "hypervisor/guest_context.hpp"
#include "hypervisor/machine.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "placement/placement.hpp"
#include "sim/simulator.hpp"
#include "stats/detection.hpp"
#include "stats/distribution.hpp"
#include "stats/order_statistics.hpp"
#include "stats/special_functions.hpp"

namespace stopwatch::bench {
namespace {

using experiment::ParamSpec;
using experiment::Result;
using experiment::ScenarioContext;

/// Timed repeats per metric: the median of five shrugs off a repeat that
/// a neighbor on a shared host slowed down.
constexpr int kRepeats = 5;

/// The median of `samples` (sorted in place).
double median_of(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Runs `body(i)` `iters` times in kRepeats timed repeats and returns the
/// median over repeats of the mean wall nanoseconds per call.
template <typename Body>
double time_ns_per_op(std::uint64_t iters, Body&& body) {
  const std::uint64_t per_repeat =
      std::max<std::uint64_t>(1, (iters + kRepeats - 1) / kRepeats);
  std::vector<double> ns;
  std::uint64_t i = 0;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < per_repeat; ++k) body(i++);
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(per_repeat));
  }
  return median_of(ns);
}

/// Defeats dead-code elimination of a computed value.
volatile double g_sink;

/// Wall nanoseconds per event of six periodic streams, each re-arming
/// about 20 us ahead with a fixed jitter stream — the shape of interleaved
/// vCPU slices: every re-arm lands in a level-0 wheel bucket. `events` in
/// all per round.
double interleaved_rearm_ns(std::uint64_t rounds, std::uint64_t events) {
  constexpr int kStreams = 6;
  struct Streams {
    sim::Simulator sim;
    std::array<sim::EventId, kStreams> ids{};
    std::uint64_t x{0x2545f4914f6cdd1dULL};
    std::uint64_t fired{0};
    std::uint64_t events{0};
  };
  const double ns = time_ns_per_op(rounds, [events](auto) {
    Streams st;
    st.events = events;
    for (int k = 0; k < kStreams; ++k) {
      st.ids[k] = st.sim.schedule_after(Duration::nanos(1'000 * k), [&st, k] {
        // The first (events - kStreams) fires re-arm.
        if (++st.fired + kStreams > st.events) return;
        st.x ^= st.x << 13;
        st.x ^= st.x >> 7;
        st.x ^= st.x << 17;
        const auto jitter = static_cast<std::int64_t>(st.x % 2'000);
        st.sim.reschedule_after(st.ids[k], Duration::nanos(19'000 + jitter));
      });
    }
    st.sim.run();
    g_sink = static_cast<double>(st.sim.events_executed());
  });
  return ns / static_cast<double>(events);
}

/// A guest that never queues work: it runs only its idle loop.
class IdleProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi&) override {}
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi&, const net::Packet&) override {}
};

/// A guest that computes in bursts: 30 tasks of 2,000,000 instructions
/// (20 exits each), then 25 ms of idle guest time.
class BurstProgram final : public vm::GuestProgram {
 public:
  void on_boot(vm::GuestApi& api) override { burst(api, 30); }
  void on_timer_tick(vm::GuestApi&, std::uint64_t) override {}
  void on_packet(vm::GuestApi&, const net::Packet&) override {}

 private:
  void burst(vm::GuestApi& api, int tasks) {
    api.compute(2'000'000, [this, &api, tasks] {
      if (tasks > 1) {
        burst(api, tasks - 1);
      } else {
        api.set_timer(Duration::millis(25), [this, &api] { burst(api, 30); });
      }
    });
  }
};

/// Wall cost of StopWatch guests with one replica on one machine, run for
/// `events` simulator events: an idle guest, alone or beside a bursting
/// co-resident. With one replica there are no beacons, so every event
/// ends a plan of exits. The median of kRepeats runs of events/kRepeats.
struct GuestCost {
  double ns_per_event;  // per simulator event, i.e. per plan
  double ns_per_exit;   // per exit of either guest
};

GuestCost guest_cost(std::uint64_t events, std::uint64_t seed,
                     bool bursting_neighbor) {
  std::vector<double> per_event;
  std::vector<double> per_exit;
  for (int r = 0; r < kRepeats; ++r) {
    sim::Simulator sim;
    hypervisor::Machine machine(MachineId{0}, sim, hypervisor::MachineConfig{},
                                Duration{}, Rng(seed));
    hypervisor::GuestContextConfig cfg;
    cfg.policy = hypervisor::PolicyKind::kStopWatch;
    cfg.replica_count = 1;
    std::vector<std::unique_ptr<hypervisor::GuestContext>> guests;
    for (std::uint32_t vm = 0; vm < (bursting_neighbor ? 2u : 1u); ++vm) {
      hypervisor::ReplicaServices services;
      services.send_frame = [](net::Frame) {};
      std::unique_ptr<vm::GuestProgram> program;
      if (vm == 0) {
        program = std::make_unique<IdleProgram>();
      } else {
        program = std::make_unique<BurstProgram>();
      }
      guests.push_back(std::make_unique<hypervisor::GuestContext>(
          VmId{vm}, ReplicaIndex{0}, NodeId{vm}, machine, sim, cfg,
          std::move(program), seed,
          hypervisor::SliceStreams::derive(seed, vm, 0), std::move(services)));
    }
    for (auto& g : guests) g->start(VirtTime{});
    const auto t0 = std::chrono::steady_clock::now();
    sim.run(std::max<std::uint64_t>(1, events / kRepeats));
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    std::uint64_t exits = 0;
    for (auto& g : guests) {
      exits += g->stats().exits;
      g->halt();
    }
    per_event.push_back(ns / static_cast<double>(sim.events_executed()));
    per_exit.push_back(ns / static_cast<double>(exits));
  }
  return {median_of(per_event), median_of(per_exit)};
}

Result run(const ScenarioContext& ctx) {
  const auto iters = static_cast<std::uint64_t>(ctx.param("iterations"));

  Result result("microbench");

  // Simulator: schedule + run a batch of timers per iteration.
  const std::uint64_t sim_events = 1000;
  result.add_metric(
      "simulator_schedule_run",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 1000), [&](auto) {
        sim::Simulator sim;
        for (std::uint64_t i = 0; i < sim_events; ++i) {
          sim.schedule_at(RealTime::nanos(i * 100), [] {});
        }
        sim.run();
        g_sink = static_cast<double>(sim.events_executed());
      }) / static_cast<double>(sim_events),
      "ns/event");

  // Simulator: schedule + cancel (wheel unlink / due-array erase) per
  // event, across the same spread of delays as the run benchmark.
  result.add_metric(
      "simulator_cancel",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 1000), [&](auto) {
        sim::Simulator sim;
        for (std::uint64_t i = 0; i < sim_events; ++i) {
          const auto id = sim.schedule_at(RealTime::nanos(i * 100), [] {});
          sim.cancel(id);
        }
        g_sink = static_cast<double>(sim.pending());
      }) / static_cast<double>(sim_events),
      "ns/event");

  // Simulator: a periodic timer re-arming its own arena slot — the vCPU
  // slice / sync beacon / stall recheck pattern.
  result.add_metric(
      "simulator_reschedule",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 1000), [&](auto) {
        sim::Simulator sim;
        std::uint64_t ticks = 0;
        sim::EventId id{};
        id = sim.schedule_after(Duration::nanos(200), [&] {
          if (++ticks < sim_events) {
            sim.reschedule_after(id, Duration::nanos(200));
          }
        });
        sim.run();
        g_sink = static_cast<double>(ticks);
      }) / static_cast<double>(sim_events),
      "ns/event");

  // Simulator: interleaved periodic streams. Unlike simulator_reschedule's
  // 200 ns re-arm, which lands straight in the due array, these re-arms
  // take the wheel path that vCPU slices take.
  result.add_metric(
      "simulator_interleaved_rearm",
      interleaved_rearm_ns(std::max<std::uint64_t>(1, iters / 1000),
                           sim_events),
      "ns/event");

  // Idle guest vCPU slices: ns per simulator event (one plan of exits)
  // and ns per exit, alone and beside a bursting co-resident.
  const std::uint64_t guest_events = std::max<std::uint64_t>(1'000, iters / 10);
  const GuestCost idle = guest_cost(guest_events, ctx.seed(), false);
  result.add_metric("guest_idle_slice", idle.ns_per_event, "ns/slice");
  result.add_metric("guest_idle_exit", idle.ns_per_exit, "ns/exit");
  result.add_metric("guest_coresident_exit",
                    guest_cost(guest_events, ctx.seed(), true).ns_per_exit,
                    "ns/exit");

  // Simulator: mixed near/far horizons — 70% inside the wheel's level 0
  // (sub-66 us), 20% across levels 0-2 (sub-250 ms), 10% at 0.3-3.3 s on
  // level 3 — so the cost of cascading down the levels shows in the
  // trajectory. Delays come from a fixed xorshift stream: identical work
  // every run.
  result.add_metric(
      "simulator_mixed_horizon",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 1000), [&](auto) {
        sim::Simulator sim;
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint64_t i = 0; i < sim_events; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          const std::uint64_t bucket = x % 10;
          std::int64_t delay_ns;
          if (bucket < 7) {
            delay_ns = static_cast<std::int64_t>(x % 60'000);
          } else if (bucket < 9) {
            delay_ns = static_cast<std::int64_t>(x % 250'000'000);
          } else {
            delay_ns = 300'000'000 +
                       static_cast<std::int64_t>(x % 3'000'000'000ULL);
          }
          sim.schedule_after(Duration::nanos(delay_ns), [] {});
        }
        sim.run();
        g_sink = static_cast<double>(sim.events_executed());
      }) / static_cast<double>(sim_events),
      "ns/event");

  // Tracing must stay cheap on the kernel's hot path: the same
  // schedule+run body with a kernel trace track attached, against the plain
  // loop with none. An attached track costs each executed event a null
  // check and a sample-interval test; each loop's fresh kernel runs fewer
  // events than Simulator::kTraceSampleEvery, so no sample is recorded.
  // The ratio therefore upper-bounds the hook cost of a run with no
  // recorder installed (the null check alone). Each round measures both
  // arms back to back (order alternating, so the two arms see the same
  // machine state and frequency drift cancels) and yields one paired
  // ratio; the median over rounds shrugs off outlier rounds on shared
  // runners. Nightly gates the result at <= 1.02. The unit is "x", never
  // ns-class, so the ratio itself is reported but not wall-clock-gated by
  // the bench diff.
  {
    static_assert(sim_events < sim::Simulator::kTraceSampleEvery);
    obs::TraceRecorder recorder;  // never installed; owns the probe's track
    obs::TraceTrack* track =
        recorder.track(900, 0, "sim-kernel", "bench", obs::Category::kParallel);
    const std::uint64_t reps = std::max<std::uint64_t>(1, iters / 2000);
    const auto loop = [&](obs::TraceTrack* trace_track) {
      return time_ns_per_op(reps, [&](auto) {
        sim::Simulator sim;
        sim.set_trace_track(trace_track);
        for (std::uint64_t i = 0; i < sim_events; ++i) {
          sim.schedule_at(RealTime::nanos(i * 100), [] {});
        }
        sim.run();
        g_sink = static_cast<double>(sim.events_executed());
      });
    };
    // Each arm sample is itself a min of three (contention bursts only
    // ever inflate a timing, so the min is the cleanest observation).
    const auto best_of = [&](obs::TraceTrack* trace_track) {
      double best = loop(trace_track);
      for (int sub = 1; sub < 3; ++sub) {
        best = std::min(best, loop(trace_track));
      }
      return best;
    };
    std::vector<double> ratios;
    for (int round = 0; round < 5; ++round) {
      double plain;
      double traced;
      if (round % 2 == 0) {
        plain = best_of(nullptr);
        traced = best_of(track);
      } else {
        traced = best_of(track);
        plain = best_of(nullptr);
      }
      ratios.push_back(traced / plain);
    }
    result.add_metric("tracing_disabled_overhead_ratio", median_of(ratios),
                      "x");
  }

  // Profiling disabled must be free the same way: the schedule+run body
  // with a profiling scope on the per-event path, reading a null profiler
  // pointer (the whole disabled cost: one relaxed load and one branch),
  // against the same body with no scope at all. Same alternating
  // paired-ratio scheme as above; nightly gates <= 1.02. The scope reads
  // a probe-local pointer, not the process-wide one, so --profile cannot
  // turn the probe on.
  {
    const std::atomic<obs::Profiler*> probe{nullptr};
    const std::uint64_t reps = std::max<std::uint64_t>(1, iters / 2000);
    const auto loop = [&](bool scoped) {
      return time_ns_per_op(reps, [&](auto) {
        sim::Simulator sim;
        for (std::uint64_t i = 0; i < sim_events; ++i) {
          if (scoped) {
            const obs::ProfScope scope(obs::prof_phase_index("bench.probe"),
                                       probe);
            sim.schedule_at(RealTime::nanos(i * 100), [] {});
          } else {
            sim.schedule_at(RealTime::nanos(i * 100), [] {});
          }
        }
        sim.run();
        g_sink = static_cast<double>(sim.events_executed());
      });
    };
    const auto best_of = [&](bool scoped) {
      double best = loop(scoped);
      for (int sub = 1; sub < 3; ++sub) best = std::min(best, loop(scoped));
      return best;
    };
    std::vector<double> ratios;
    for (int round = 0; round < 5; ++round) {
      double plain;
      double scoped;
      if (round % 2 == 0) {
        plain = best_of(false);
        scoped = best_of(true);
      } else {
        scoped = best_of(true);
        plain = best_of(false);
      }
      ratios.push_back(scoped / plain);
    }
    result.add_metric("profiling_disabled_overhead_ratio", median_of(ratios),
                      "x");
  }

  Rng rng(ctx.seed());
  std::int64_t a = rng.uniform_int(0, 1 << 30);
  std::int64_t b = rng.uniform_int(0, 1 << 30);
  std::int64_t c = rng.uniform_int(0, 1 << 30);
  result.add_metric("median3", time_ns_per_op(iters, [&](auto) {
                      g_sink = static_cast<double>(stats::median3(a, b, c));
                      ++a;
                      b += 3;
                      c -= 2;
                    }),
                    "ns/op");

  const std::vector<double> f{0.2, 0.5, 0.7, 0.9, 0.95};
  result.add_metric("order_statistic_cdf",
                    time_ns_per_op(std::max<std::uint64_t>(1, iters / 10),
                                   [&](auto) {
                                     g_sink = stats::order_statistic_cdf(f, 3);
                                   }),
                    "ns/op");

  double p = 0.90;
  result.add_metric("chi_squared_inverse_cdf",
                    time_ns_per_op(std::max<std::uint64_t>(1, iters / 100),
                                   [&](auto) {
                                     g_sink =
                                         stats::chi_squared_inverse_cdf(p, 39.0);
                                     p = p >= 0.99 ? 0.70 : p + 0.001;
                                   }),
                    "ns/op");

  // The memoized hit path — the case detection sweeps actually exercise
  // after their first confidence-grid pass (fixed (p, k) keys).
  result.add_metric("chi_squared_inverse_cdf_memo_hit",
                    time_ns_per_op(iters, [&](auto) {
                      g_sink = stats::chi_squared_inverse_cdf(0.99, 39.0);
                    }),
                    "ns/op");

  const auto base = std::make_shared<stats::Exponential>(1.0);
  const auto victim = std::make_shared<stats::Exponential>(0.5);
  result.add_metric(
      "chi_squared_detector_build",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 10000), [&](auto) {
        const stats::ChiSquaredDetector det(
            [&](double x) { return base->cdf(x); },
            [&](double x) { return victim->cdf(x); }, 0.0, 30.0);
        g_sink = det.noncentrality();
      }),
      "ns/op");

  for (const int n : {21, 99, 201}) {
    // Cold path: a private Bose system each iteration, so the metric
    // keeps timing the full Steiner-system construction without touching
    // the process-wide cache other scenarios' threads read.
    result.add_metric(
        "theorem2_placement_n" + std::to_string(n),
        time_ns_per_op(std::max<std::uint64_t>(1, iters / 10000), [&](auto) {
          g_sink = static_cast<double>(
              placement::theorem2_placement(placement::bose_construction(n),
                                            n, (n - 1) / 2)
                  .size());
        }),
        "ns/op");
  }

  // The memoized hit path — what every theorem2_placement call after the
  // first pays for a given n (group copies + capacity split, no
  // quasigroup rebuild).
  static_cast<void>(placement::bose_construction_cached(201));  // warm it
  result.add_metric(
      "theorem2_placement_n201_memo_hit",
      time_ns_per_op(std::max<std::uint64_t>(1, iters / 10000), [&](auto) {
        g_sink = static_cast<double>(
            placement::theorem2_placement(201, 100).size());
      }),
      "ns/op");

  Rng exp_rng(ctx.seed() ^ 7);
  result.add_metric("rng_exponential", time_ns_per_op(iters, [&](auto) {
                      g_sink = exp_rng.exponential(1.0);
                    }),
                    "ns/op");

  // The per-exit IPS-jitter draw is a lognormal at the default sigma.
  Rng normal_rng(ctx.seed() ^ 11);
  result.add_metric("rng_normal", time_ns_per_op(iters, [&](auto) {
                      g_sink = normal_rng.normal();
                    }),
                    "ns/op");
  result.add_metric("rng_lognormal", time_ns_per_op(iters, [&](auto) {
                      g_sink = normal_rng.lognormal(0.0, 0.04);
                    }),
                    "ns/op");

  result.set_note(
      "Wall-clock ns/op of the primitives bounding simulation throughput; "
      "values vary run to run — compare trends, not bytes.");
  return result;
}

[[maybe_unused]] const experiment::ScenarioRegistrar kRegistrar{{
    .name = "microbench",
    .description =
        "Microbenchmarks (ns/op) of the simulator loop, median math, "
        "placement construction, and chi-squared machinery",
    .params = {ParamSpec{"iterations", "base iteration count", 2'000'000.0,
                         100'000.0}.with_int_range(1, 1e9)},
    .run = run,
}};

}  // namespace
}  // namespace stopwatch::bench
