// The one claim loop of the experiment layer: independent work items
// ("points" — the runner's scenarios, a sweep's clouds) run on the calling
// thread plus helper threads drawn from a shared ThreadBudget, each claiming
// the next unclaimed index. Every point writes only its own result slot, so
// the output is the same for any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace stopwatch::experiment {

class ScenarioContext;

/// The sim-work threads one runner invocation may use (--jobs). The thread
/// that creates the budget counts as one of them; every further thread a
/// claim loop starts takes one of the rest and returns it when it exits.
/// Nested loops share the budget, so together they never run more threads
/// than it holds.
class ThreadBudget {
 public:
  /// `threads` >= 1: 1 runs everything on the calling thread.
  explicit ThreadBudget(std::size_t threads);

  /// Takes one spare thread; false when none is left.
  [[nodiscard]] bool try_take();
  void give_back();

 private:
  std::atomic<std::size_t> spare_;
};

/// The points of one sweep in flight at once, at most. Each point holds a
/// whole cloud, so peak memory grows with the cap. delta_calibration
/// run_time_s=3 (13 points; Release, 4 vCPUs; medians of 10 runs) reads
/// wall 0.40 / 0.17 / 0.12 s, peak RSS 4.90 / 5.38-5.48 / 5.49 MiB and
/// heap high-water 317 / 720 / 905 KiB with 1, 3 and 4 points in flight.
/// Three takes most of the wall-time gain for about a tenth more RSS; each
/// further point adds about 185 KiB of heap. Heap high-water per point,
/// measured the same way at --jobs 1: fig6_nfs run_time_s=5 70-306 KiB
/// (the mitigated cloud at 400 ops/s the most); fig5_file_download
/// runs_per_size=2 93 KiB (HTTP baseline), 172 KiB (HTTP under StopWatch)
/// and 5.0 MiB (the UDP point, whose baseline and StopWatch clouds peak
/// at 2.0 and 5.0 MiB in turn).
inline constexpr std::size_t kMaxPointsInFlight = 3;

/// Runs fn(i) exactly once for each i in [0, n): on the calling thread, and
/// on as many helpers as `budget` can spare (none when it is null), up to
/// `max_in_flight` points at once. Indices are claimed in order. The
/// caller recruits helpers before each point it starts, so threads that
/// sibling loops return mid-sweep are put to work. While a TraceRecorder
/// is installed every point runs on the calling thread: a trace track has
/// one writer, and the clouds of one scenario ask for the same tracks.
/// If fn throws, no further index is claimed; once every helper has
/// joined, the exception of the lowest failing index is rethrown — the one
/// a sequential run would have thrown.
void for_each_point(ThreadBudget* budget, std::size_t n,
                    std::size_t max_in_flight,
                    const std::function<void(std::size_t)>& fn);

/// A scenario's sweep: for_each_point under the context's budget, at most
/// kMaxPointsInFlight at once.
void for_each_point(const ScenarioContext& ctx, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

}  // namespace stopwatch::experiment
