#include "sim/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::sim {

namespace {

/// Pause iterations a waiter spins before it parks. A window's cores run
/// for tens to hundreds of microseconds; a spin shorter than a typical
/// window parks nearly every wait and pays a futex wake per window.
constexpr int kSpinIterations = 20'000;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins, then parks, until `a` holds a value other than `old`; returns
/// that value (acquire).
std::uint32_t await_change(const std::atomic<std::uint32_t>& a,
                           std::uint32_t old) {
  for (int i = 0; i < kSpinIterations; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
    cpu_relax();
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig cfg) : cfg_(cfg) {
  SW_EXPECTS(cfg_.shards >= 1);
  SW_EXPECTS(cfg_.window.ns > 0);
  cores_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    cores_.push_back(std::make_unique<Core>());
  }
  const auto k = static_cast<std::size_t>(cfg_.shards);
  lanes_.resize(k * k);
  t_min_.assign(k, 0);
  eit_.assign(k, 0);
  run_to_ns_.assign(k, 0);
  run_mask_.assign(k, 0);
  window_end_ns_.assign(k, 0);
  if (cfg_.shards > 1 && cfg_.threads != 1) {
    // hardware_concurrency() == 0 means "unknown" — assume enough cores.
    const std::size_t host =
        std::max<std::size_t>(1, std::thread::hardware_concurrency() == 0
                                     ? k
                                     : std::thread::hardware_concurrency());
    const std::size_t threads =
        std::min(k, cfg_.threads == 0 ? host : cfg_.threads);
    epochs_ = std::make_unique<Epoch[]>(threads);
    release_.assign(threads, 0);
    workers_.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedSimulator::~ShardedSimulator() {
  // Workers only ever wait on their own epoch, so one last bump per
  // worker releases each — spinning or parked — into the stop check.
  stopping_ = true;
  for (std::size_t w = 1; w <= workers_.size(); ++w) {
    epochs_[w].value.fetch_add(1, std::memory_order_release);
    epochs_[w].value.notify_one();
  }
  for (std::thread& worker : workers_) worker.join();
}

void ShardedSimulator::set_window(Duration w) {
  SW_EXPECTS(!running_);
  SW_EXPECTS(w.ns > 0);
  cfg_.window = w;
}

void ShardedSimulator::set_lookahead(int src, int dst, Duration floor) {
  SW_EXPECTS(!running_);
  SW_EXPECTS(src >= 0 && src < cfg_.shards);
  SW_EXPECTS(dst >= 0 && dst < cfg_.shards);
  SW_EXPECTS(floor.ns > 0);
  const auto k = static_cast<std::size_t>(cfg_.shards);
  if (lookahead_.empty()) lookahead_.assign(k * k, -1);
  lookahead_[static_cast<std::size_t>(src) * k +
             static_cast<std::size_t>(dst)] = floor.ns;
}

void ShardedSimulator::set_lookahead_unreachable(int src, int dst) {
  SW_EXPECTS(!running_);
  SW_EXPECTS(src >= 0 && src < cfg_.shards);
  SW_EXPECTS(dst >= 0 && dst < cfg_.shards);
  const auto k = static_cast<std::size_t>(cfg_.shards);
  if (lookahead_.empty()) lookahead_.assign(k * k, -1);
  lookahead_[static_cast<std::size_t>(src) * k +
             static_cast<std::size_t>(dst)] = kUnreachableNs;
}

std::int64_t ShardedSimulator::lookahead_ns(int src, int dst) const {
  if (lookahead_.empty()) return cfg_.window.ns;
  const auto k = static_cast<std::size_t>(cfg_.shards);
  const std::int64_t v = lookahead_[static_cast<std::size_t>(src) * k +
                                    static_cast<std::size_t>(dst)];
  return v < 0 ? cfg_.window.ns : v;
}

Simulator& ShardedSimulator::shard(int s) {
  SW_EXPECTS(s >= 0 && s < cfg_.shards);
  return cores_[static_cast<std::size_t>(s)]->sim;
}

const Simulator& ShardedSimulator::shard(int s) const {
  SW_EXPECTS(s >= 0 && s < cfg_.shards);
  return cores_[static_cast<std::size_t>(s)]->sim;
}

void ShardedSimulator::cross_schedule(int src, int dst, RealTime at, Task cb) {
  SW_EXPECTS(src >= 0 && src < cfg_.shards);
  SW_EXPECTS(dst >= 0 && dst < cfg_.shards);
  if (!running_) {
    // Single-threaded context (setup between runs): no lane needed, the
    // destination core's own (time, sequence) order is deterministic.
    cores_[static_cast<std::size_t>(dst)]->sim.schedule_at(at, std::move(cb));
    return;
  }
  // Lookahead contract: inside a window every cross-shard timestamp must
  // land at or beyond the bound its destination's window was granted,
  // else the destination shard may already have run past it.
  const std::int64_t bound = window_end_ns_[static_cast<std::size_t>(dst)];
  SW_EXPECTS_MSG(at.ns >= bound,
                 "cross-shard event at t=" + std::to_string(at.ns) +
                     "ns lands before shard " + std::to_string(dst) +
                     "'s window bound at t=" + std::to_string(bound) +
                     "ns; shrink the window / widen the declared lookahead "
                     "floor to the pair's true minimum latency (or run "
                     "sequentially with sim_shards=1)");
  auto& lane = lanes_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(cfg_.shards) +
                      static_cast<std::size_t>(dst)];
  lane.entries.push_back(
      {at.ns, ++cores_[static_cast<std::size_t>(src)]->lane_seq, src, dst,
       std::move(cb)});
}

void ShardedSimulator::set_lane_drain_order(std::vector<int> order) {
  SW_EXPECTS(!running_);
  if (!order.empty()) {
    const auto k = static_cast<std::size_t>(cfg_.shards);
    SW_EXPECTS(order.size() == k * k);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      SW_EXPECTS(sorted[i] == static_cast<int>(i));
    }
  }
  drain_order_ = std::move(order);
}

std::size_t ShardedSimulator::lane_backlog() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.entries.size();
  return n;
}

bool ShardedSimulator::merge_lanes() {
  OBS_PROF_SCOPE("sharded.merge");
  merge_scratch_.clear();
  if (drain_order_.empty()) {
    for (auto& lane : lanes_) {
      for (auto& e : lane.entries) merge_scratch_.push_back(std::move(e));
      lane.entries.clear();
    }
  } else {
    for (int idx : drain_order_) {
      auto& lane = lanes_[static_cast<std::size_t>(idx)];
      for (auto& e : lane.entries) merge_scratch_.push_back(std::move(e));
      lane.entries.clear();
    }
  }
  if (merge_scratch_.empty()) return false;
  // The deterministic merge rule: timestamp, then source shard, then the
  // source's sequence number. seq is unique per source, so this is a total
  // order — the drain order above cannot leak through the sort.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const LaneEntry& a, const LaneEntry& b) {
              if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  crossed_ += merge_scratch_.size();
  max_merge_batch_ = std::max(max_merge_batch_,
                              static_cast<std::uint64_t>(
                                  merge_scratch_.size()));
  if (merge_hist_ != nullptr) merge_hist_->record(merge_scratch_.size());
  bool any_due = false;
  for (auto& e : merge_scratch_) {
    Simulator& dst = cores_[static_cast<std::size_t>(e.dst)]->sim;
    any_due = any_due || e.at_ns <= dst.now().ns;
    dst.schedule_at(RealTime::nanos(e.at_ns), std::move(e.task));
  }
  merge_scratch_.clear();
  return any_due;
}

void ShardedSimulator::run_core(std::size_t s) {
  Core& core = *cores_[s];
  const std::uint64_t start = timing_ ? steady_ns() : 0;
  try {
    core.sim.run_until(RealTime::nanos(run_to_ns_[s]));
  } catch (...) {
    core.error = std::current_exception();
  }
  if (timing_) core.busy_ns += steady_ns() - start;
}

void ShardedSimulator::run_cores_of(std::size_t thread) {
  const std::size_t stride = thread_count();
  for (std::size_t s = thread; s < cores_.size(); s += stride) {
    if (run_mask_[s]) run_core(s);
  }
}

void ShardedSimulator::worker_loop(std::size_t thread) {
  const std::atomic<std::uint32_t>& epoch = epochs_[thread].value;
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_change(epoch, seen);
    if (stopping_) return;
    run_cores_of(thread);
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      outstanding_.notify_one();
    }
  }
}

void ShardedSimulator::run_window(std::size_t ran) {
  running_ = true;
  if (ran > 1) ++barriers_;
  if (workers_.empty() || ran <= 1) {
    // No workers, or one core with work: no handoff, run inline.
    for (std::size_t s = 0; s < cores_.size(); ++s) {
      if (run_mask_[s]) run_core(s);
    }
  } else {
    // Release only the workers that own a running core. The countdown is
    // stored before the epoch bumps, whose release orders it (and this
    // window's bounds and masks) before each worker's acquire.
    const std::size_t threads = thread_count();
    std::fill(release_.begin(), release_.end(), 0);
    for (std::size_t s = 0; s < cores_.size(); ++s) {
      if (run_mask_[s] && s % threads != 0) release_[s % threads] = 1;
    }
    outstanding_.store(static_cast<std::uint32_t>(std::count(
                           release_.begin(), release_.end(), 1)),
                       std::memory_order_relaxed);
    ++epoch_;
    for (std::size_t w = 1; w < threads; ++w) {
      if (!release_[w]) continue;
      epochs_[w].value.store(epoch_, std::memory_order_release);
      epochs_[w].value.notify_one();
    }
    run_cores_of(0);
    // On the calling thread this scope is the time spent waiting for the
    // slowest worker after its own cores finished.
    OBS_PROF_SCOPE("sharded.barrier_wait");
    for (std::uint32_t left = outstanding_.load(std::memory_order_acquire);
         left != 0; left = await_change(outstanding_, left)) {
    }
  }
  running_ = false;
  for (auto& core : cores_) {
    if (!core->error) continue;
    std::exception_ptr first = core->error;
    for (auto& other : cores_) other->error = nullptr;
    std::rethrow_exception(first);
  }
}

void ShardedSimulator::run_until(RealTime t) {
  SW_EXPECTS(!running_);
  if (cfg_.shards == 1) {
    cores_[0]->sim.run_until(t);
    return;
  }
  SW_EXPECTS(t.ns >= now().ns);
  obs::Profiler* const profiler = obs::active_profiler();
  timing_ = profiler != nullptr && profiler->armed();
  constexpr std::int64_t kInf = kUnreachableNs;
  const auto k = cores_.size();
  bool done = false;
  while (!done) {
    // Idle fast-path: with no pending events anywhere and no lane
    // backlog, no event can materialize before t — jump the clocks.
    if (pending() == 0) {
      for (auto& core : cores_) core->sim.run_until(t);
      break;
    }
    // Per-core earliest-pending-event watermarks. Lanes are empty here
    // (merge_lanes drains fully after every window), so the wheels hold
    // everything that is known to be pending.
    std::fill(t_min_.begin(), t_min_.end(), kInf);
    for (std::size_t s = 0; s < k; ++s) {
      if (const auto next = cores_[s]->sim.next_event_time_ns()) {
        t_min_[s] = *next;
      }
    }
    // Earliest-input-time fixpoint: the earliest a cross-shard entry
    // could still reach core d is bounded by every other core's earliest
    // activity — its next known event, or the earliest entry *it* could
    // receive and react to — plus the pair's lookahead floor. Positive
    // floors make the relaxation converge (shortest-path structure).
    std::fill(eit_.begin(), eit_.end(), kInf);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t d = 0; d < k; ++d) {
        std::int64_t best = kInf;
        for (std::size_t s = 0; s < k; ++s) {
          if (s == d) continue;
          const std::int64_t floor =
              lookahead_ns(static_cast<int>(s), static_cast<int>(d));
          if (floor == kUnreachableNs) continue;
          const std::int64_t src_earliest =
              std::min(t_min_[s], eit_[s]);
          if (src_earliest == kInf) continue;
          const std::int64_t bound =
              src_earliest > kInf - floor ? kInf : src_earliest + floor;
          best = std::min(best, bound);
        }
        if (best < eit_[d]) {
          eit_[d] = best;
          changed = true;
        }
      }
    }
    // Per-core window ends and run decisions. A core runs only when its
    // bound grants it work (or the final advance to t); skipped cores
    // keep their clocks, and their contract bound stays at that clock so
    // entries landing behind their granted-but-unused window still
    // deliver.
    bool all_final = true;
    bool extended = false;
    std::size_t ran = 0;
    for (std::size_t d = 0; d < k; ++d) {
      const std::int64_t end = std::min(t.ns, eit_[d]);
      const bool final_d = end == t.ns;
      all_final = all_final && final_d;
      const std::int64_t now_d = cores_[d]->sim.now().ns;
      const std::int64_t run_to = final_d ? end : end - 1;
      bool run = false;
      if (run_to >= now_d) {
        run = final_d ? (now_d < t.ns || t_min_[d] <= t.ns)
                      : t_min_[d] <= run_to;
      }
      run_mask_[d] = run ? 1 : 0;
      run_to_ns_[d] = run ? run_to : now_d;
      window_end_ns_[d] = run ? end : now_d;
      if (run) {
        ++ran;
        if (run_to - now_d > cfg_.window.ns) extended = true;
      }
    }
    if (extended) ++adaptive_extensions_;
    SW_EXPECTS_MSG(ran > 0 || all_final,
                   "earliest-input-time fixpoint granted no core any work");
    run_window(ran);
    const bool rerun = merge_lanes();
    if (hook_) {
      // The frontier: the farthest any core has committed to.
      std::int64_t frontier = cores_[0]->sim.now().ns;
      for (std::size_t s = 1; s < k; ++s) {
        frontier = std::max(frontier, cores_[s]->sim.now().ns);
      }
      hook_(RealTime::nanos(frontier));
    }
    done = all_final && !rerun;
  }
  if (timing_) {
    for (std::size_t s = 0; s < k; ++s) {
      profiler->add_core_busy_ns(s, std::exchange(cores_[s]->busy_ns, 0));
    }
  }
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& core : cores_) n += core->sim.events_executed();
  return n;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t n = lane_backlog();
  for (const auto& core : cores_) n += core->sim.pending();
  return n;
}

}  // namespace stopwatch::sim
