#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace stopwatch::obs {

namespace detail {
std::atomic<Profiler*> g_profiler{nullptr};
// Bumped on every install/uninstall so thread-local slot caches can never
// mistake a new profiler that reuses a freed address for the old one.
std::atomic<std::uint64_t> g_epoch{1};
}  // namespace detail

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct Profiler::ThreadSlot {
  struct PhaseAccum {
    std::uint64_t calls{0};
    std::uint64_t total_ns{0};
    std::uint64_t self_ns{0};
  };
  struct Frame {
    std::size_t phase{0};
    std::uint64_t start_ns{0};
    std::uint64_t child_ns{0};
    std::uint64_t path{0};  // packed (phase+1) bytes, root in the high byte
  };
  struct PathAccum {
    std::uint64_t self_ns{0};
    std::uint64_t calls{0};
  };
  // Deeper nesting than the path encoding can hold (8 bytes of one-based
  // phase ids) is counted and balanced but not timed.
  static constexpr int kMaxDepth = 8;

  std::array<PhaseAccum, kProfPhaseCount> phases{};
  std::array<Frame, kMaxDepth> stack{};
  int depth{0};
  int overflow{0};
  std::map<std::uint64_t, PathAccum> paths;

  void reset() {
    phases = {};
    depth = 0;
    overflow = 0;
    paths.clear();
  }
};

namespace {
thread_local Profiler* t_owner = nullptr;
thread_local std::uint64_t t_epoch = 0;
thread_local Profiler::ThreadSlot* t_slot = nullptr;
}  // namespace

Profiler::Profiler() = default;

Profiler::~Profiler() {
  if (detail::g_profiler.load(std::memory_order_relaxed) == this) {
    set_active_profiler(nullptr);
  }
}

Profiler::ThreadSlot* Profiler::slot_for_current_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.push_back(std::make_unique<ThreadSlot>());
  return slots_.back().get();
}

Profiler::ThreadSlot* prof_enter(Profiler* profiler, std::size_t phase) {
  const std::uint64_t epoch =
      detail::g_epoch.load(std::memory_order_acquire);
  if (t_owner != profiler || t_epoch != epoch) {
    t_slot = profiler->slot_for_current_thread();
    t_owner = profiler;
    t_epoch = epoch;
  }
  Profiler::ThreadSlot* s = t_slot;
  if (s->overflow > 0 || s->depth >= Profiler::ThreadSlot::kMaxDepth) {
    ++s->overflow;
    return s;
  }
  auto& f = s->stack[s->depth];
  f.phase = phase;
  f.child_ns = 0;
  f.path = (s->depth > 0 ? s->stack[s->depth - 1].path << 8 : 0) |
           (static_cast<std::uint64_t>(phase) + 1);
  f.start_ns = now_ns();
  ++s->depth;
  return s;
}

void prof_exit(Profiler::ThreadSlot* s) {
  const std::uint64_t end = now_ns();
  if (s->overflow > 0) {
    --s->overflow;
    return;
  }
  auto& f = s->stack[--s->depth];
  const std::uint64_t dur = end - f.start_ns;
  auto& acc = s->phases[f.phase];
  ++acc.calls;
  acc.total_ns += dur;
  const std::uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  acc.self_ns += self;
  if (s->depth > 0) s->stack[s->depth - 1].child_ns += dur;
  auto& pa = s->paths[f.path];
  pa.self_ns += self;
  ++pa.calls;
}

namespace {

std::string decode_path(std::uint64_t path) {
  std::array<std::uint8_t, 8> bytes{};  // leaf first
  int n = 0;
  while (path != 0) {
    bytes[static_cast<std::size_t>(n++)] =
        static_cast<std::uint8_t>(path & 0xff);
    path >>= 8;
  }
  std::string out;
  for (int i = n - 1; i >= 0; --i) {
    if (!out.empty()) out += ';';
    out += kProfPhases[bytes[static_cast<std::size_t>(i)] - 1];
  }
  return out;
}

}  // namespace

ProfilerSnapshot Profiler::snapshot() const {
  ProfilerSnapshot snap;
  std::map<std::uint64_t, ThreadSlot::PathAccum> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.core_busy_ns = core_busy_ns_;
    for (const auto& slot : slots_) {
      for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
        snap.phases[i].calls += slot->phases[i].calls;
        snap.phases[i].total_ns += slot->phases[i].total_ns;
        snap.phases[i].self_ns += slot->phases[i].self_ns;
      }
      for (const auto& [path, acc] : slot->paths) {
        auto& m = merged[path];
        m.self_ns += acc.self_ns;
        m.calls += acc.calls;
      }
    }
  }
  snap.paths.reserve(merged.size());
  for (const auto& [path, acc] : merged) {
    snap.paths.push_back({decode_path(path), acc.self_ns, acc.calls});
  }
  std::sort(snap.paths.begin(), snap.paths.end(),
            [](const ProfPathSnapshot& a, const ProfPathSnapshot& b) {
              return a.stack < b.stack;
            });
  return snap;
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) slot->reset();
  core_busy_ns_.clear();
}

void Profiler::add_core_busy_ns(std::size_t core, std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (core_busy_ns_.size() <= core) core_busy_ns_.resize(core + 1, 0);
  core_busy_ns_[core] += ns;
}

std::uint64_t ProfilerSnapshot::attributed_ns() const {
  std::uint64_t sum = 0;
  for (const auto& p : phases) sum += p.self_ns;
  return sum;
}

Profiler* active_profiler() {
  return detail::g_profiler.load(std::memory_order_relaxed);
}

void set_active_profiler(Profiler* profiler) {
  detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
  detail::g_profiler.store(profiler, std::memory_order_release);
}

std::string profile_to_json(const ProfilerSnapshot& snap,
                            std::uint64_t wall_ns, std::uint64_t rss_bytes,
                            std::uint64_t rss_peak_bytes, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::uint64_t attributed = snap.attributed_ns();
  const std::uint64_t other = wall_ns > attributed ? wall_ns - attributed : 0;
  std::string out;
  char buf[256];
  out += pad + "{\n";
  const auto field = [&](const char* name, std::uint64_t value,
                         bool comma = true) {
    std::snprintf(buf, sizeof buf, "%s  \"%s\": %llu%s\n", pad.c_str(), name,
                  static_cast<unsigned long long>(value), comma ? "," : "");
    out += buf;
  };
  out += pad + "  \"schema\": \"stopwatch-profile/1\",\n";
  field("wall_ns", wall_ns);
  field("attributed_ns", attributed);
  field("other_ns", other);
  field("rss_bytes", rss_bytes);
  field("rss_peak_bytes", rss_peak_bytes);
  out += pad + "  \"phases\": [\n";
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const auto& p = snap.phases[i];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"name\": \"%s\", \"calls\": %llu, \"total_ns\": "
                  "%llu, \"self_ns\": %llu}%s\n",
                  pad.c_str(), kProfPhases[i],
                  static_cast<unsigned long long>(p.calls),
                  static_cast<unsigned long long>(p.total_ns),
                  static_cast<unsigned long long>(p.self_ns),
                  i + 1 < kProfPhaseCount ? "," : "");
    out += buf;
  }
  out += pad + "  ],\n";
  out += pad + "  \"core_busy_ns\": [";
  for (std::size_t i = 0; i < snap.core_busy_ns.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(snap.core_busy_ns[i]);
  }
  out += "]\n";
  out += pad + "}";
  return out;
}

std::string collapsed_stacks(const ProfilerSnapshot& snap) {
  std::string out;
  for (const auto& path : snap.paths) {
    out += path.stack;
    out += ' ';
    out += std::to_string(path.self_ns);
    out += '\n';
  }
  return out;
}

namespace {

std::uint64_t read_proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::uint64_t process_rss_bytes() {
  return read_proc_status_kb("VmRSS:") * 1024;
}

std::uint64_t process_rss_peak_bytes() {
  return read_proc_status_kb("VmHWM:") * 1024;
}

}  // namespace stopwatch::obs
