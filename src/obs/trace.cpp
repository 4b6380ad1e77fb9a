#include "obs/trace.hpp"

#include <algorithm>
#include <string>

#include "common/json_emit.hpp"

namespace stopwatch::obs {

namespace {

TraceRecorder* g_active_trace = nullptr;

/// ns rendered as the trace format's microseconds with exactly three
/// decimals — pure integer arithmetic, so equal inputs are equal bytes.
std::string format_us(std::int64_t ns) {
  std::string out = std::to_string(ns / 1000);
  const std::int64_t frac = ns % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

}  // namespace

TraceRecorder* active_trace() { return g_active_trace; }

void set_active_trace(TraceRecorder* recorder) { g_active_trace = recorder; }

TraceRecorder::~TraceRecorder() {
  if (g_active_trace == this) set_active_trace(nullptr);
}

TraceTrack* TraceRecorder::track(std::uint32_t pid, std::uint32_t tid,
                                 std::string process_name,
                                 std::string thread_name, Category category) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(pid, tid);
  const auto it = by_id_.find(key);
  if (it != by_id_.end()) return it->second;
  tracks_.emplace_back(TraceTrack(pid, tid, std::move(process_name),
                                  std::move(thread_name), category));
  by_id_[key] = &tracks_.back();
  return &tracks_.back();
}

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  tracks_.clear();
  by_id_.clear();
}

std::size_t TraceRecorder::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const TraceTrack& t : tracks_) n += t.events_.size();
  return n;
}

std::string TraceRecorder::export_json(bool include_parallel) const {
  const std::lock_guard<std::mutex> lock(mu_);

  // Tracks in (pid, tid) order — by_id_ is already sorted that way — so
  // the pre-sort event order is deterministic and metadata rows are too.
  std::vector<const TraceTrack*> tracks;
  tracks.reserve(by_id_.size());
  for (const auto& [id, track] : by_id_) {
    if (track->category_ == Category::kParallel && !include_parallel) {
      continue;
    }
    tracks.push_back(track);
  }

  struct Row {
    const TraceEvent* ev;
    const TraceTrack* track;
  };
  std::vector<Row> rows;
  for (const TraceTrack* t : tracks) {
    for (const TraceEvent& ev : t->events_) rows.push_back({&ev, t});
  }
  // (ts, pid, tid): between-track ties resolve by track identity; ties
  // within one track (same pid/tid) keep append order via stability.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.ev->ts_ns != b.ev->ts_ns) return a.ev->ts_ns < b.ev->ts_ns;
    if (a.track->pid_ != b.track->pid_) return a.track->pid_ < b.track->pid_;
    return a.track->tid_ < b.track->tid_;
  });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    out += first ? "\n" : ",\n";
    first = false;
    out += line;
  };

  std::uint32_t last_pid = 0;
  bool have_pid = false;
  for (const TraceTrack* t : tracks) {
    const std::string ids = "\"pid\": " + std::to_string(t->pid_) +
                            ", \"tid\": " + std::to_string(t->tid_);
    if (!have_pid || t->pid_ != last_pid) {
      emit("{\"ph\": \"M\", " + ids +
           ", \"name\": \"process_name\", \"args\": {\"name\": " +
           json_string(t->process_name_) + "}}");
      last_pid = t->pid_;
      have_pid = true;
    }
    emit("{\"ph\": \"M\", " + ids +
         ", \"name\": \"thread_name\", \"args\": {\"name\": " +
         json_string(t->thread_name_) + "}}");
  }

  for (const Row& row : rows) {
    const TraceEvent& ev = *row.ev;
    std::string line = "{\"name\": \"";
    line += ev.name;
    line += "\", \"ph\": \"";
    line += ev.ph;
    line += '"';
    if (ev.ph == 'i') line += ", \"s\": \"t\"";
    line += ", \"ts\": " + format_us(ev.ts_ns);
    if (ev.ph == 'X') {
      line += ", \"dur\": " + format_us(ev.dur_ns < 0 ? 0 : ev.dur_ns);
    }
    line += ", \"pid\": " + std::to_string(row.track->pid_) +
            ", \"tid\": " + std::to_string(row.track->tid_);
    if (ev.arg_name != nullptr) {
      line += ", \"args\": {\"";
      line += ev.arg_name;
      line += "\": " + std::to_string(ev.arg_value) + "}";
    }
    line += '}';
    emit(line);
  }

  out += "\n]}\n";
  return out;
}

}  // namespace stopwatch::obs
