#include "experiment/result.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/json_emit.hpp"
#include "stats/summary.hpp"

namespace stopwatch::experiment {

namespace {

std::string pad(int indent) { return std::string(indent, ' '); }

/// `"count": c, "sum": s, "max": m, "<buckets_key>": [[i, n], ...]`: the
/// one serialization of a histogram, shared by `timeseries` windows
/// ("sketch") and `observability` histograms ("buckets").
std::string histogram_fields(const obs::HistogramSnapshot& h,
                             const char* buckets_key) {
  std::string out = "\"count\": ";
  out += json_number(h.count) + ", \"sum\": " + json_number(h.sum) +
         ", \"max\": " + json_number(h.max) + ", \"" + buckets_key + "\": [";
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    out += b == 0 ? "[" : ", [";
    out += json_number(static_cast<std::uint64_t>(h.buckets[b].first)) +
           ", " + json_number(h.buckets[b].second) + "]";
  }
  out += "]";
  return out;
}

}  // namespace

void Result::add_metric(std::string name, double value, std::string unit) {
  SW_EXPECTS(!name.empty());
  SW_EXPECTS(!has_metric(name));
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::add_series(std::string name, std::string unit,
                        std::vector<double> values) {
  SW_EXPECTS(!name.empty());
  series_.push_back({std::move(name), std::move(unit), std::move(values)});
}

void Result::add_summary_metrics(const std::string& prefix,
                                 const std::string& unit,
                                 const std::vector<double>& values) {
  add_metric(prefix + "_count", static_cast<double>(values.size()), "samples");
  if (values.empty()) return;
  const stats::Summary s = stats::summarize(values);
  add_metric(prefix + "_mean", s.mean, unit);
  add_metric(prefix + "_p50", s.p50, unit);
  add_metric(prefix + "_p99", s.p99, unit);
}

double Result::metric(const std::string& name) const {
  const auto it = std::find_if(metrics_.begin(), metrics_.end(),
                               [&](const Metric& m) { return m.name == name; });
  SW_EXPECTS(it != metrics_.end());
  return it->value;
}

bool Result::has_metric(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::add_timeseries(std::string name,
                            obs::TimeSeriesSnapshot snapshot) {
  SW_EXPECTS(!name.empty());
  timeseries_.emplace_back(std::move(name), std::move(snapshot));
  std::sort(timeseries_.begin(), timeseries_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void Result::set_context(
    std::uint64_t seed, bool smoke,
    std::vector<std::pair<std::string, std::string>> params) {
  seed_ = seed;
  smoke_ = smoke;
  params_ = std::move(params);
}

std::string Result::to_json(int indent) const {
  const std::string p0 = pad(indent);
  const std::string p1 = pad(indent + 2);
  const std::string p2 = pad(indent + 4);
  const std::string p3 = pad(indent + 6);

  std::string out = p0 + "{\n";
  out += p1 + "\"scenario\": " + json_string(scenario_) + ",\n";
  out += p1 + "\"seed\": " + json_number(seed_) + ",\n";
  out += p1 + "\"smoke\": " + (smoke_ ? "true" : "false") + ",\n";

  out += p1 + "\"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + p2 + json_string(params_[i].first) + ": " +
           params_[i].second;  // already JSON-encoded
  }
  out += params_.empty() ? "},\n" : "\n" + p1 + "},\n";

  out += p1 + "\"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "\n" : ",\n") + p2 + "{\"name\": " + json_string(m.name) +
           ", \"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += metrics_.empty() ? "]" : "\n" + p1 + "]";

  if (!series_.empty()) {
    out += ",\n" + p1 + "\"series\": [";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const Series& s = series_[i];
      out += (i == 0 ? "\n" : ",\n") + p2 + "{\n";
      out += p3 + "\"name\": " + json_string(s.name) + ",\n";
      out += p3 + "\"unit\": " + json_string(s.unit) + ",\n";
      out += p3 + "\"values\": [";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        out += (j == 0 ? "" : ", ") + json_number(s.values[j]);
      }
      out += "]\n" + p2 + "}";
    }
    out += "\n" + p1 + "]";
  }

  if (!note_.empty()) {
    out += ",\n" + p1 + "\"note\": " + json_string(note_);
  }

  // `timeseries` is deterministic across sim_shards/--jobs and must stay
  // inside the byte-identity comparisons, so it serializes BEFORE the
  // shard-dependent `observability` block (comparators strip everything
  // from the observability marker onward).
  if (!timeseries_.empty()) {
    out += ",\n" + p1 + "\"timeseries\": {";
    for (std::size_t i = 0; i < timeseries_.size(); ++i) {
      const auto& [name, ts] = timeseries_[i];
      out += (i == 0 ? "\n" : ",\n") + p2 + json_string(name) + ": {\n";
      out += p3 + "\"window_ns\": " +
             json_number(static_cast<std::uint64_t>(ts.window_ns)) + ",\n";
      out += p3 + "\"budget_windows\": " + json_number(ts.budget_windows) +
             ",\n";
      out += p3 + "\"windows\": [";
      for (std::size_t w = 0; w < ts.windows.size(); ++w) {
        const auto& [start_ns, window] = ts.windows[w];
        out += (w == 0 ? "\n" : ",\n") + pad(indent + 8) +
               "{\"start_ns\": " +
               json_number(static_cast<std::uint64_t>(start_ns)) + ", " +
               histogram_fields(window, "sketch") + "}";
      }
      out += ts.windows.empty() ? "]\n" : "\n" + p3 + "]\n";
      out += p2 + "}";
    }
    out += "\n" + p1 + "}";
  }

  if (!observability_.empty()) {
    out += ",\n" + p1 + "\"observability\": {\n";
    out += p2 + "\"counters\": {";
    for (std::size_t i = 0; i < observability_.counters.size(); ++i) {
      const auto& [name, value] = observability_.counters[i];
      out += (i == 0 ? "\n" : ",\n") + p3 + json_string(name) + ": " +
             json_number(value);
    }
    out += observability_.counters.empty() ? "}" : "\n" + p2 + "}";
    if (!observability_.gauges.empty()) {
      out += ",\n" + p2 + "\"gauges\": {";
      for (std::size_t i = 0; i < observability_.gauges.size(); ++i) {
        const auto& [name, value] = observability_.gauges[i];
        out += (i == 0 ? "\n" : ",\n") + p3 + json_string(name) + ": " +
               json_number(value);
      }
      out += "\n" + p2 + "}";
    }
    if (!observability_.histograms.empty()) {
      out += ",\n" + p2 + "\"histograms\": {";
      for (std::size_t i = 0; i < observability_.histograms.size(); ++i) {
        const auto& [name, h] = observability_.histograms[i];
        out += (i == 0 ? "\n" : ",\n") + p3 + json_string(name) + ": {" +
               histogram_fields(h, "buckets") + "}";
      }
      out += "\n" + p2 + "}";
    }
    out += "\n" + p1 + "}";
  }
  out += "\n" + p0 + "}";
  return out;
}

std::string report_to_json(const std::vector<Result>& results) {
  std::string out = "{\n  \"schema\": \"stopwatch-bench/1\",\n  \"results\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n") + results[i].to_json(4);
  }
  out += results.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace stopwatch::experiment
