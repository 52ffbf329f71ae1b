#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC on Linux).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile: the smallest sample with at least p·n samples
/// at or below it. Sorts `v`, which must be nonempty.
inline double Percentile(std::vector<double>& v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n.
inline std::size_t TailSamples(std::size_t n, double p) {
  return n - static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
}

/// Shortest decimal that round-trips `v`: every digit as measured.
inline std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// One reported number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order, serialised as the result line's
/// `"metrics"` object: `{"name": {"value": v, "unit": "u"}, ...}`.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(metrics_[i].name) + ": {\"value\": " +
             FormatNumber(metrics_[i].value) +
             ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
