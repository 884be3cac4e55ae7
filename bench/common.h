// Shared helpers for the per-figure/table benchmark harnesses.
#ifndef BENCH_COMMON_H_
#define BENCH_COMMON_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/exp/runners.h"
#include "src/exp/testbed.h"
#include "src/obs/json.h"
#include "src/sim/logging.h"
#include "src/sim/table.h"

namespace taichi::bench {

inline std::unique_ptr<exp::Testbed> MakeTestbed(
    exp::Mode mode, uint64_t seed = 42,
    const std::function<void(exp::TestbedConfig&)>& tweak = nullptr) {
  exp::TestbedConfig cfg;
  cfg.mode = mode;
  cfg.seed = seed;
  if (tweak) {
    tweak(cfg);
  }
  return std::make_unique<exp::Testbed>(std::move(cfg));
}

// Sustained control-plane pressure: a busy monitor/agent fleet that keeps
// runnable vCPUs contending for idle DP cycles throughout a benchmark. The
// §6.5 overheads are the cost of this donation actually happening.
inline void CpPressure(exp::TestbedConfig& cfg) {
  cfg.monitors.count = 12;
  cfg.monitors.period_mean = sim::Micros(300);
  cfg.monitors.user_work_mean = sim::Micros(60);
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline std::string Pct(double value, double reference) {
  if (reference == 0) {
    return "n/a";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", (value / reference - 1.0) * 100.0);
  return buf;
}

// The value of numeric flag `flag`: all of `text` must parse as a T within
// [lo, hi]. Empty input, trailing junk ("12x") or an out-of-range value is a
// usage error that exits with code 2, where bare atoi/atof would quietly run
// some other experiment. Signed integers are decimal; unsigned ones also take
// a 0x or 0 prefix, as strtoull does.
template <typename T>
T ParseFlag(const char* flag, const char* text, T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T>);
  char* end = nullptr;
  errno = 0;
  bool in_range = false;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    in_range = std::isfinite(v) && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    const unsigned long long v = std::strtoull(text, &end, 0);
    in_range = std::strchr(text, '-') == nullptr && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else {
    const long long v = std::strtoll(text, &end, 10);
    in_range = v >= lo && v <= hi;
    value = static_cast<T>(v);
  }
  if (end == text || *end != '\0' || errno == ERANGE || !in_range) {
    auto show = [](T v) {
      if constexpr (std::is_floating_point_v<T>) {
        return obs::JsonNum(v);
      } else {
        return std::to_string(v);
      }
    };
    std::fprintf(stderr, "%s: '%s' is not a number in [%s, %s]\n", flag, text,
                 show(lo).c_str(), show(hi).c_str());
    std::exit(2);
  }
  return value;
}

// The process's peak resident set (VmHWM) in MB; 0 where /proc is absent.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Machine-readable bench output. Every harness constructs one of these with
// its argv; when the user passed `--json <path>`, key/value pairs recorded
// via Config()/Metric() are written to `path` as
//   {"bench": "<name>", "config": {...}, "metrics": {...}}
// on Write() (call it last in main). Without --json this is all a no-op, so
// the human-readable tables stay the default. Values are emitted in
// insertion order and deterministically formatted: same seed, same bytes.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        path_ = argv[i + 1];
        break;
      }
    }
  }

  // Sidecar report with an explicit path (empty = disabled). Used for
  // host-dependent measurements (wall clock, thread count) that must stay
  // out of the deterministic main report.
  JsonReport(std::string bench_name, std::string path)
      : bench_(std::move(bench_name)), path_(std::move(path)) {}

  bool requested() const { return !path_.empty(); }

  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Config(const std::string& key, double value) { config_.emplace_back(key, Num(value)); }
  void Config(const std::string& key, int64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void Config(const std::string& key, bool value) {
    config_.emplace_back(key, value ? "true" : "false");
  }

  void Metric(const std::string& key, double value) { metrics_.emplace_back(key, Num(value)); }
  void Metric(const std::string& key, int64_t value) {
    metrics_.emplace_back(key, std::to_string(value));
  }
  // Flattens a latency summary into <key>.{count,mean,p50,p90,p99,max}.
  void Metric(const std::string& key, const sim::Summary& summary) {
    Metric(key + ".count", static_cast<int64_t>(summary.count()));
    if (summary.empty()) {
      return;
    }
    Metric(key + ".mean", summary.mean());
    Metric(key + ".p50", summary.Percentile(50));
    Metric(key + ".p90", summary.Percentile(90));
    Metric(key + ".p99", summary.Percentile(99));
    Metric(key + ".max", summary.max());
  }

  // Writes the report if --json was given. Returns false only on I/O error.
  bool Write() const {
    if (path_.empty()) {
      return true;
    }
    std::string out = "{\n  \"bench\": " + Quote(bench_) + ",\n";
    AppendSection(out, "config", config_);
    out += ",\n";
    AppendSection(out, "metrics", metrics_);
    out += "\n}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      TAICHI_ERROR(0, "bench: cannot open '%s' for writing", path_.c_str());
      return false;
    }
    size_t written = std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (written != out.size()) {
      TAICHI_ERROR(0, "bench: short write to '%s'", path_.c_str());
      return false;
    }
    return true;
  }

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  static std::string Num(double v) {
    if (!std::isfinite(v)) {
      return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  // Shared with the metric/trace exporters: the old hand-rolled quoting here
  // left control characters unescaped, producing invalid JSON.
  static std::string Quote(const std::string& s) { return obs::JsonQuote(s); }

  static void AppendSection(std::string& out, const char* name, const Entries& entries) {
    out += "  \"";
    out += name;
    out += "\": {";
    for (size_t i = 0; i < entries.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    " + Quote(entries[i].first) + ": " + entries[i].second;
    }
    out += entries.empty() ? "}" : "\n  }";
  }

  std::string bench_;
  std::string path_;
  Entries config_;
  Entries metrics_;
};

}  // namespace taichi::bench

#endif  // BENCH_COMMON_H_
