#ifndef DIALITE_BENCH_BENCH_JSON_H_
#define DIALITE_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

/// Stable machine-readable bench trajectory report (schema v1), shared by
/// the figure benches' --bench-json mode and diffed against the committed
/// BENCH_*.json baselines by tools/bench_compare.py.
///
/// Schema contract (tools/bench_compare.py enforces it):
///   - `schema_version` and `bench` must match the baseline exactly.
///   - Section key sets must match the baseline exactly (a silently added
///     or dropped metric is itself a trajectory break).
///   - `config` and `deterministic`/`deterministic_text` values must match
///     exactly — they identify the workload and the counters that may not
///     drift at all (pruning accounting, result digests).
///   - `deterministic_text.build_type`, which every report carries, is the
///     CMake build type the bench was compiled in. Timings and ratios
///     depend on it, so a report from another build type is refused.
///   - `timings_us` compares with a loose catastrophic-only tolerance
///     (wall clocks differ across machines); `ratios` carry the
///     machine-portable performance signal (same-run time ratios) and
///     compare with a tight relative tolerance.
#ifndef DIALITE_BUILD_TYPE
#define DIALITE_BUILD_TYPE "unknown"
#endif

namespace benchjson {

struct BenchReport {
  std::string bench;                                ///< e.g. "discovery"
  std::map<std::string, uint64_t> config;           ///< workload identity
  std::map<std::string, uint64_t> deterministic;    ///< exact-match counters
  /// Exact-match text, starting with the build type.
  std::map<std::string, std::string> deterministic_text = {
      {"build_type", DIALITE_BUILD_TYPE}};
  std::map<std::string, double> timings_us;         ///< loose (cross-machine)
  std::map<std::string, double> ratios;             ///< tight (same-run)
  /// One-sided acceptance floors: the committed baseline holds the minimum
  /// acceptable value, the current run the measured one; bench_compare.py
  /// fails only when measured < floor. Emitted only when non-empty, so
  /// pre-floor baselines keep comparing clean.
  std::map<std::string, double> ratios_min;

  std::string ToJson() const {
    std::string out = "{\n  \"schema_version\": 1,\n  \"bench\": \"" +
                      Escape(bench) + "\"";
    AppendSection(&out, "config", config);
    AppendSection(&out, "deterministic", deterministic);
    AppendTextSection(&out, "deterministic_text", deterministic_text);
    AppendDoubleSection(&out, "timings_us", timings_us);
    AppendDoubleSection(&out, "ratios", ratios);
    if (!ratios_min.empty()) {
      AppendDoubleSection(&out, "ratios_min", ratios_min);
    }
    out += "\n}\n";
    return out;
  }

  /// Writes the report to `path` ("-" = stdout). Returns false on IO error.
  [[nodiscard]] bool WriteTo(const std::string& path) const {
    const std::string json = ToJson();
    if (path == "-") {
      std::fputs(json.c_str(), stdout);
      return true;
    }
    std::ofstream f(path, std::ios::binary);
    f << json;
    return static_cast<bool>(f);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  static void AppendSection(std::string* out, const char* name,
                            const std::map<std::string, uint64_t>& m) {
    *out += ",\n  \"" + std::string(name) + "\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      *out += first ? "\n" : ",\n";
      *out += "    \"" + Escape(k) + "\": " + std::to_string(v);
      first = false;
    }
    *out += first ? "}" : "\n  }";
  }

  static void AppendTextSection(std::string* out, const char* name,
                                const std::map<std::string, std::string>& m) {
    *out += ",\n  \"" + std::string(name) + "\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      *out += first ? "\n" : ",\n";
      *out += "    \"" + Escape(k) + "\": \"" + Escape(v) + "\"";
      first = false;
    }
    *out += first ? "}" : "\n  }";
  }

  static void AppendDoubleSection(std::string* out, const char* name,
                                  const std::map<std::string, double>& m) {
    *out += ",\n  \"" + std::string(name) + "\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f", v);
      *out += first ? "\n" : ",\n";
      *out += "    \"" + Escape(k) + "\": " + buf;
      first = false;
    }
    *out += first ? "}" : "\n  }";
  }
};

}  // namespace benchjson

#endif  // DIALITE_BENCH_BENCH_JSON_H_
