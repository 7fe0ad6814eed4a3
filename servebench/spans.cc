#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>

#include "obs/json.h"

namespace servebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<SpanSummary> Summarize(const std::vector<const SpanLog*>& logs) {
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) {
        child_us[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
  }
  std::map<std::string, SpanSummary> by_name;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      SpanSummary& sum = by_name[s.name];
      sum.name = s.name;
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      ++sum.count;
      sum.total_us += us;
      auto it = child_us.find(s.id);
      sum.self_us += us - (it == child_us.end() ? 0.0 : it->second);
    }
  }
  std::vector<SpanSummary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<const SpanLog*>& logs,
                const std::vector<SpanSummary>& summary) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run\":" << header_json << ",\n\"summary\":[";
  for (size_t i = 0; i < summary.size(); ++i) {
    std::string name;
    dialite::AppendJsonString(&name, summary[i].name);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ",\"count\":%llu,\"total_us\":%.3f,\"self_us\":%.3f}",
                  static_cast<unsigned long long>(summary[i].count),
                  summary[i].total_us, summary[i].self_us);
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << name << buf;
  }
  out << "],\n\"spans\":[";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::string name;
      dialite::AppendJsonString(&name, s.name);
      out << (first ? "\n" : ",\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":" << name
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}";
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace servebench
