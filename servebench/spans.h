#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a sample (the mean of the middle two for an even count); 0
/// for an empty one.
double Median(std::vector<double> values);

/// One benchmark span: a named interval and the span that caused it.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// An in-memory span log owned by one thread. Ids are unique across logs
/// with distinct `id_base`; nothing is written out until the run ends.
class SpanLog {
 public:
  explicit SpanLog(uint64_t id_base = 0) : id_base_(id_base) {}

  uint64_t Begin(std::string name, uint64_t parent = 0) {
    spans_.push_back(Span{std::move(name), id_base_ + spans_.size() + 1,
                          parent, NowNs(), 0});
    return spans_.back().id;
  }
  void End(uint64_t id) { At(id).end_ns = NowNs(); }
  double DurationUs(uint64_t id) const {
    const Span& s = spans_[id - id_base_ - 1];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Span& At(uint64_t id) { return spans_[id - id_base_ - 1]; }

  uint64_t id_base_;
  std::vector<Span> spans_;
};

/// Per-name totals over a span forest: a span's self time is its duration
/// minus its children's (children of one parent never overlap here).
struct SpanSummary {
  std::string name;
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<SpanSummary> Summarize(const std::vector<const SpanLog*>& logs);

/// Writes every span and the summary as one JSON document; false on error.
bool WriteTrace(const std::string& path, const std::string& header_json,
                const std::vector<const SpanLog*>& logs,
                const std::vector<SpanSummary>& summary);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
