#ifndef DIALITE_OBS_TRACER_H_
#define DIALITE_OBS_TRACER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace dialite {

/// One finished span: a named region with wall time, thread CPU time, and
/// the spans that opened and closed inside it on the same thread.
struct SpanNode {
  std::string name;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  std::vector<std::unique_ptr<SpanNode>> children;
};

/// Collects a forest of finished spans. Nesting is per-thread: a span
/// opened while another span of the same tracer is open *on that thread*
/// becomes its child; otherwise it is a root. Spans opened on worker
/// threads (e.g. parallel index builds) therefore surface as separate
/// roots — by design, since they genuinely ran concurrently.
///
/// Memory is bounded in uptime: the tracer keeps only the most recent
/// kMaxRoots roots (with their subtrees) in a ring; an older root is
/// dropped when a new one arrives.
///
/// Thread safety: root attachment and export take a mutex; child
/// attachment is lock-free (parent and child live on the same thread).
class Tracer {
 public:
  /// Ring capacity, in root spans.
  static constexpr size_t kMaxRoots = 2048;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends a root; once kMaxRoots are held, evicts the oldest.
  void AddRoot(std::unique_ptr<SpanNode> node);

  /// Roots currently held: at most kMaxRoots.
  size_t root_count() const;

  /// True if a span with this name exists anywhere in the forest.
  [[nodiscard]] bool HasSpan(std::string_view name) const;

  /// Appends `"spans":[...]` (no surrounding braces) to `out`, oldest
  /// root first.
  void AppendJson(std::string* out) const;

  /// Appends an indented tree, one span per line:
  ///   pipeline.run  wall=12.3ms cpu=10.1ms
  ///     discover    wall=8.0ms  cpu=7.2ms
  void AppendTree(std::string* out) const;

 private:
  /// Oldest first: roots_[(next_ + i) % roots_.size()] for i = 0, 1, ...
  template <typename Fn>
  void ForEachRoot(Fn fn) const DIALITE_REQUIRES(mu_) {
    for (size_t i = 0; i < roots_.size(); ++i) {
      fn(*roots_[(next_ + i) % roots_.size()]);
    }
  }

  mutable Mutex mu_{"Tracer::mu_"};
  /// Grows to kMaxRoots, then slot next_ (the oldest) is overwritten.
  std::vector<std::unique_ptr<SpanNode>> roots_ DIALITE_GUARDED_BY(mu_);
  size_t next_ DIALITE_GUARDED_BY(mu_) = 0;
};

/// RAII span: starts timing at construction, attaches itself to the
/// tracer (or to the enclosing open span of the same tracer on this
/// thread) at destruction. A null tracer makes the span inert — the
/// disabled fast path costs one branch and no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;      // null = inert
  ScopedSpan* parent_ = nullptr;  // enclosing open span of the same tracer
  ScopedSpan* prev_open_ = nullptr;  // restored on close (any tracer)
  std::unique_ptr<SpanNode> node_;
  uint64_t wall_start_ = 0;
  uint64_t cpu_start_ = 0;
};

/// Monotonic wall clock, nanoseconds.
uint64_t WallNowNs();
/// Calling thread's CPU time, nanoseconds (0 where unsupported).
uint64_t ThreadCpuNowNs();

}  // namespace dialite

#endif  // DIALITE_OBS_TRACER_H_
