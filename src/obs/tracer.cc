#include "obs/tracer.h"

#include <chrono>
#include <ctime>
#include <utility>

#include "obs/json.h"

namespace dialite {

namespace {

/// Innermost open span on this thread (across all tracers; a span only
/// nests under it when the tracers match).
thread_local ScopedSpan* tls_open_span = nullptr;

void AppendSpanJson(std::string* out, const SpanNode& node) {
  *out += "{\"name\":";
  AppendJsonString(out, node.name);
  *out += ",\"wall_ns\":" + std::to_string(node.wall_ns);
  *out += ",\"cpu_ns\":" + std::to_string(node.cpu_ns);
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ',';
    AppendSpanJson(out, *node.children[i]);
  }
  *out += "]}";
}

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return std::string(buf);
}

void AppendSpanTree(std::string* out, const SpanNode& node, size_t depth) {
  out->append(depth * 2, ' ');
  *out += node.name + "  wall=" + FormatNs(node.wall_ns) +
          " cpu=" + FormatNs(node.cpu_ns) + "\n";
  for (const std::unique_ptr<SpanNode>& child : node.children) {
    AppendSpanTree(out, *child, depth + 1);
  }
}

bool ForestHasSpan(const std::vector<std::unique_ptr<SpanNode>>& nodes,
                   std::string_view name) {
  for (const std::unique_ptr<SpanNode>& n : nodes) {
    if (n->name == name) return true;
    if (ForestHasSpan(n->children, name)) return true;
  }
  return false;
}

}  // namespace

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNowNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

void Tracer::AddRoot(std::unique_ptr<SpanNode> node) {
  // Declared before the lock, so the evicted tree is freed after mu_ is
  // released: a deep tree's destructor never stalls other threads' roots.
  std::unique_ptr<SpanNode> evicted;
  MutexLock lock(mu_);
  if (roots_.size() < kMaxRoots) {
    roots_.push_back(std::move(node));
    return;
  }
  evicted = std::exchange(roots_[next_], std::move(node));
  next_ = (next_ + 1) % kMaxRoots;
}

size_t Tracer::root_count() const {
  MutexLock lock(mu_);
  return roots_.size();
}

bool Tracer::HasSpan(std::string_view name) const {
  MutexLock lock(mu_);
  return ForestHasSpan(roots_, name);
}

void Tracer::AppendJson(std::string* out) const {
  MutexLock lock(mu_);
  *out += "\"spans\":[";
  bool first = true;
  ForEachRoot([&](const SpanNode& root) {
    if (!first) *out += ',';
    first = false;
    AppendSpanJson(out, root);
  });
  *out += ']';
}

void Tracer::AppendTree(std::string* out) const {
  MutexLock lock(mu_);
  ForEachRoot([&](const SpanNode& root) { AppendSpanTree(out, root, 0); });
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string_view name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  node_ = std::make_unique<SpanNode>();
  node_->name = std::string(name);
  // Nest under the nearest open span of the *same* tracer on this thread; a
  // foreign open span (different context) in between must not adopt this
  // node or break the chain. The chain is stack-scoped, so every link is
  // alive.
  prev_open_ = tls_open_span;
  for (ScopedSpan* s = prev_open_; s != nullptr; s = s->prev_open_) {
    if (s->tracer_ == tracer_) {
      parent_ = s;
      break;
    }
  }
  tls_open_span = this;
  wall_start_ = WallNowNs();
  cpu_start_ = ThreadCpuNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  node_->wall_ns = WallNowNs() - wall_start_;
  const uint64_t cpu_now = ThreadCpuNowNs();
  node_->cpu_ns = cpu_now > cpu_start_ ? cpu_now - cpu_start_ : 0;
  tls_open_span = prev_open_;
  if (parent_ != nullptr) {
    // Same thread as the parent (spans are stack-scoped), so no lock.
    parent_->node_->children.push_back(std::move(node_));
  } else {
    tracer_->AddRoot(std::move(node_));
  }
}

}  // namespace dialite
