#ifndef SERVEBENCH_ALLOC_COUNT_H_
#define SERVEBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace servebench {

/// Counts heap allocations made by the calling thread while alive.
/// alloc_count.cc replaces the global operator new/delete of the driver
/// binary; the counters are thread-local, so a thread that never opens a
/// scope (the closed-loop clients) pays one thread-local load per
/// allocation and touches no shared state. Scopes do not nest.
class AllocScope {
 public:
  AllocScope();
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  /// Allocations (operator new calls) on this thread since construction.
  uint64_t count() const;
};

}  // namespace servebench

#endif  // SERVEBENCH_ALLOC_COUNT_H_
