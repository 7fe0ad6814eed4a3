#ifndef DIALITE_COMMON_SYNC_H_
#define DIALITE_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(DIALITE_DEBUG_SYNC)
#include <cstdio>
#include <cstdlib>
#include <map>
#include <source_location>
#include <string>
#include <vector>
#endif

// Annotated synchronization primitives — the ONLY way code under src/ may
// lock. Raw std::mutex / std::lock_guard / std::unique_lock are banned by
// dialite_analyze (check raw-sync-primitive) outside this header so that
// every lock in the tree carries:
//
//  1. Clang Thread Safety Analysis capability attributes. On clang builds
//     the top-level CMakeLists adds -Wthread-safety -Wthread-safety-beta
//     promoted to errors, which turns "touched a GUARDED_BY field without
//     holding its mutex" into a compile error. On other compilers the
//     attributes expand to nothing and the wrappers are exact pass-throughs
//     to the std primitives (static_asserts below pin the zero-cost claim).
//
//  2. A debug-build lock-order deadlock detector (-DDIALITE_DEBUG_SYNC=ON).
//     Every acquire records held-lock → new-lock edges in a global order
//     graph keyed by the per-Mutex name; a cycle (an ABBA inversion) aborts
//     immediately with both lock names and both acquisition sites, so the
//     inversion is caught by ANY test run that executes both orders — not
//     just by the interleavings TSan happens to schedule. Release builds
//     compile all of it away (no fields, no atomics, no branches).
//
// Annotation rules and the lock-naming convention ("Class::member") are
// documented in DESIGN.md § Synchronization discipline.

// --------------------------------------------------------------- attributes

#if defined(__clang__)
#define DIALITE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define DIALITE_THREAD_ANNOTATION_(x)
#endif

/// Marks a type as a lockable capability ("mutex").
#define DIALITE_CAPABILITY(x) DIALITE_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type that acquires in its ctor and releases in its dtor.
#define DIALITE_SCOPED_CAPABILITY DIALITE_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be touched while holding the named mutex.
#define DIALITE_GUARDED_BY(x) DIALITE_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee may only be touched while holding the named mutex.
#define DIALITE_PT_GUARDED_BY(x) DIALITE_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function acquires the capability (held on exit, not on entry).
#define DIALITE_ACQUIRE(...) \
  DIALITE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define DIALITE_ACQUIRE_SHARED(...) \
  DIALITE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on exit).
#define DIALITE_RELEASE(...) \
  DIALITE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define DIALITE_RELEASE_SHARED(...) \
  DIALITE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define DIALITE_TRY_ACQUIRE(...) \
  DIALITE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define DIALITE_TRY_ACQUIRE_SHARED(...) \
  DIALITE_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
/// Caller must already hold the capability (exclusive / shared).
#define DIALITE_REQUIRES(...) \
  DIALITE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define DIALITE_REQUIRES_SHARED(...) \
  DIALITE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (the function acquires it itself).
#define DIALITE_EXCLUDES(...) \
  DIALITE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Escape hatch; every use needs a comment justifying it.
#define DIALITE_NO_THREAD_SAFETY_ANALYSIS \
  DIALITE_THREAD_ANNOTATION_(no_thread_safety_analysis)

// ----------------------------------------------------- debug-sync plumbing

namespace dialite {

#if defined(DIALITE_DEBUG_SYNC)
// The lock-order deadlock detector. Header-only and entirely inside this
// #ifdef so (a) a release build demonstrably contains none of it and (b) the
// base obs library can use annotated mutexes without a link-time dependency
// on a sync TU. Inline-function-local statics give one shared graph across
// all translation units.
//
// Model: a directed graph over lock *names* (so every instance of a
// per-object mutex, e.g. AliteMatcher::cache_mu_, is one node).
// When a thread that holds {H1..Hk} acquires N, edges Hi → N are inserted.
// Before inserting Hi → N we DFS for an existing path N → … → Hi; finding
// one means some other code path acquires the same pair in the opposite
// order — the classic ABBA inversion — and we abort immediately with both
// names and both acquisition sites. This catches the inversion the first
// time both orders ever execute, in any single test run, without needing
// TSan to schedule the racy interleaving.
namespace sync_internal {

/// Where one lock was acquired (the std::source_location of the Lock call).
struct Site {
  const char* file = "?";
  unsigned line = 0;
};

/// One lock currently held by a thread.
struct Held {
  std::string name;
  Site site;
};

/// Edge value: the acquisition site of the edge's *destination* lock the
/// first time the ordering was observed.
using AdjacencyMap = std::map<std::string, std::map<std::string, Site>>;

/// The graph's own lock must be a raw std::mutex: routing it through
/// dialite::Mutex would recurse into the detector.
inline std::mutex& GraphMu() {
  static std::mutex* mu = new std::mutex();  // leaked: alive at exit
  return *mu;
}

inline AdjacencyMap& Graph() {
  static AdjacencyMap* graph = new AdjacencyMap();  // leaked: alive at exit
  return *graph;
}

/// Locks held by the current thread, in acquisition order.
inline std::vector<Held>& HeldStack() {
  static thread_local std::vector<Held>* held = new std::vector<Held>();
  return *held;
}

/// True when the graph already has a path from `from` to `to`.
inline bool PathExists(const AdjacencyMap& g, const std::string& from,
                       const std::string& to,
                       std::vector<std::string>* visited) {
  if (from == to) return true;
  for (const std::string& v : *visited) {
    if (v == from) return false;
  }
  visited->push_back(from);
  auto it = g.find(from);
  if (it == g.end()) return false;
  for (const auto& [next, site] : it->second) {
    if (PathExists(g, next, to, visited)) return true;
  }
  return false;
}

[[noreturn]] inline void AbortWithInversion(const Held& held,
                                            const char* acquiring,
                                            const Site& acquiring_site,
                                            const Site& prior_site) {
  std::fprintf(
      stderr,
      "DIALITE_DEBUG_SYNC: lock-order inversion (potential deadlock) "
      "between '%s' and '%s'\n"
      "  this thread acquires '%s' at %s:%u while holding '%s' "
      "(acquired at %s:%u)\n"
      "  but the opposite order '%s' -> '%s' was established earlier "
      "(at %s:%u)\n",
      held.name.c_str(), acquiring, acquiring, acquiring_site.file,
      acquiring_site.line, held.name.c_str(), held.site.file, held.site.line,
      acquiring, held.name.c_str(), prior_site.file, prior_site.line);
  std::abort();
}

/// Records "every held lock → `name`" edges in the global lock-order graph,
/// DFS-checks for a cycle, and pushes `name` onto this thread's held stack.
/// A cycle aborts with both lock names and both acquisition sites. Called
/// BEFORE blocking on the underlying primitive so an in-progress deadlock
/// is still reported rather than hung.
inline void OnAcquire(const char* name, const std::source_location& loc) {
  const Site site{loc.file_name(), loc.line()};
  std::vector<Held>& held = HeldStack();
  if (!held.empty()) {
    std::lock_guard<std::mutex> g(GraphMu());
    AdjacencyMap& graph = Graph();
    for (const Held& h : held) {
      if (h.name == name) continue;  // CondVar reacquire of the same node
      auto edge = graph[h.name].find(name);
      if (edge != graph[h.name].end()) continue;  // ordering already known
      // Inserting h.name -> name: a pre-existing path name -> ... -> h.name
      // would close a cycle. Find it (and the site that established the
      // first reverse hop) before committing the edge.
      std::vector<std::string> visited;
      if (PathExists(graph, name, h.name, &visited)) {
        Site prior{"?", 0};
        auto out = graph.find(name);
        if (out != graph.end()) {
          // Prefer the direct reverse edge's site when it exists; for a
          // longer cycle, report the first hop out of `name`.
          auto rev = out->second.find(h.name);
          if (rev != out->second.end()) {
            prior = rev->second;
          } else if (!out->second.empty()) {
            prior = out->second.begin()->second;
          }
        }
        AbortWithInversion(h, name, site, prior);
      }
      graph[h.name].emplace(name, site);
    }
  }
  held.push_back(Held{name, site});
}

/// Pushes without recording edges: a successful try-acquire never blocked,
/// so it cannot be a deadlock participant and must not poison the order
/// graph for code that intentionally try-locks against the order.
inline void OnTryAcquire(const char* name, const std::source_location& loc) {
  HeldStack().push_back(Held{name, Site{loc.file_name(), loc.line()}});
}

/// Pops the most recent `name` from this thread's held stack. Locks are
/// almost always released LIFO, but scoped locks in one frame may
/// interleave; pop the most recent matching entry.
inline void OnRelease(const char* name) {
  std::vector<Held>& held = HeldStack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->name == name) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace sync_internal

/// Sole parameter of an acquire method: defaults to the caller's location
/// so abort reports name real acquisition sites, not sync.h internals.
#define DIALITE_SYNC_LOC_PARAM_0 \
  const std::source_location& loc = std::source_location::current()
#define DIALITE_SYNC_ON_ACQUIRE_(name) \
  ::dialite::sync_internal::OnAcquire(name, loc)
#define DIALITE_SYNC_ON_TRY_(name) \
  ::dialite::sync_internal::OnTryAcquire(name, loc)
#define DIALITE_SYNC_ON_RELEASE_(name) ::dialite::sync_internal::OnRelease(name)
#else
#define DIALITE_SYNC_LOC_PARAM_0
#define DIALITE_SYNC_ON_ACQUIRE_(name) (void)0
#define DIALITE_SYNC_ON_TRY_(name) (void)0
#define DIALITE_SYNC_ON_RELEASE_(name) (void)0
#endif

// ---------------------------------------------------------------- primitives

/// std::mutex with thread-safety capability attributes and (debug builds)
/// lock-order tracking. `name` keys the order graph node — use the
/// "Class::member" convention so every instance of a per-object mutex maps
/// to one node. Release builds ignore the name entirely.
class DIALITE_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name = "dialite::Mutex") {
#if defined(DIALITE_DEBUG_SYNC)
    name_ = name;
#else
    (void)name;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(DIALITE_SYNC_LOC_PARAM_0) DIALITE_ACQUIRE() {
    DIALITE_SYNC_ON_ACQUIRE_(name_);
    mu_.lock();
  }

  void Unlock() DIALITE_RELEASE() {
    mu_.unlock();
    DIALITE_SYNC_ON_RELEASE_(name_);
  }

  [[nodiscard]] bool TryLock(DIALITE_SYNC_LOC_PARAM_0)
      DIALITE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DIALITE_SYNC_ON_TRY_(name_);
    return true;
  }

  /// std BasicLockable spelling so std::condition_variable_any (inside
  /// CondVar) can release/reacquire around a wait. Library code must use
  /// the RAII wrappers, not these.
  void lock(DIALITE_SYNC_LOC_PARAM_0) DIALITE_ACQUIRE() {
    DIALITE_SYNC_ON_ACQUIRE_(name_);
    mu_.lock();
  }
  void unlock() DIALITE_RELEASE() {
    mu_.unlock();
    DIALITE_SYNC_ON_RELEASE_(name_);
  }

 private:
  std::mutex mu_;
#if defined(DIALITE_DEBUG_SYNC)
  const char* name_;
#endif
};

/// std::shared_mutex counterpart. Shared (reader) acquisitions participate
/// in lock-order tracking exactly like exclusive ones: a reader blocked
/// behind a writer deadlocks just the same under an ABBA inversion.
class DIALITE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* name = "dialite::SharedMutex") {
#if defined(DIALITE_DEBUG_SYNC)
    name_ = name;
#else
    (void)name;
#endif
  }
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock(DIALITE_SYNC_LOC_PARAM_0) DIALITE_ACQUIRE() {
    DIALITE_SYNC_ON_ACQUIRE_(name_);
    mu_.lock();
  }
  void Unlock() DIALITE_RELEASE() {
    mu_.unlock();
    DIALITE_SYNC_ON_RELEASE_(name_);
  }
  void LockShared(DIALITE_SYNC_LOC_PARAM_0) DIALITE_ACQUIRE_SHARED() {
    DIALITE_SYNC_ON_ACQUIRE_(name_);
    mu_.lock_shared();
  }
  void UnlockShared() DIALITE_RELEASE_SHARED() {
    mu_.unlock_shared();
    DIALITE_SYNC_ON_RELEASE_(name_);
  }
  [[nodiscard]] bool TryLock(DIALITE_SYNC_LOC_PARAM_0)
      DIALITE_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    DIALITE_SYNC_ON_TRY_(name_);
    return true;
  }
  [[nodiscard]] bool TryLockShared(DIALITE_SYNC_LOC_PARAM_0)
      DIALITE_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    DIALITE_SYNC_ON_TRY_(name_);
    return true;
  }

 private:
  std::shared_mutex mu_;
#if defined(DIALITE_DEBUG_SYNC)
  const char* name_;
#endif
};

// ------------------------------------------------------------ RAII wrappers

/// Scoped exclusive lock (the project's std::lock_guard).
class DIALITE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DIALITE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DIALITE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class DIALITE_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) DIALITE_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() DIALITE_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (writer) lock on a SharedMutex.
class DIALITE_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) DIALITE_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() DIALITE_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// ------------------------------------------------------------------ CondVar

/// Condition variable over dialite::Mutex. Wait() must be called with the
/// mutex held (enforced by the analysis via REQUIRES); it releases the
/// mutex while blocked and reacquires before returning, so guarded state
/// must be rechecked in a loop:
///
///   MutexLock lock(mu_);
///   while (!ReadyLocked()) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks until notified; reacquires `mu`
  /// before returning (spurious wakeups possible — always loop).
  void Wait(Mutex& mu) DIALITE_REQUIRES(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // condition_variable_any drives Mutex through its BasicLockable
  // lock()/unlock(), keeping the debug-sync held stack correct across the
  // release/reacquire inside the wait.
  std::condition_variable_any cv_;
};

#if !defined(DIALITE_DEBUG_SYNC)
// The release-build wrappers are exact pass-throughs: no extra fields, no
// atomics, no tracking state. DIALITE_DEBUG_SYNC legitimately adds the
// name pointer, which is why these only hold outside that mode.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release-build dialite::Mutex must add nothing to std::mutex");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "release-build dialite::SharedMutex must add nothing to "
              "std::shared_mutex");
static_assert(sizeof(CondVar) == sizeof(std::condition_variable_any),
              "dialite::CondVar must add nothing to its std primitive");
#endif

}  // namespace dialite

#endif  // DIALITE_COMMON_SYNC_H_
