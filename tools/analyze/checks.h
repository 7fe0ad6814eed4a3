#ifndef DIALITE_TOOLS_ANALYZE_CHECKS_H_
#define DIALITE_TOOLS_ANALYZE_CHECKS_H_

#include <string>
#include <vector>

#include "analyze/callgraph.h"
#include "analyze/dataflow.h"
#include "analyze/policy.h"

namespace dialite {
namespace analyze {

struct Finding {
  /// kError fails the run; kWarning and kNote are reported but do not
  /// affect the exit code (the baseline gate still fails on NEW notes, so
  /// the hot-alloc inventory cannot silently grow).
  enum class Severity { kError, kWarning, kNote };

  std::string file;
  int line = 0;
  std::string check;    ///< "no-cancel", "blocking", "no-guard",
                        ///< "view-escape", "naked-thread", "raw-socket",
                        ///< "raw-sync-primitive", "nondeterminism",
                        ///< "using-namespace-header", "include-guard",
                        ///< "include-cycle", "lock-blocking", "hot-alloc",
                        ///< "status-drop", "view-return", "stale-waiver"
  std::string message;
  Severity severity = Severity::kError;
};

const char* SeverityName(Finding::Severity severity);

/// Runs every check over the project under the policy.
///
/// A check with a directive is waivable at the finding line with an
/// analyze waiver comment naming it, e.g. the no-cancel directive with a
/// reason in parentheses; the directive is the check's name unless given.
/// (The directive names below are spelled without the waiver syntax so
/// this very comment does not register waivers.) Every check can be scoped
/// away from a path with a policy `exempt` line.
///
/// Reachability checks:
///  - no-cancel: a loop in a request-reachable function that calls a hot
///    helper must poll a cancel token
///  - blocking: banned identifiers in request-reachable functions
///    [directive: allow-blocking]
///  - no-guard: unannotated mutable members of lock-owning classes
///  - view-escape: borrowed-view class members outside the allowlist
///    [directive: allow-view]
///  - include-cycle: the quoted-include graph must be acyclic [no waiver]
///
/// Repo rules (token checks over the code and every #define body, scoped
/// by the policy's exempt lines):
///  - naked-thread: a raw std::thread (not std::thread::id and other
///    statics) [directive: allow-thread]
///  - raw-socket: the socket headers and globally-qualified socket calls
///    [directive: allow-socket]
///  - raw-sync-primitive: std::mutex, std::lock_guard,
///    std::condition_variable and the other raw std locks; once_flag and
///    call_once are fine [no waiver]
///  - nondeterminism: rand(), srand(), std::random_device [no waiver]
///  - using-namespace-header: a using-directive in a header [no waiver]
///  - include-guard: a header without a matching #ifndef/#define/#endif
///    guard, or with #pragma once [no waiver]
///
/// Data-flow checks (statement-level CFG + interprocedural summaries):
///  - lock-blocking: a MutexLock/WriterLock critical section must not
///    transitively reach a blocking identifier (waivable at the call or
///    the acquire line)
///  - hot-alloc [note]: per-iteration heap allocation inside a
///    request-reachable cancel-polled loop — the arena-PR inventory
///  - status-drop: a Status/Result returned through a call and bound to a
///    never-consulted local, or discarded as a bare expression statement
///  - view-return: a borrowed view escaping through a return type or into
///    a deferred lambda outside the owner layers
///  - stale-waiver [warning]: an analyze waiver that no longer suppresses
///    any finding, or one naming an unknown directive
std::vector<Finding> RunChecks(const Project& project, const Policy& policy);

}  // namespace analyze
}  // namespace dialite

#endif  // DIALITE_TOOLS_ANALYZE_CHECKS_H_
