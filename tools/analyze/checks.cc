#include "analyze/checks.h"

#include <algorithm>

namespace dialite {
namespace analyze {

namespace {

using Kind = Token::Kind;

/// True if any token in [begin, end) is an identifier from `names`
/// immediately followed by '('.
bool CallsAnyOf(const std::vector<Token>& ts, size_t begin, size_t end,
                const std::unordered_set<std::string>& names) {
  for (size_t i = begin; i + 1 < end && i + 1 < ts.size(); ++i) {
    if (ts[i].kind != Kind::kIdent) continue;
    if (!names.count(ts[i].text)) continue;
    if (ts[i + 1].kind == Kind::kPunct && ts[i + 1].text == "(") return true;
  }
  return false;
}

void CheckCancellation(const Project& project, const Policy& policy,
                       const CallGraph& graph,
                       const std::vector<size_t>& reachable,
                       std::vector<Finding>* out) {
  for (size_t id : reachable) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("no-cancel", pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);
    for (const Loop& loop : fn.loops) {
      if (!CallsAnyOf(pf.lex.tokens, loop.body_begin, loop.body_end,
                      policy.hot)) {
        continue;
      }
      if (CallsAnyOf(pf.lex.tokens, loop.body_begin, loop.body_end,
                     policy.cancel_polls)) {
        continue;
      }
      if (HasWaiver(pf.lex, "no-cancel", loop.line)) continue;
      out->push_back(
          {pf.lex.path, loop.line, "no-cancel",
           "loop in request-reachable '" + fn.qual_name +
               "' calls a scoring/merge helper without polling its "
               "CancelToken; poll or waive with // analyze: no-cancel(why)"});
    }
  }
  (void)graph;
}

void CheckBlocking(const Project& project, const Policy& policy,
                   const std::vector<size_t>& reachable,
                   std::vector<Finding>* out) {
  for (size_t id : reachable) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("blocking", pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);
    const std::vector<Token>& ts = pf.lex.tokens;
    for (size_t i = fn.body_begin; i < fn.body_end && i < ts.size(); ++i) {
      if (ts[i].kind != Kind::kIdent) continue;
      if (!policy.blocking.count(ts[i].text)) continue;
      if (HasWaiver(pf.lex, "allow-blocking", ts[i].line)) continue;
      out->push_back(
          {pf.lex.path, ts[i].line, "blocking",
           "'" + ts[i].text + "' in request-reachable '" + fn.qual_name +
               "' can block the serving thread; move it off the request "
               "path or waive with // analyze: allow-blocking(why)"});
    }
  }
}

bool TypeHasToken(const Member& m,
                  const std::unordered_set<std::string>& names) {
  for (const std::string& t : m.type_tokens) {
    if (names.count(t)) return true;
  }
  return false;
}

bool TypeHasPointer(const Member& m) {
  return std::find(m.type_tokens.begin(), m.type_tokens.end(), "*") !=
         m.type_tokens.end();
}

void CheckGuardedFields(const Project& project, const Policy& policy,
                        std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("no-guard", pf.lex.path)) continue;
    for (const ClassInfo& cls : pf.classes) {
      bool owns_lock = false;
      for (const Member& m : cls.members) {
        if (TypeHasToken(m, policy.mutex_types) && !TypeHasPointer(m) &&
            !m.is_reference) {
          owns_lock = true;
          break;
        }
      }
      if (!owns_lock) continue;
      for (const Member& m : cls.members) {
        if (m.guarded || m.is_static || m.is_const || m.is_reference) continue;
        if (TypeHasToken(m, policy.mutex_types)) continue;
        if (TypeHasToken(m, policy.guard_exempt_types)) continue;
        if (HasWaiver(pf.lex, "no-guard", m.line)) continue;
        out->push_back(
            {pf.lex.path, m.line, "no-guard",
             "mutable member '" + m.name + "' of lock-owning class '" +
                 cls.qual_name +
                 "' has no GUARDED_BY annotation; annotate or waive with "
                 "// analyze: no-guard(why)"});
      }
    }
  }
}

void CheckViewEscapes(const Project& project, const Policy& policy,
                      std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("view-escape", pf.lex.path)) continue;
    if (policy.ViewAllowed(pf.lex.path)) continue;
    for (const ClassInfo& cls : pf.classes) {
      for (const Member& m : cls.members) {
        if (!TypeHasToken(m, policy.view_types)) continue;
        if (HasWaiver(pf.lex, "allow-view", m.line)) continue;
        out->push_back(
            {pf.lex.path, m.line, "view-escape",
             "member '" + m.name + "' of '" + cls.qual_name +
                 "' stores a borrowed view type; views must stay "
                 "parameters/locals so they cannot outlive their snapshot "
                 "anchor (waive with // analyze: allow-view(why))"});
      }
    }
  }
}

/// The file's token stream, then each #define body: the repo rules scan
/// what a macro expands to as well as the code that uses it.
std::vector<const std::vector<Token>*> TokenStreams(const LexedFile& lex) {
  std::vector<const std::vector<Token>*> streams = {&lex.tokens};
  for (const Directive& d : lex.directives) {
    if (!d.body.empty()) streams.push_back(&d.body);
  }
  return streams;
}

/// True if ts[i], ts[i+1], ts[i+2] spell `std :: <name>` for a `name` in
/// `names`.
bool IsStdName(const std::vector<Token>& ts, size_t i,
               const std::unordered_set<std::string>& names) {
  return i + 2 < ts.size() && ts[i].kind == Kind::kIdent &&
         ts[i].text == "std" && ts[i + 1].kind == Kind::kPunct &&
         ts[i + 1].text == "::" && ts[i + 2].kind == Kind::kIdent &&
         names.count(ts[i + 2].text) != 0;
}

bool IsHeader(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".h" || ext == ".hpp";
}

/// naked-thread: `std::thread` appearing as a type use (not
/// `std::thread::id` etc.); threads come from ThreadPool or NetThread.
void CheckNakedThread(const Project& project, const Policy& policy,
                      std::vector<Finding>* out) {
  static const std::unordered_set<std::string> kThread = {"thread"};
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("naked-thread", pf.lex.path)) continue;
    for (const std::vector<Token>* ts : TokenStreams(pf.lex)) {
      for (size_t i = 0; i < ts->size(); ++i) {
        if (!IsStdName(*ts, i, kThread)) continue;
        // std::thread::id and friends are fine — only the owning type is
        // the rule's target.
        if (i + 3 < ts->size() && (*ts)[i + 3].kind == Kind::kPunct &&
            (*ts)[i + 3].text == "::") {
          continue;
        }
        const int line = (*ts)[i].line;
        if (HasWaiver(pf.lex, "allow-thread", line)) continue;
        out->push_back(
            {pf.lex.path, line, "naked-thread",
             "raw std::thread; use dialite::ThreadPool or NetThread "
             "(waive with // analyze: allow-thread(why))"});
      }
    }
  }
}

/// raw-socket: global-namespace socket syscalls and the socket headers;
/// the serving system's socket surface is TcpConn / TcpListener.
void CheckRawSocket(const Project& project, const Policy& policy,
                    std::vector<Finding>* out) {
  static const std::unordered_set<std::string> kSocketFns = {
      "socket",      "accept",      "accept4",     "bind",
      "listen",      "connect",     "recv",        "recvfrom",
      "send",        "sendto",      "setsockopt",  "getsockopt",
      "getsockname", "getpeername", "shutdown",    "getaddrinfo",
      "freeaddrinfo"};
  static const std::vector<std::string> kSocketHeaders = {
      "sys/socket.h", "netinet/", "arpa/inet.h", "netdb.h"};
  static const std::unordered_set<std::string> kKeywordsBeforeGlobal = {
      "return", "co_return", "co_await", "co_yield", "throw", "case",
      "else",   "do",        "and",      "or",       "not"};
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("raw-socket", pf.lex.path)) continue;
    for (const Include& inc : pf.lex.includes) {
      bool hit = false;
      for (const std::string& h : kSocketHeaders) {
        if (inc.path.compare(0, h.size(), h) == 0) hit = true;
      }
      if (!hit) continue;
      if (HasWaiver(pf.lex, "allow-socket", inc.line)) continue;
      out->push_back({pf.lex.path, inc.line, "raw-socket",
                      "socket header <" + inc.path +
                          "> outside the net frame layer (waive with "
                          "// analyze: allow-socket(why))"});
    }
    for (const std::vector<Token>* stream : TokenStreams(pf.lex)) {
      const std::vector<Token>& ts = *stream;
      for (size_t i = 0; i + 2 < ts.size(); ++i) {
        if (!(ts[i].kind == Kind::kPunct && ts[i].text == "::")) continue;
        // Global-namespace qualifier: no class or namespace name before
        // it. A keyword (`return ::send(...)`) or a cast
        // (`(void)::send(...)`) leaves the call global; a template-id
        // (`Conn<T>::send`) does not.
        if (i > 0 && ((ts[i - 1].kind == Kind::kIdent &&
                       !kKeywordsBeforeGlobal.count(ts[i - 1].text)) ||
                      (ts[i - 1].kind == Kind::kPunct &&
                       ts[i - 1].text == ">"))) {
          continue;
        }
        if (ts[i + 1].kind != Kind::kIdent ||
            !kSocketFns.count(ts[i + 1].text)) {
          continue;
        }
        if (!(ts[i + 2].kind == Kind::kPunct && ts[i + 2].text == "(")) {
          continue;
        }
        const int line = ts[i].line;
        if (HasWaiver(pf.lex, "allow-socket", line)) continue;
        out->push_back({pf.lex.path, line, "raw-socket",
                        "raw ::" + ts[i + 1].text +
                            "() outside the net frame layer (waive with "
                            "// analyze: allow-socket(why))"});
      }
    }
  }
}

/// raw-sync-primitive: every lock goes through common/sync.h's annotated
/// Mutex / MutexLock / CondVar so Clang Thread Safety Analysis and the
/// lock-order detector see every acquire. std::once_flag / std::call_once
/// stay allowed.
void CheckRawSyncPrimitive(const Project& project, const Policy& policy,
                           std::vector<Finding>* out) {
  static const std::unordered_set<std::string> kRaw = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "recursive_timed_mutex", "shared_timed_mutex",
      "lock_guard",  "unique_lock",        "scoped_lock",
      "shared_lock", "condition_variable", "condition_variable_any"};
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("raw-sync-primitive", pf.lex.path)) continue;
    for (const std::vector<Token>* ts : TokenStreams(pf.lex)) {
      for (size_t i = 0; i < ts->size(); ++i) {
        if (!IsStdName(*ts, i, kRaw)) continue;
        out->push_back({pf.lex.path, (*ts)[i].line, "raw-sync-primitive",
                        "std::" + (*ts)[i + 2].text +
                            " bypasses thread-safety annotations and the "
                            "lock-order detector; use dialite::Mutex / "
                            "MutexLock / CondVar from common/sync.h"});
      }
    }
  }
}

/// nondeterminism: rand(), srand() and std::random_device break the
/// reproducibility everything downstream pins (seeded lakes, sketches and
/// indexes bit-identical across runs); only common/rng may touch them.
void CheckNondeterminism(const Project& project, const Policy& policy,
                         std::vector<Finding>* out) {
  static const std::unordered_set<std::string> kDevice = {"random_device"};
  for (const ParsedFile& pf : project.files) {
    if (policy.IsExempt("nondeterminism", pf.lex.path)) continue;
    for (const std::vector<Token>* stream : TokenStreams(pf.lex)) {
      const std::vector<Token>& ts = *stream;
      for (size_t i = 0; i < ts.size(); ++i) {
        std::string what;
        if (IsStdName(ts, i, kDevice)) {
          what = "std::random_device";
        } else if (ts[i].kind == Kind::kIdent &&
                   (ts[i].text == "rand" || ts[i].text == "srand") &&
                   i + 1 < ts.size() && ts[i + 1].kind == Kind::kPunct &&
                   ts[i + 1].text == "(") {
          what = ts[i].text + "()";
        } else {
          continue;
        }
        out->push_back({pf.lex.path, ts[i].line, "nondeterminism",
                        what + " breaks reproducible lakes, sketches and "
                               "indexes; use common/rng (seedable, "
                               "deterministic)"});
      }
    }
  }
}

/// using-namespace-header: a using-directive in a header leaks into every
/// includer.
void CheckUsingNamespaceHeader(const Project& project, const Policy& policy,
                               std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!IsHeader(pf.lex.path)) continue;
    if (policy.IsExempt("using-namespace-header", pf.lex.path)) continue;
    for (const std::vector<Token>* stream : TokenStreams(pf.lex)) {
      const std::vector<Token>& ts = *stream;
      for (size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind == Kind::kIdent && ts[i].text == "using" &&
            ts[i + 1].kind == Kind::kIdent && ts[i + 1].text == "namespace") {
          out->push_back({pf.lex.path, ts[i].line, "using-namespace-header",
                          "`using namespace` in a header leaks into every "
                          "includer"});
        }
      }
    }
  }
}

/// include-guard: every header carries a classic #ifndef X / #define X /
/// #endif guard; the project does not use #pragma once.
void CheckIncludeGuard(const Project& project, const Policy& policy,
                       std::vector<Finding>* out) {
  for (const ParsedFile& pf : project.files) {
    if (!IsHeader(pf.lex.path)) continue;
    if (policy.IsExempt("include-guard", pf.lex.path)) continue;
    // The first #ifndef and the first #define must name one macro, and an
    // #endif must follow the #define.
    const Directive* ifndef = nullptr;
    const Directive* define = nullptr;
    const Directive* pragma_once = nullptr;
    bool closed = false;
    for (const Directive& d : pf.lex.directives) {
      if (d.name == "ifndef" && ifndef == nullptr) ifndef = &d;
      if (d.name == "define" && define == nullptr) define = &d;
      if (d.name == "endif" && define != nullptr) closed = true;
      if (d.name == "pragma" && d.arg == "once" && pragma_once == nullptr) {
        pragma_once = &d;
      }
    }
    if (pragma_once != nullptr) {
      out->push_back({pf.lex.path, pragma_once->line, "include-guard",
                      "#pragma once: the project uses #ifndef/#define/"
                      "#endif guards"});
    } else if (ifndef == nullptr || define == nullptr ||
               ifndef->arg != define->arg) {
      out->push_back({pf.lex.path, 1, "include-guard",
                      "missing or mismatched #ifndef/#define include guard"});
    } else if (!closed) {
      out->push_back({pf.lex.path, define->line, "include-guard",
                      "include guard is never closed with #endif"});
    }
  }
}

// --------------------------------------------------------------------------
// Data-flow checks: statement-level CFG walks consuming the interprocedural
// summaries. All four share the walk idiom — a forward scan of the event
// stream with a scope stack — which is what makes them flow-sensitive where
// the PR-9 checks were only reachability-sensitive.
// --------------------------------------------------------------------------

/// A live RAII lock guard during the CFG walk.
struct LiveGuard {
  const CfgNode* node = nullptr;  ///< the kLockAcquire event
};

/// lock-blocking: no call made while a MutexLock/WriterLock guard is live
/// may transitively reach a blocking identifier. Flow-sensitive (the guard
/// dies at its scope close) and interprocedural (the callee's may-block
/// summary, with a witness chain in the message).
void CheckLockBlocking(const Project& project, const Policy& policy,
                       const DataFlow& flow, std::vector<Finding>* out) {
  for (size_t id = 0; id < project.fns.size(); ++id) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("lock-blocking", pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);
    std::vector<std::vector<LiveGuard>> frames(1);
    for (const CfgNode& node : flow.cfg(id).nodes) {
      switch (node.kind) {
        case CfgNode::Kind::kScopeOpen:
          frames.emplace_back();
          break;
        case CfgNode::Kind::kScopeClose:
          if (frames.size() > 1) frames.pop_back();
          break;
        case CfgNode::Kind::kLockAcquire:
          frames.back().push_back({&node});
          break;
        case CfgNode::Kind::kCall: {
          const LiveGuard* held = nullptr;
          for (const auto& frame : frames) {
            if (!frame.empty()) held = &frame.back();
          }
          if (held == nullptr) break;
          const bool direct = policy.blocking.count(node.text) != 0;
          if (!direct && !flow.NameMayBlock(node.text)) break;
          if (HasWaiver(pf.lex, "lock-blocking", node.line)) break;
          if (HasWaiver(pf.lex, "lock-blocking", held->node->line)) break;
          const std::string chain =
              direct ? node.text : flow.BlockChain(node.text);
          out->push_back(
              {pf.lex.path, node.line, "lock-blocking",
               "'" + held->node->text + " " + held->node->detail +
                   "' (line " + std::to_string(held->node->line) +
                   ") is held in '" + fn.qual_name + "' across '" +
                   node.text + "', which can block (" + chain +
                   "); shrink the critical section or waive with "
                   "// analyze: lock-blocking(why)"});
          break;
        }
        default:
          break;
      }
    }
  }
}

/// hot-alloc [note severity]: per-iteration allocation inside a
/// request-reachable loop that polls cancellation or calls a hot helper —
/// i.e. a loop already known to be on the serving hot path. This is the
/// inventory that seeds the per-query arena work (ROADMAP item 4); the
/// committed baseline pins it so NEW allocations fail the CI diff gate.
void CheckHotLoopAlloc(const Project& project, const Policy& policy,
                       const DataFlow& flow,
                       const std::vector<size_t>& reachable,
                       std::vector<Finding>* out) {
  for (size_t id : reachable) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("hot-alloc", pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);
    for (const Loop& loop : fn.loops) {
      const bool hot =
          CallsAnyOf(pf.lex.tokens, loop.body_begin, loop.body_end,
                     policy.cancel_polls) ||
          CallsAnyOf(pf.lex.tokens, loop.body_begin, loop.body_end,
                     policy.hot);
      if (!hot) continue;
      std::vector<std::string> witnesses;
      auto add = [&](const std::string& w) {
        for (const std::string& have : witnesses) {
          if (have == w) return;
        }
        witnesses.push_back(w);
      };
      for (const CfgNode& node : flow.cfg(id).nodes) {
        if (node.token < loop.body_begin || node.token >= loop.body_end) {
          continue;
        }
        if (node.kind == CfgNode::Kind::kAlloc) {
          add(node.text);
        } else if (node.kind == CfgNode::Kind::kCall &&
                   !policy.alloc_fns.count(node.text) &&
                   flow.NameMayAlloc(node.text)) {
          add(flow.AllocChain(node.text));
        }
      }
      if (witnesses.empty()) continue;
      if (HasWaiver(pf.lex, "hot-alloc", loop.line)) continue;
      std::string joined;
      const size_t shown = witnesses.size() < 6 ? witnesses.size() : 6;
      for (size_t i = 0; i < shown; ++i) {
        if (i > 0) joined += ", ";
        joined += witnesses[i];
      }
      if (witnesses.size() > shown) {
        joined += ", +" + std::to_string(witnesses.size() - shown) + " more";
      }
      out->push_back({pf.lex.path, loop.line, "hot-alloc",
                      "request-hot loop in '" + fn.qual_name +
                          "' allocates per iteration via: " + joined +
                          "; arena-allocator work-list entry (ROADMAP "
                          "item 4)",
                      Finding::Severity::kNote});
    }
  }
}

bool IsStmtBoundary(const Token& t) {
  return t.kind == Kind::kPunct &&
         (t.text == ";" || t.text == "{" || t.text == "}");
}

bool AllCapsMacroName(const std::string& s) {
  if (s.find('_') == std::string::npos) return false;
  for (char c : s) {
    if (!(c == '_' || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return true;
}

/// status-drop: a Status/Result produced by a callee and lost at the call
/// boundary. Two shapes, both invisible to class-level [[nodiscard]]:
///   (a) `auto st = Load(...); ... st never consulted again`
///   (b) `obj.Load(...);` as a bare expression statement where every
///       definition of Load in the scanned set returns a status type (the
///       aliasing case: the concrete return type is behind auto/typedef or
///       a template, so the compiler attribute never fires).
void CheckStatusDrop(const Project& project, const Policy& policy,
                     const DataFlow& flow, std::vector<Finding>* out) {
  for (size_t id = 0; id < project.fns.size(); ++id) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("status-drop", pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);
    const std::vector<Token>& ts = pf.lex.tokens;
    const size_t end = fn.body_end < ts.size() ? fn.body_end : ts.size();
    for (size_t s = fn.body_begin; s < end; ++s) {
      if (s != fn.body_begin && !IsStmtBoundary(ts[s - 1])) continue;
      const Token& t0 = ts[s];
      if (t0.kind != Kind::kIdent) continue;

      // (a) binding: [auto|Status|Result<...>] name = Outermost(...)...;
      if (policy.status_types.count(t0.text) || t0.text == "auto") {
        size_t j = s + 1;
        if (j < end && ts[j].kind == Kind::kPunct && ts[j].text == "<") {
          int depth = 0;
          while (j < end) {
            if (ts[j].kind == Kind::kPunct) {
              if (ts[j].text == "<") ++depth;
              if (ts[j].text == ">" && --depth == 0) {
                ++j;
                break;
              }
              if (ts[j].text == ";") break;
            }
            ++j;
          }
        }
        if (j + 1 < end && ts[j].kind == Kind::kIdent &&
            ts[j + 1].kind == Kind::kPunct && ts[j + 1].text == "=") {
          const std::string var = ts[j].text;
          const int var_line = ts[j].line;
          // Find the outermost call on the right-hand side.
          size_t stmt_end = j + 2;
          std::string callee;
          while (stmt_end < end && !(ts[stmt_end].kind == Kind::kPunct &&
                                     ts[stmt_end].text == ";")) {
            if (callee.empty() && ts[stmt_end].kind == Kind::kIdent &&
                stmt_end + 1 < end && ts[stmt_end + 1].text == "(") {
              callee = ts[stmt_end].text;
            }
            ++stmt_end;
          }
          const bool from_status_call =
              !callee.empty() && !AllCapsMacroName(callee) &&
              (flow.NameReturnsStatus(callee) ||
               policy.status_types.count(t0.text) != 0);
          if (from_status_call && policy.status_types.count(t0.text) == 0 &&
              !flow.NameReturnsStatus(callee)) {
            // `auto` binding from a non-status call: not ours.
          } else if (from_status_call) {
            bool consulted = false;
            for (size_t k = stmt_end + 1; k < end; ++k) {
              if (ts[k].kind == Kind::kIdent && ts[k].text == var) {
                consulted = true;
                break;
              }
            }
            if (!consulted && !HasWaiver(pf.lex, "status-drop", var_line)) {
              out->push_back(
                  {pf.lex.path, var_line, "status-drop",
                   "'" + var + "' in '" + fn.qual_name +
                       "' binds the status returned by '" + callee +
                       "' but is never consulted; handle it, propagate "
                       "with DIALITE_RETURN_IF_ERROR, or waive with "
                       "// analyze: status-drop(why)"});
            }
          }
          s = stmt_end;
          continue;
        }
      }

      // (b) bare expression statement: obj.Method(...); / Free(...);
      size_t k = s;
      while (k + 1 < end && ts[k].kind == Kind::kIdent &&
             ts[k + 1].kind == Kind::kPunct &&
             (ts[k + 1].text == "::" || ts[k + 1].text == "." ||
              ts[k + 1].text == "->")) {
        k += 2;
      }
      if (k + 1 >= end || ts[k].kind != Kind::kIdent ||
          !(ts[k + 1].kind == Kind::kPunct && ts[k + 1].text == "(")) {
        continue;
      }
      const std::string& callee = ts[k].text;
      const size_t close = SkipBalanced(ts, k + 1, '(', ')');
      if (close >= end ||
          !(ts[close].kind == Kind::kPunct && ts[close].text == ";")) {
        continue;
      }
      if (AllCapsMacroName(callee) || !flow.NameReturnsStatus(callee)) {
        continue;
      }
      if (HasWaiver(pf.lex, "status-drop", ts[k].line)) continue;
      out->push_back(
          {pf.lex.path, ts[k].line, "status-drop",
           "status returned by '" + callee + "' is discarded in '" +
               fn.qual_name +
               "'; every definition of it returns Status/Result, so the "
               "temporary vanishes unchecked (waive with "
               "// analyze: status-drop(why))"});
    }
  }
}

/// view-return: extends the member-only view-escape audit to the two other
/// ways a borrowed view can outlive its snapshot anchor — being returned
/// from a non-owner layer, or being captured into a lambda handed to a
/// deferred-execution point (policy `defer`, e.g. ThreadPool::Submit).
void CheckViewReturn(const Project& project, const Policy& policy,
                     const DataFlow& flow, std::vector<Finding>* out) {
  for (size_t id = 0; id < project.fns.size(); ++id) {
    const ParsedFile& pf = project.file_of(id);
    if (policy.IsExempt("view-return", pf.lex.path)) continue;
    if (policy.ViewAllowed(pf.lex.path)) continue;
    const FunctionInfo& fn = project.fn(id);

    for (const std::string& t : fn.ret_type) {
      if (!policy.view_types.count(t)) continue;
      if (HasWaiver(pf.lex, "view-return", fn.line)) break;
      out->push_back(
          {pf.lex.path, fn.line, "view-return",
           "'" + fn.qual_name + "' returns borrowed view type '" + t +
               "' outside the owner layers; return an owning type or waive "
               "with // analyze: view-return(why)"});
      break;
    }

    const std::vector<Token>& ts = pf.lex.tokens;
    std::vector<std::string> view_locals;
    for (const CfgNode& node : flow.cfg(id).nodes) {
      if (node.kind == CfgNode::Kind::kViewDecl) {
        view_locals.push_back(node.detail);
        continue;
      }
      if (node.kind != CfgNode::Kind::kCall ||
          !policy.defer.count(node.text)) {
        continue;
      }
      // Scan the deferred call's argument range: any mention of a view
      // type or a view-typed local means the task borrows snapshot state
      // whose anchor it does not pin.
      const size_t open = node.token + 1;
      const size_t close = SkipBalanced(ts, open, '(', ')');
      std::string witness;
      for (size_t i = open; i + 1 < close; ++i) {
        if (ts[i].kind != Kind::kIdent) continue;
        if (policy.view_types.count(ts[i].text)) {
          witness = ts[i].text;
          break;
        }
        for (const std::string& local : view_locals) {
          if (ts[i].text == local) {
            witness = local;
            break;
          }
        }
        if (!witness.empty()) break;
      }
      if (witness.empty()) continue;
      if (HasWaiver(pf.lex, "view-return", node.line)) continue;
      out->push_back(
          {pf.lex.path, node.line, "view-return",
           "deferred task passed to '" + node.text + "' in '" +
               fn.qual_name + "' captures borrowed view '" + witness +
               "'; the task can outlive the snapshot anchor (copy the "
               "data or pin the epoch; waive with "
               "// analyze: view-return(why))"});
    }
  }
}

/// stale-waiver [warning]: every analyze waiver must either suppress a
/// finding this run or be removed — waivers age out instead of rotting.
void CheckStaleWaivers(const Project& project, std::vector<Finding>* out) {
  static const std::unordered_set<std::string> kKnown = {
      "no-cancel",   "allow-blocking", "no-guard",    "allow-view",
      "allow-thread", "allow-socket",  "lock-blocking", "hot-alloc",
      "status-drop", "view-return"};
  for (const ParsedFile& pf : project.files) {
    for (const Waiver& w : pf.lex.waivers) {
      if (!kKnown.count(w.directive)) {
        out->push_back({pf.lex.path, w.line, "stale-waiver",
                        "waiver names unknown directive '" + w.directive +
                            "'; it suppresses nothing",
                        Finding::Severity::kWarning});
        continue;
      }
      if (w.used) continue;
      out->push_back({pf.lex.path, w.line, "stale-waiver",
                      "waiver '" + w.directive + "(" + w.detail +
                          ")' no longer suppresses any finding; remove it",
                      Finding::Severity::kWarning});
    }
  }
}

void CheckIncludeCycles(const Project& project, std::vector<Finding>* out) {
  IncludeGraph graph(project);
  std::vector<std::string> cycle = graph.FindCycle();
  if (cycle.empty()) return;
  std::string msg = "include cycle: ";
  for (size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) msg += " -> ";
    msg += cycle[i];
  }
  out->push_back({cycle.front(), 1, "include-cycle", msg});
}

}  // namespace

const char* SeverityName(Finding::Severity severity) {
  switch (severity) {
    case Finding::Severity::kError:
      return "error";
    case Finding::Severity::kWarning:
      return "warning";
    case Finding::Severity::kNote:
      return "note";
  }
  return "error";
}

std::vector<Finding> RunChecks(const Project& project, const Policy& policy) {
  std::vector<Finding> out;
  CallGraph graph(project);
  const std::vector<size_t> reachable =
      graph.Reachable(policy.seeds, policy.stops);
  DataFlow flow(project, graph, policy);
  CheckCancellation(project, policy, graph, reachable, &out);
  CheckBlocking(project, policy, reachable, &out);
  CheckGuardedFields(project, policy, &out);
  CheckViewEscapes(project, policy, &out);
  CheckNakedThread(project, policy, &out);
  CheckRawSocket(project, policy, &out);
  CheckRawSyncPrimitive(project, policy, &out);
  CheckNondeterminism(project, policy, &out);
  CheckUsingNamespaceHeader(project, policy, &out);
  CheckIncludeGuard(project, policy, &out);
  CheckIncludeCycles(project, &out);
  CheckLockBlocking(project, policy, flow, &out);
  CheckHotLoopAlloc(project, policy, flow, reachable, &out);
  CheckStatusDrop(project, policy, flow, &out);
  CheckViewReturn(project, policy, flow, &out);
  // The stale-waiver pass must run LAST: it reads the `used` marks the
  // other checks leave on waivers they consult.
  CheckStaleWaivers(project, &out);
  if (!flow.converged()) {
    out.push_back({"<dataflow>", 0, "fixpoint",
                   "interprocedural fixpoint hit the pass bound (" +
                       std::to_string(DataFlow::kMaxFixpointPasses) +
                       "); summaries may under-approximate",
                   Finding::Severity::kWarning});
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.check != b.check) return a.check < b.check;
    return a.message < b.message;
  });
  return out;
}

}  // namespace analyze
}  // namespace dialite
