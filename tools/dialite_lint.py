#!/usr/bin/env python3
"""dialite_lint: repo-invariant linter for the DIALITE codebase.

Enforces project rules that neither the compiler nor clang-tidy know about:

  naked-thread            Production code under src/ never spawns std::thread
                          directly; all parallelism routes through
                          common/thread_pool so shutdown, exception capture
                          and observability stay centralized. (Static queries
                          like std::thread::hardware_concurrency are fine, and
                          tests may race raw threads against the pool.)
  using-namespace-header  `using namespace` in a header leaks into every
                          includer.
  nondeterminism          rand()/srand()/std::random_device anywhere outside
                          src/common/rng would break the reproducibility
                          guarantee (indexes, sketches and generated lakes are
                          bit-identical across runs and machines).
  include-guard           Every header carries a classic #ifndef/#define/
                          #endif guard (the project does not use
                          #pragma once).
  raw-sync-primitive      Raw std synchronization types (std::mutex,
                          std::shared_mutex, std::condition_variable,
                          std::lock_guard, std::unique_lock, ...) anywhere
                          under src/ outside common/sync.h. All locking
                          goes through the annotated dialite::Mutex /
                          MutexLock wrappers so Clang Thread Safety
                          Analysis and the DIALITE_DEBUG_SYNC lock-order
                          detector see every acquire. (std::once_flag /
                          std::call_once are allowed; tests may use raw
                          primitives to race against the wrappers.)
  raw-socket              The BSD socket API (socket/bind/listen/accept/
                          recv/send and the socket headers) anywhere under
                          src/ outside src/server/net.{h,cc}. The serving
                          daemon's whole socket surface lives behind
                          TcpConn/TcpListener so handlers and the HTTP
                          parser stay testable without a network.

Usage:
  tools/dialite_lint.py [paths...]     lint files/dirs (default: src tests bench)
  tools/dialite_lint.py --jobs N       lint files on N worker processes
                                       (0 = one per CPU); default serial
  tools/dialite_lint.py --self-test    run every rule against its known-bad
                                       fixture under tools/lint_fixtures and
                                       fail unless each rule fires

A finding can be waived on its line with a trailing comment:
  std::thread t(...);  // dialite-lint: allow(naked-thread)

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "lint_fixtures")

SOURCE_EXTS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")
HEADER_EXTS = (".h", ".hh", ".hpp")

WAIVER_RE = re.compile(r"//\s*dialite-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line structure.

    Lint patterns then can't false-positive on prose like
    `// uses std::thread` while reported line numbers stay exact.
    Waiver comments are honored separately, before stripping.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path):
    try:
        return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    except ValueError:
        return path.replace(os.sep, "/")


# --- Rules -------------------------------------------------------------------

# std::thread not followed by :: (declaration/construction, not a static query).
NAKED_THREAD_RE = re.compile(r"\bstd\s*::\s*thread\b(?!\s*::)")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b", re.MULTILINE)
NONDETERMINISM_RE = re.compile(r"\b(?:s?rand\s*\(|std\s*::\s*random_device\b)")
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
# BSD socket API: the socket-header includes plus the globally-qualified
# calls (the `::` prefix keeps methods like Server::Shutdown out).
RAW_SOCKET_RE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|netinet/[\w.]+|arpa/inet\.h)>"
    r"|(?<!:)::\s*(?:socket|accept4?|bind|listen|connect|recv|recvfrom|"
    r"send|sendto|getsockname|getpeername)\s*\(")


def in_dir(relpath, prefix):
    return relpath == prefix or relpath.startswith(prefix + "/")


def basename_is(relpath, *names):
    return os.path.basename(relpath) in names


def rule_naked_thread(relpath, raw, code, findings):
    if not in_dir(relpath, "src"):
        return
    if basename_is(relpath, "thread_pool.h", "thread_pool.cc"):
        return
    # The serving daemon's accept loop must block in accept() indefinitely,
    # which would wedge a pooled worker; its NetThread wrapper is the one
    # sanctioned raw thread (see src/server/net.h).
    if relpath in ("src/server/net.h", "src/server/net.cc"):
        return
    for m in NAKED_THREAD_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            relpath, line, "naked-thread",
            "spawn work through common/thread_pool, not raw std::thread"))


def rule_using_namespace_header(relpath, raw, code, findings):
    if not relpath.endswith(HEADER_EXTS):
        return
    for m in USING_NAMESPACE_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            relpath, line, "using-namespace-header",
            "`using namespace` in a header leaks into every includer"))


def rule_nondeterminism(relpath, raw, code, findings):
    if basename_is(relpath, "rng.h", "rng.cc") and in_dir(relpath, "src/common"):
        return
    for m in NONDETERMINISM_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            relpath, line, "nondeterminism",
            "unseeded randomness breaks reproducible indexes/sketches; "
            "use common/rng (seedable, deterministic)"))


def rule_raw_sync_primitive(relpath, raw, code, findings):
    if not in_dir(relpath, "src"):
        return
    # The wrappers themselves live in common/sync.h and legitimately wrap
    # the std primitives (the deadlock detector's own graph lock included —
    # routing it through dialite::Mutex would recurse into the detector).
    if relpath == "src/common/sync.h":
        return
    for m in RAW_SYNC_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            relpath, line, "raw-sync-primitive",
            f"std::{m.group(1)} bypasses thread-safety annotations and the "
            f"lock-order detector; use dialite::Mutex / MutexLock / CondVar "
            f"from common/sync.h"))


def rule_raw_socket(relpath, raw, code, findings):
    if not in_dir(relpath, "src"):
        return
    # The serving system's entire socket surface is src/server/net.{h,cc};
    # everything else speaks TcpConn/TcpListener so protocol and handler
    # code stays testable without the socket API.
    if relpath in ("src/server/net.h", "src/server/net.cc"):
        return
    for m in RAW_SOCKET_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            relpath, line, "raw-socket",
            "raw BSD sockets are confined to src/server/net.{h,cc}; use "
            "TcpConn / TcpListener from server/net.h"))


GUARD_IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.MULTILINE)
GUARD_DEFINE_RE = re.compile(r"^\s*#\s*define\s+(\w+)", re.MULTILINE)
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)


def rule_include_guard(relpath, raw, code, findings):
    if not relpath.endswith(HEADER_EXTS):
        return
    if PRAGMA_ONCE_RE.search(code):
        findings.append(Finding(
            relpath, 1, "include-guard",
            "project uses #ifndef guards, not #pragma once"))
        return
    ifndef = GUARD_IFNDEF_RE.search(code)
    define = GUARD_DEFINE_RE.search(code)
    if not ifndef or not define or ifndef.group(1) != define.group(1):
        findings.append(Finding(
            relpath, 1, "include-guard",
            "missing or mismatched #ifndef/#define include guard"))
        return
    if "#endif" not in code[define.end():]:
        findings.append(Finding(
            relpath, 1, "include-guard",
            "include guard is never closed with #endif"))


RULES = {
    "naked-thread": rule_naked_thread,
    "using-namespace-header": rule_using_namespace_header,
    "nondeterminism": rule_nondeterminism,
    "include-guard": rule_include_guard,
    "raw-sync-primitive": rule_raw_sync_primitive,
    "raw-socket": rule_raw_socket,
}


# --- Driver ------------------------------------------------------------------

def waived_lines(raw):
    """Maps line number -> set of waived rule names."""
    waivers = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = WAIVER_RE.search(line)
        if m:
            waivers[lineno] = {r.strip() for r in m.group(1).split(",")}
    return waivers


def lint_file(path):
    relpath = rel(path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(relpath, 0, "io", f"cannot read file: {e}")]
    code = strip_comments_and_strings(raw)
    findings = []
    for run in RULES.values():
        run(relpath, raw, code, findings)
    waivers = waived_lines(raw)
    return [f for f in findings
            if f.rule not in waivers.get(f.line, set())]


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(SOURCE_EXTS):
                files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if not d.startswith("."))
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            print(f"dialite_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def self_test():
    """Every rule must fire on its known-bad fixture, and only there."""
    if not os.path.isdir(FIXTURE_DIR):
        print(f"dialite_lint: fixture dir missing: {FIXTURE_DIR}",
              file=sys.stderr)
        return 2
    # fixture file name (sans extension) -> rule expected to fire
    expected = {
        "bad_naked_thread": "naked-thread",
        "bad_using_namespace": "using-namespace-header",
        "bad_nondeterminism": "nondeterminism",
        "bad_include_guard": "include-guard",
        "bad_pragma_once": "include-guard",
        "bad_raw_mutex": "raw-sync-primitive",
        "bad_raw_socket": "raw-socket",
    }
    failures = []
    seen = set()
    for name in sorted(os.listdir(FIXTURE_DIR)):
        stem = os.path.splitext(name)[0]
        if stem not in expected:
            continue
        seen.add(stem)
        path = os.path.join(FIXTURE_DIR, name)
        rule = expected[stem]
        # Fixtures simulate src/ files: rules scoped to src/ must still fire,
        # so lint them under a pretended src/-relative path.
        findings = lint_fixture_as_src(path)
        fired = {f.rule for f in findings}
        if rule not in fired:
            failures.append(f"{name}: expected rule '{rule}' to fire, "
                            f"got {sorted(fired) or 'nothing'}")
        # The waived twin of each fixture must stay silent for the rule.
    for stem in expected:
        if stem not in seen:
            failures.append(f"missing fixture: {stem}.*")
    # A known-good fixture must produce no findings at all.
    good = os.path.join(FIXTURE_DIR, "good_clean.cc")
    if os.path.exists(good):
        findings = lint_fixture_as_src(good)
        if findings:
            failures.append(
                "good_clean.cc should be clean but got: "
                + "; ".join(str(f) for f in findings))
    else:
        failures.append("missing fixture: good_clean.cc")
    # Waiver mechanism: a waived violation must not be reported.
    waived = os.path.join(FIXTURE_DIR, "good_waived.cc")
    if os.path.exists(waived):
        findings = lint_fixture_as_src(waived)
        if findings:
            failures.append(
                "good_waived.cc waives its violation but got: "
                + "; ".join(str(f) for f in findings))
    else:
        failures.append("missing fixture: good_waived.cc")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: all {len(expected)} bad fixtures fire, "
          "clean + waived fixtures stay silent")
    return 0


def lint_fixture_as_src(path):
    """Lints a fixture as if it lived under src/lint_fixture/."""
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read()
    relpath = "src/lint_fixture/" + os.path.basename(path)
    code = strip_comments_and_strings(raw)
    findings = []
    for run in RULES.values():
        run(relpath, raw, code, findings)
    waivers = waived_lines(raw)
    return [f for f in findings
            if f.rule not in waivers.get(f.line, set())]


def lint_files(files, jobs):
    """Lints `files`, fanning out to `jobs` worker processes when jobs != 1.

    Results come back in input order either way, so parallel runs print
    byte-identical reports. The pool only pays off on big trees; --jobs is
    opt-in and serial stays the default.
    """
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(files) <= 1:
        return [f for path in files for f in lint_file(path)]
    import concurrent.futures
    findings = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for per_file in pool.map(lint_file, files, chunksize=8):
            findings.extend(per_file)
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule fires on its bad fixture")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint on N worker processes (0 = one per CPU; "
                             "default: serial)")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if args.jobs < 0:
        print("dialite_lint: --jobs must be >= 0", file=sys.stderr)
        sys.exit(2)

    paths = args.paths or [os.path.join(REPO_ROOT, d)
                           for d in ("src", "tests", "bench")]
    start = time.monotonic()
    files = collect_files(paths)
    findings = lint_files(files, args.jobs)
    seconds = time.monotonic() - start
    for f in findings:
        print(f)
    if findings:
        print(f"dialite_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s) ({seconds:.2f}s)", file=sys.stderr)
        sys.exit(1)
    print(f"dialite_lint: {len(files)} file(s) clean ({seconds:.2f}s)")


if __name__ == "__main__":
    main()
