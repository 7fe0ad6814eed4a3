// dialite_analyze — semantic static analysis proving the serving-path
// invariants and the repo rules over src/, tools/ and bench/, and (as a
// second run) tests/ (see DESIGN.md "Static analysis & correctness
// tooling" and "Data-flow engine"):
//
//   dialite_analyze src/ tools/ bench/        # human-readable findings
//   dialite_analyze --json src/               # machine-readable
//   dialite_analyze --jobs 8 src/             # parallel file scanning
//   dialite_analyze --sarif out.sarif src/    # SARIF 2.1.0 artifact
//   dialite_analyze --baseline B.json src/    # fail only on NEW findings
//   dialite_analyze --write-baseline B.json src/   # (re)record baseline
//   dialite_analyze --self-test               # fixtures must fire exactly
//
// Exit codes: 0 clean, 1 findings (errors, or any fresh non-warning
// finding under --baseline), 2 usage/IO error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/checks.h"
#include "analyze/report.h"
#include "common/thread_pool.h"

namespace dialite {
namespace analyze {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool CollectFiles(const std::string& root, std::vector<std::string>* out,
                  std::string* error) {
  std::error_code ec;
  fs::file_status st = fs::status(root, ec);
  if (ec) {
    *error = root + ": " + ec.message();
    return false;
  }
  if (fs::is_regular_file(st)) {
    out->push_back(root);
    return true;
  }
  if (!fs::is_directory(st)) {
    *error = root + ": not a file or directory";
    return false;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      *error = root + ": " + ec.message();
      return false;
    }
    const fs::path& p = it->path();
    const std::string name = p.filename().string();
    // Fixture trees contain deliberately-bad code; scanning them as part of
    // the real tree would re-report every planted finding.
    if (it->is_directory() && (name == ".git" || name.rfind("build", 0) == 0 ||
                               name == "fixtures")) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && HasSourceExtension(p)) {
      out->push_back(p.generic_string());
    }
  }
  std::sort(out->begin(), out->end());
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// Parses every (display name, read path) pair, using `jobs` worker
/// threads (0 = hardware concurrency, 1 = inline). Results land in input
/// order regardless of completion order, so output is deterministic under
/// any --jobs value.
bool ParseAll(const std::vector<std::pair<std::string, std::string>>& names,
              int jobs, std::vector<ParsedFile>* parsed, std::string* error) {
  parsed->resize(names.size());
  if (jobs == 1 || names.size() <= 1) {
    for (size_t i = 0; i < names.size(); ++i) {
      std::string source;
      if (!ReadFile(names[i].second, &source)) {
        *error = "cannot read " + names[i].second;
        return false;
      }
      (*parsed)[i] = Parse(Lex(names[i].first, source));
    }
    return true;
  }
  ThreadPool pool(jobs < 0 ? 0 : static_cast<size_t>(jobs));
  std::atomic<size_t> failed{names.size()};  // sentinel: no failure
  pool.ParallelFor(names.size(), [&](size_t i) {
    std::string source;
    if (!ReadFile(names[i].second, &source)) {
      size_t expect = names.size();
      failed.compare_exchange_strong(expect, i);
      return;
    }
    (*parsed)[i] = Parse(Lex(names[i].first, source));
  });
  if (failed.load() != names.size()) {
    *error = "cannot read " + names[failed.load()].second;
    return false;
  }
  return true;
}

/// Finds tools/analyze/policy.txt by walking up from `start` — lets
/// `dialite_analyze src/` work from the repo root or any subdirectory.
std::string FindDefaultPolicy(const std::string& start) {
  std::error_code ec;
  fs::path dir = fs::absolute(start, ec);
  if (ec) return "";
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  for (; !dir.empty(); dir = dir.parent_path()) {
    fs::path cand = dir / "tools" / "analyze" / "policy.txt";
    if (fs::exists(cand, ec)) return cand.generic_string();
    if (dir == dir.root_path()) break;
  }
  return "";
}

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default: *out += c;
    }
  }
}

void PrintFindings(const std::vector<Finding>& findings, size_t files_scanned,
                   double seconds, bool json) {
  if (json) {
    std::string out = "{\"findings\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      if (i > 0) out += ",";
      out += "{\"file\":\"";
      AppendJsonEscaped(&out, f.file);
      out += "\",\"line\":" + std::to_string(f.line) + ",\"check\":\"";
      AppendJsonEscaped(&out, f.check);
      out += "\",\"severity\":\"";
      out += SeverityName(f.severity);
      out += "\",\"message\":\"";
      AppendJsonEscaped(&out, f.message);
      out += "\"}";
    }
    out += "],\"files_scanned\":" + std::to_string(files_scanned) +
           ",\"seconds\":" + std::to_string(seconds) + "}";
    std::printf("%s\n", out.c_str());
    return;
  }
  for (const Finding& f : findings) {
    std::printf("%s:%d: %s: [%s] %s\n", f.file.c_str(), f.line,
                SeverityName(f.severity), f.check.c_str(), f.message.c_str());
  }
  std::printf("dialite_analyze: %zu finding%s in %zu files (%.2fs)\n",
              findings.size(), findings.size() == 1 ? "" : "s", files_scanned,
              seconds);
}

struct Options {
  std::vector<std::string> roots;
  std::string policy_path;
  std::string fixtures_dir;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  int jobs = 1;
  bool json = false;
  bool self_test = false;
};

int Analyze(const Options& opt) {
  const auto start = std::chrono::steady_clock::now();
  Policy policy;
  std::string error;
  if (!LoadPolicy(opt.policy_path, &policy, &error)) {
    std::fprintf(stderr, "dialite_analyze: %s\n", error.c_str());
    return 2;
  }
  std::vector<std::string> paths;
  for (const std::string& root : opt.roots) {
    if (!CollectFiles(root, &paths, &error)) {
      std::fprintf(stderr, "dialite_analyze: %s\n", error.c_str());
      return 2;
    }
  }
  // Canonicalize to repo-relative display paths (the policy file sits at
  // <repo>/tools/analyze/policy.txt) so findings, policy exemptions, and
  // baseline keys are identical no matter where the tool is invoked from.
  // Reads still use the as-collected path; only the recorded name changes.
  std::vector<std::pair<std::string, std::string>> names;  // display, read
  {
    std::error_code ec;
    const fs::path repo_root =
        fs::absolute(opt.policy_path, ec).parent_path().parent_path()
            .parent_path();
    for (const std::string& p : paths) {
      std::string display = p;
      if (!ec) {
        std::error_code rec;
        const fs::path rel = fs::proximate(p, repo_root, rec);
        if (!rec && !rel.empty() && *rel.begin() != "..") {
          display = rel.generic_string();
        }
      }
      names.emplace_back(std::move(display), p);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
  }
  std::vector<ParsedFile> parsed;
  if (!ParseAll(names, opt.jobs, &parsed, &error)) {
    std::fprintf(stderr, "dialite_analyze: %s\n", error.c_str());
    return 2;
  }
  Project project = Project::Build(std::move(parsed));
  std::vector<Finding> findings = RunChecks(project, policy);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintFindings(findings, names.size(), seconds, opt.json);

  if (!opt.sarif_path.empty() &&
      !WriteFile(opt.sarif_path, FindingsToSarif(findings))) {
    std::fprintf(stderr, "dialite_analyze: cannot write %s\n",
                 opt.sarif_path.c_str());
    return 2;
  }
  if (!opt.write_baseline_path.empty()) {
    if (!WriteFile(opt.write_baseline_path, FindingsToBaseline(findings))) {
      std::fprintf(stderr, "dialite_analyze: cannot write %s\n",
                   opt.write_baseline_path.c_str());
      return 2;
    }
    std::printf("dialite_analyze: wrote baseline with %zu entries to %s\n",
                findings.size(), opt.write_baseline_path.c_str());
  }

  if (!opt.baseline_path.empty()) {
    std::string text;
    if (!ReadFile(opt.baseline_path, &text)) {
      std::fprintf(stderr, "dialite_analyze: cannot read baseline %s\n",
                   opt.baseline_path.c_str());
      return 2;
    }
    std::vector<BaselineEntry> baseline;
    if (!LoadBaseline(text, &baseline, &error)) {
      std::fprintf(stderr, "dialite_analyze: %s: %s\n",
                   opt.baseline_path.c_str(), error.c_str());
      return 2;
    }
    BaselineDiff diff = DiffBaseline(findings, baseline);
    for (const BaselineEntry& e : diff.stale) {
      std::printf(
          "dialite_analyze: stale baseline entry (no longer fires): "
          "%s [%s] — re-record with --write-baseline\n",
          e.file.c_str(), e.check.c_str());
    }
    size_t gating = 0;
    for (const Finding& f : diff.fresh) {
      if (f.severity != Finding::Severity::kWarning) ++gating;
    }
    std::printf(
        "dialite_analyze: baseline diff: %zu fresh (%zu gating), %zu stale, "
        "%zu total findings\n",
        diff.fresh.size(), gating, diff.stale.size(), findings.size());
    return gating == 0 ? 0 : 1;
  }

  for (const Finding& f : findings) {
    if (f.severity == Finding::Severity::kError) return 1;
  }
  return 0;
}

/// --self-test: every bad fixture must fire exactly its own check, every
/// good fixture must be silent, and the malformed-policy fixture must be
/// rejected with a file:line diagnostic.
int SelfTest(const std::string& fixtures_dir, bool json) {
  static const std::map<std::string, std::string> kExpected = {
      {"bad_cancel.cc", "no-cancel"},
      {"bad_blocking.cc", "blocking"},
      {"bad_guarded.cc", "no-guard"},
      {"bad_view.cc", "view-escape"},
      {"bad_naked_thread.cc", "naked-thread"},
      {"bad_raw_socket.cc", "raw-socket"},
      {"bad_raw_sync_primitive.cc", "raw-sync-primitive"},
      {"bad_nondeterminism.cc", "nondeterminism"},
      {"bad_nondeterminism_macro.cc", "nondeterminism"},
      {"bad_using_namespace.h", "using-namespace-header"},
      {"bad_include_guard.h", "include-guard"},
      {"bad_include_guard_mismatch.h", "include-guard"},
      {"bad_pragma_once.h", "include-guard"},
      {"bad_lock_blocking.cc", "lock-blocking"},
      {"bad_hot_alloc.cc", "hot-alloc"},
      {"bad_status_drop.cc", "status-drop"},
      {"bad_view_return.cc", "view-return"},
  };
  const std::string policy_path =
      (fs::path(fixtures_dir) / "policy.txt").generic_string();
  Policy policy;
  std::string error;
  if (!LoadPolicy(policy_path, &policy, &error)) {
    std::fprintf(stderr, "dialite_analyze --self-test: %s\n", error.c_str());
    return 2;
  }

  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "SELF-TEST FAIL: %s\n", msg.c_str());
    ++failures;
  };

  // Malformed-policy fixture: loading must fail and the diagnostic must
  // carry file:line plus the offending directive text.
  {
    const std::string bad_policy =
        (fs::path(fixtures_dir) / "bad_policy.txt").generic_string();
    Policy ignored;
    std::string perr;
    if (LoadPolicy(bad_policy, &ignored, &perr)) {
      fail("bad_policy.txt: malformed policy loaded without error");
    } else if (perr.find("bad_policy.txt:") == std::string::npos) {
      fail("bad_policy.txt: diagnostic lacks file:line — got '" + perr + "'");
    }
  }

  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::directory_iterator it(fixtures_dir, ec), end; it != end;
       it.increment(ec)) {
    if (!ec && it->is_regular_file() && HasSourceExtension(it->path())) {
      paths.push_back(it->path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ParsedFile> parsed;
  for (const std::string& path : paths) {
    std::string source;
    if (!ReadFile(path, &source)) {
      std::fprintf(stderr, "dialite_analyze --self-test: cannot read %s\n",
                   path.c_str());
      return 2;
    }
    parsed.push_back(Parse(Lex(path, source)));
  }
  Project project = Project::Build(std::move(parsed));
  std::vector<Finding> findings = RunChecks(project, policy);

  // Findings per fixture basename.
  std::map<std::string, std::vector<const Finding*>> by_file;
  for (const Finding& f : findings) {
    by_file[fs::path(f.file).filename().string()].push_back(&f);
  }
  for (const auto& [file, check] : kExpected) {
    bool fixture_present = false;
    for (const std::string& p : paths) {
      if (fs::path(p).filename() == file) fixture_present = true;
    }
    if (!fixture_present) {
      fail("missing fixture " + file);
      continue;
    }
    const auto it = by_file.find(file);
    if (it == by_file.end()) {
      fail(file + ": expected a '" + check + "' finding, got none");
      continue;
    }
    bool fired = false;
    for (const Finding* f : it->second) {
      if (f->check == check) {
        fired = true;
      } else {
        fail(file + ": unexpected '" + f->check + "' finding at line " +
             std::to_string(f->line));
      }
    }
    if (!fired) fail(file + ": expected a '" + check + "' finding");
  }
  for (const auto& [file, fs_list] : by_file) {
    if (file.rfind("good_", 0) == 0) {
      for (const Finding* f : fs_list) {
        fail(file + ": good fixture tripped '" + f->check + "' at line " +
             std::to_string(f->line));
      }
    }
  }
  if (json) {
    std::printf("{\"self_test_failures\":%d}\n", failures);
  } else if (failures == 0) {
    std::printf("dialite_analyze --self-test: all %zu fixtures behave\n",
                paths.size());
  }
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto need = [&](const char* flag) -> const char* {
      const char* v = next();
      if (v == nullptr) std::fprintf(stderr, "%s needs an argument\n", flag);
      return v;
    };
    if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else if (arg == "--policy") {
      const char* v = need("--policy");
      if (v == nullptr) return 2;
      opt.policy_path = v;
    } else if (arg == "--fixtures") {
      const char* v = need("--fixtures");
      if (v == nullptr) return 2;
      opt.fixtures_dir = v;
    } else if (arg == "--sarif") {
      const char* v = need("--sarif");
      if (v == nullptr) return 2;
      opt.sarif_path = v;
    } else if (arg == "--baseline") {
      const char* v = need("--baseline");
      if (v == nullptr) return 2;
      opt.baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = need("--write-baseline");
      if (v == nullptr) return 2;
      opt.write_baseline_path = v;
    } else if (arg == "--jobs") {
      const char* v = need("--jobs");
      if (v == nullptr) return 2;
      opt.jobs = std::atoi(v);
      if (opt.jobs < 0) {
        std::fprintf(stderr, "--jobs needs a non-negative count\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(
          stderr,
          "usage: dialite_analyze [--policy FILE] [--json] [--jobs N]\n"
          "                       [--sarif FILE] [--baseline FILE]\n"
          "                       [--write-baseline FILE] PATH...\n"
          "       dialite_analyze --self-test [--fixtures DIR]\n");
      return 2;
    } else {
      opt.roots.push_back(arg);
    }
  }
  if (opt.self_test) {
    if (opt.fixtures_dir.empty()) {
      // Default: fixtures/ next to the policy file found from cwd.
      const std::string policy = FindDefaultPolicy(".");
      if (!policy.empty()) {
        opt.fixtures_dir =
            (fs::path(policy).parent_path() / "fixtures").generic_string();
      }
    }
    if (opt.fixtures_dir.empty()) {
      std::fprintf(stderr,
                   "dialite_analyze --self-test: cannot locate fixtures; "
                   "pass --fixtures DIR\n");
      return 2;
    }
    return SelfTest(opt.fixtures_dir, opt.json);
  }
  if (opt.roots.empty()) {
    std::fprintf(stderr, "dialite_analyze: no input paths\n");
    return 2;
  }
  if (opt.policy_path.empty()) {
    opt.policy_path = FindDefaultPolicy(opt.roots.front());
  }
  if (opt.policy_path.empty()) {
    std::fprintf(stderr,
                 "dialite_analyze: cannot find tools/analyze/policy.txt from "
                 "'%s'; pass --policy FILE\n",
                 opt.roots.front().c_str());
    return 2;
  }
  return Analyze(opt);
}

}  // namespace
}  // namespace analyze
}  // namespace dialite

int main(int argc, char** argv) { return dialite::analyze::Main(argc, argv); }
