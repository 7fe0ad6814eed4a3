// Unit tests for the dialite_analyze frame (tools/analyze): the lexer's
// trap cases, the declaration parser, and the call/include graphs. These
// run under `ctest -L analysis` next to the tree gate and the fixture
// self-test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <cstdio>
#include <fstream>

#include "analyze/callgraph.h"
#include "analyze/cfg.h"
#include "analyze/checks.h"
#include "analyze/dataflow.h"
#include "analyze/decls.h"
#include "analyze/lexer.h"
#include "analyze/policy.h"
#include "analyze/report.h"

namespace dialite {
namespace analyze {
namespace {

std::vector<std::string> TokenTexts(const LexedFile& lexed) {
  std::vector<std::string> out;
  for (const Token& t : lexed.tokens) out.push_back(t.text);
  return out;
}

// ------------------------------------------------------------------ lexer

TEST(LexerTest, RawStringContentsNeverTokenize) {
  // The payload contains comment openers, braces, a fake loop and a fake
  // call — none of it may leak into the token stream.
  const std::string src =
      "const char* q = R\"sql(for (;;) { Score(/* hi */); })sql\";\n"
      "int after = 1;\n";
  LexedFile lexed = Lex("t.cc", src);
  const std::vector<std::string> texts = TokenTexts(lexed);
  for (const std::string& t : texts) {
    EXPECT_NE(t, "for");
    EXPECT_NE(t, "Score");
  }
  // The literal collapses to one string token and the file goes on.
  EXPECT_NE(std::find(texts.begin(), texts.end(), "\"\""), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "after"), texts.end());
}

TEST(LexerTest, RawStringEncodingPrefixes) {
  const std::string src =
      "auto a = u8R\"(x { y)\";\n"
      "auto b = LR\"d(} /* z)d\";\n"
      "int tail = 2;\n";
  LexedFile lexed = Lex("t.cc", src);
  const std::vector<std::string> texts = TokenTexts(lexed);
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "{"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "}"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "tail"), texts.end());
}

TEST(LexerTest, LineContinuationMacroEmitsNoTokens) {
  // The whole #define is one preprocessor logical line across splices;
  // sleep_for must not appear as a token, and the line counter must still
  // advance so `after` is stamped with its real line.
  const std::string src =
      "#define NAP()     \\\n"
      "  do {            \\\n"
      "    sleep_for(1); \\\n"
      "  } while (0)\n"
      "int after = 1;\n";
  LexedFile lexed = Lex("t.cc", src);
  const std::vector<std::string> texts = TokenTexts(lexed);
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "sleep_for"), texts.end());
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.front().text, "int");
  EXPECT_EQ(lexed.tokens.front().line, 5);
}

TEST(LexerTest, SpliceInsideIdentifierAndString) {
  // Translation phase 2: the splice joins physical lines before
  // tokenization, so an identifier (or string) can straddle lines.
  const std::string src = "int spli\\\nced = 0;\n";
  LexedFile lexed = Lex("t.cc", src);
  const std::vector<std::string> texts = TokenTexts(lexed);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "spliced"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "spli"), texts.end());
}

TEST(LexerTest, BlockCommentsDoNotNest) {
  // The first */ closes the comment even after an inner /* — so `live`
  // must tokenize and `dead` (inside the comment) must not.
  const std::string src =
      "/* outer /* looks nested */ int live = 1;\n"
      "/* int dead = 2;\n"
      "   still the same comment */ int live2 = 3;\n";
  LexedFile lexed = Lex("t.cc", src);
  const std::vector<std::string> texts = TokenTexts(lexed);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "live"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "live2"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "dead"), texts.end());
}

TEST(LexerTest, WaiversCoverOwnAndNextLine) {
  const std::string src =
      "// analyze: no-cancel(bounded by construction)\n"
      "int covered = 1;\n"
      "int uncovered = 2;\n"
      "int waived_inline = 3;  // analyze: allow-thread(joined in scope)\n";
  LexedFile lexed = Lex("t.cc", src);
  EXPECT_TRUE(HasWaiver(lexed, "no-cancel", 1));
  EXPECT_TRUE(HasWaiver(lexed, "no-cancel", 2));
  EXPECT_FALSE(HasWaiver(lexed, "no-cancel", 3));
  EXPECT_FALSE(HasWaiver(lexed, "allow-blocking", 2));
  EXPECT_TRUE(HasWaiver(lexed, "allow-thread", 4));
  EXPECT_FALSE(HasWaiver(lexed, "allow-socket", 4));
}

TEST(LexerTest, DirectivesRecordedWithNameArgumentAndMacroBody) {
  const std::string src =
      "#ifndef A_H_\n"
      "#  define A_H_ 1  // trailing comment\n"
      "#pragma once\n"
      "#define S(x) \"a // b\" x\n"
      "int x;\n"
      "#endif  // A_H_\n";
  LexedFile lexed = Lex("a.h", src);
  ASSERT_EQ(lexed.directives.size(), 5u);
  EXPECT_EQ(lexed.directives[0].name, "ifndef");
  EXPECT_EQ(lexed.directives[0].arg, "A_H_");
  EXPECT_EQ(lexed.directives[1].name, "define");
  EXPECT_EQ(lexed.directives[1].arg, "A_H_");
  EXPECT_EQ(lexed.directives[1].line, 2);
  ASSERT_EQ(lexed.directives[1].body.size(), 1u);
  EXPECT_EQ(lexed.directives[1].body[0].text, "1");
  EXPECT_EQ(lexed.directives[2].name, "pragma");
  EXPECT_EQ(lexed.directives[2].arg, "once");
  // The string stays one token, so its "//" starts no comment, and every
  // body token carries the directive's line.
  std::vector<std::string> body;
  for (const Token& t : lexed.directives[3].body) {
    body.push_back(t.text);
    EXPECT_EQ(t.line, 4);
  }
  EXPECT_EQ(body, (std::vector<std::string>{"(", "x", ")", "\"\"", "x"}));
  EXPECT_EQ(lexed.directives[4].name, "endif");
  EXPECT_EQ(lexed.directives[4].arg, "");
  EXPECT_EQ(lexed.directives[4].line, 6);
}

TEST(LexerTest, IncludesRecordedWithSystemFlag) {
  const std::string src =
      "#include \"analyze/lexer.h\"\n"
      "#include <vector>\n";
  LexedFile lexed = Lex("t.cc", src);
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "analyze/lexer.h");
  EXPECT_FALSE(lexed.includes[0].system);
  EXPECT_EQ(lexed.includes[1].path, "vector");
  EXPECT_TRUE(lexed.includes[1].system);
}

// ----------------------------------------------------------------- parser

TEST(DeclsTest, MembersGuardsAndLoops) {
  const std::string src =
      "namespace outer {\n"
      "class Cache {\n"
      " public:\n"
      "  int Total(int n) {\n"
      "    int sum = 0;\n"
      "    for (int i = 0; i < n; ++i) sum += i;\n"
      "    return sum;\n"
      "  }\n"
      " private:\n"
      "  Mutex mu_;\n"
      "  int hits_ GUARDED_BY(mu_);\n"
      "  int misses_;\n"
      "  static int limit_;\n"
      "  const int cap_ = 4;\n"
      "};\n"
      "}  // namespace outer\n";
  ParsedFile pf = Parse(Lex("t.h", src));
  ASSERT_EQ(pf.classes.size(), 1u);
  const ClassInfo& cls = pf.classes[0];
  EXPECT_EQ(cls.qual_name, "outer::Cache");
  ASSERT_EQ(cls.members.size(), 5u);
  EXPECT_EQ(cls.members[0].name, "mu_");
  EXPECT_TRUE(cls.members[1].guarded);
  EXPECT_FALSE(cls.members[2].guarded);
  EXPECT_TRUE(cls.members[3].is_static);
  EXPECT_TRUE(cls.members[4].is_const);
  // The method parsed as a function with one loop, and its qualified name
  // carries both the namespace and the class.
  ASSERT_EQ(pf.functions.size(), 1u);
  EXPECT_EQ(pf.functions[0].qual_name, "outer::Cache::Total");
  EXPECT_EQ(pf.functions[0].loops.size(), 1u);
}

TEST(DeclsTest, NestedStructMembersAreAudited) {
  // Regression: members of a struct nested inside a class must be reported
  // under the inner class, and template-argument const must not mark the
  // member itself const (shared_ptr<const T> is mutable).
  const std::string src =
      "class Outer {\n"
      " public:\n"
      "  struct Entry {\n"
      "    shared_ptr<const Foo> token_sets;\n"
      "    Mutex mu{\"x\"};\n"
      "    int hits GUARDED_BY(mu);\n"
      "  };\n"
      "};\n";
  ParsedFile pf = Parse(Lex("t.h", src));
  ASSERT_EQ(pf.classes.size(), 2u);  // Entry closes (and reports) first
  const ClassInfo& entry = pf.classes[0];
  EXPECT_EQ(entry.qual_name, "Outer::Entry");
  ASSERT_EQ(entry.members.size(), 3u);
  EXPECT_EQ(entry.members[0].name, "token_sets");
  EXPECT_FALSE(entry.members[0].is_const);
  EXPECT_FALSE(entry.members[0].is_reference);
  EXPECT_EQ(entry.members[1].name, "mu");
  EXPECT_TRUE(entry.members[2].guarded);
}

TEST(DeclsTest, PointerConstnessBindsAfterLastStar) {
  const std::string src =
      "class C {\n"
      "  const Obs* obs_;\n"        // pointee const, member mutable
      "  Obs* const fixed_;\n"      // member const
      "  Obs& ref_;\n"              // reference member
      "};\n";
  ParsedFile pf = Parse(Lex("t.h", src));
  ASSERT_EQ(pf.classes.size(), 1u);
  ASSERT_EQ(pf.classes[0].members.size(), 3u);
  EXPECT_FALSE(pf.classes[0].members[0].is_const);
  EXPECT_TRUE(pf.classes[0].members[1].is_const);
  EXPECT_TRUE(pf.classes[0].members[2].is_reference);
}

// ------------------------------------------------------------ call graph

ParsedFile ParseSource(const std::string& path, const std::string& src) {
  return Parse(Lex(path, src));
}

TEST(CallGraphTest, ReachabilityStopsAtStopPatterns) {
  std::vector<ParsedFile> files;
  files.push_back(ParseSource(
      "a.cc",
      "void Leaf() {}\n"
      "void Admin() { Leaf(); }\n"
      "void Handle() { Admin(); Direct(); }\n"
      "void Direct() {}\n"
      "void Unreached() { Leaf(); }\n"));
  Project project = Project::Build(std::move(files));
  CallGraph graph(project);
  auto names = [&](const std::vector<size_t>& ids) {
    std::vector<std::string> out;
    for (size_t id : ids) out.push_back(project.fn(id).simple_name);
    return out;
  };
  // Without stops: Handle -> Admin -> Leaf plus Direct.
  std::vector<std::string> all = names(graph.Reachable({"Handle"}, {}));
  EXPECT_NE(std::find(all.begin(), all.end(), "Leaf"), all.end());
  EXPECT_EQ(std::find(all.begin(), all.end(), "Unreached"), all.end());
  // With Admin stopped, neither Admin nor its callee Leaf is audited.
  std::vector<std::string> stopped =
      names(graph.Reachable({"Handle"}, {"Admin"}));
  EXPECT_EQ(std::find(stopped.begin(), stopped.end(), "Admin"), stopped.end());
  EXPECT_EQ(std::find(stopped.begin(), stopped.end(), "Leaf"), stopped.end());
  EXPECT_NE(std::find(stopped.begin(), stopped.end(), "Direct"),
            stopped.end());
}

TEST(CallGraphTest, QualifiedPatternsMatchOnBoundary) {
  FunctionInfo fn;
  fn.simple_name = "Handle";
  fn.qual_name = "dialite::DialiteServer::Handle";
  EXPECT_TRUE(CallGraph::Matches(fn, "Handle"));
  EXPECT_TRUE(CallGraph::Matches(fn, "DialiteServer::Handle"));
  EXPECT_TRUE(CallGraph::Matches(fn, "dialite::DialiteServer::Handle"));
  // Suffix matches must respect the :: boundary — no substring tricks.
  EXPECT_FALSE(CallGraph::Matches(fn, "Server::Handle"));
  EXPECT_FALSE(CallGraph::Matches(fn, "andle"));
}

// --------------------------------------------------------- include graph

TEST(IncludeGraphTest, FindsCycleAndIgnoresSystemIncludes) {
  std::vector<ParsedFile> acyclic;
  acyclic.push_back(ParseSource("src/a.h", "#include \"b.h\"\n"
                                           "#include <vector>\n"));
  acyclic.push_back(ParseSource("src/b.h", "#include <string>\n"));
  Project ok = Project::Build(std::move(acyclic));
  EXPECT_TRUE(IncludeGraph(ok).FindCycle().empty());

  std::vector<ParsedFile> cyclic;
  cyclic.push_back(ParseSource("src/a.h", "#include \"b.h\"\n"));
  cyclic.push_back(ParseSource("src/b.h", "#include \"c.h\"\n"));
  cyclic.push_back(ParseSource("src/c.h", "#include \"a.h\"\n"));
  Project bad = Project::Build(std::move(cyclic));
  std::vector<std::string> cycle = IncludeGraph(bad).FindCycle();
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

// ------------------------------------------------------- data-flow engine

/// The fixture-grade policy the data-flow tests share.
Policy TestPolicy() {
  Policy p;
  p.seeds = {"Handle"};
  p.hot = {"Score"};
  p.cancel_polls = {"Cancelled"};
  p.blocking = {"sleep_for"};
  p.lock_guards = {"MutexLock"};
  p.status_types = {"Status"};
  p.alloc_fns = {"push_back"};
  p.alloc_types = {"string"};
  p.view_types = {"ColumnView"};
  p.defer = {"Submit"};
  return p;
}

std::vector<Finding> RunOn(const std::string& src,
                           const std::string& path = "t.cc",
                           const Policy& policy = TestPolicy()) {
  std::vector<ParsedFile> files;
  files.push_back(ParseSource(path, src));
  Project project = Project::Build(std::move(files));
  return RunChecks(project, policy);
}

size_t CountCheck(const std::vector<Finding>& fs, const std::string& check) {
  size_t n = 0;
  for (const Finding& f : fs) {
    if (f.check == check) ++n;
  }
  return n;
}

TEST(CfgTest, EventStreamCoversLocksAllocsViewsAndScopes) {
  Policy policy = TestPolicy();
  ParsedFile pf = ParseSource(
      "t.cc",
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  {\n"
      "    string tmp(4, 'x');\n"
      "    items.push_back(tmp);\n"
      "  }\n"
      "  ColumnView view = Slice();\n"
      "  auto task = [view]() { return view; };\n"
      "}\n");
  ASSERT_EQ(pf.functions.size(), 1u);
  FunctionCfg cfg = BuildCfg(pf, pf.functions[0], policy);
  auto count = [&](CfgNode::Kind kind) {
    size_t n = 0;
    for (const CfgNode& node : cfg.nodes) {
      if (node.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count(CfgNode::Kind::kLockAcquire), 1u);
  // string construction + push_back call.
  EXPECT_EQ(count(CfgNode::Kind::kAlloc), 2u);
  EXPECT_EQ(count(CfgNode::Kind::kViewDecl), 1u);
  EXPECT_EQ(count(CfgNode::Kind::kLambda), 1u);
  // Inner block open/close; the lambda body braces add another pair.
  EXPECT_GE(count(CfgNode::Kind::kScopeOpen), 2u);
  EXPECT_EQ(count(CfgNode::Kind::kScopeOpen),
            count(CfgNode::Kind::kScopeClose));
  // The guard variable name rides in the acquire event.
  for (const CfgNode& node : cfg.nodes) {
    if (node.kind == CfgNode::Kind::kLockAcquire) {
      EXPECT_EQ(node.text, "MutexLock");
      EXPECT_EQ(node.detail, "lock");
    }
  }
}

TEST(DataFlowTest, SummariesPropagateAcrossCallGraph) {
  std::vector<ParsedFile> files;
  files.push_back(ParseSource(
      "t.cc",
      "void Deep() { sleep_for(1); }\n"
      "void Mid() { Deep(); }\n"
      "void Top() { Mid(); }\n"
      "void Grow(int n) { items.push_back(n); }\n"
      "Status Load() { return Status(); }\n"
      "void Quiet() {}\n"));
  Project project = Project::Build(std::move(files));
  CallGraph graph(project);
  // DataFlow keeps a reference to its policy.
  const Policy policy = TestPolicy();
  DataFlow flow(project, graph, policy);
  EXPECT_TRUE(flow.converged());
  EXPECT_TRUE(flow.NameMayBlock("Deep"));
  EXPECT_TRUE(flow.NameMayBlock("Mid"));
  EXPECT_TRUE(flow.NameMayBlock("Top"));
  EXPECT_FALSE(flow.NameMayBlock("Quiet"));
  EXPECT_TRUE(flow.NameMayAlloc("Grow"));
  EXPECT_FALSE(flow.NameMayAlloc("Deep"));
  EXPECT_TRUE(flow.NameReturnsStatus("Load"));
  EXPECT_FALSE(flow.NameReturnsStatus("Quiet"));
  // The witness chain walks caller -> callee -> terminal fact.
  const std::string chain = flow.BlockChain("Top");
  EXPECT_NE(chain.find("Top"), std::string::npos);
  EXPECT_NE(chain.find("sleep_for"), std::string::npos);
}

TEST(DataFlowTest, ReturnsStatusNeedsEveryDefinitionToAgree) {
  // Two functions share the name Load; only one returns Status, so the
  // name must NOT count as status-returning (a collision would otherwise
  // flag unrelated helpers).
  std::vector<ParsedFile> files;
  files.push_back(ParseSource("a.cc", "Status Load() { return Status(); }\n"));
  files.push_back(ParseSource("b.cc", "void Load() {}\n"));
  Project project = Project::Build(std::move(files));
  CallGraph graph(project);
  // DataFlow keeps a reference to its policy.
  const Policy policy = TestPolicy();
  DataFlow flow(project, graph, policy);
  EXPECT_FALSE(flow.NameReturnsStatus("Load"));
}

// ----------------------------------------------------- data-flow checks

TEST(ChecksTest, LockBlockingIsFlowSensitiveAndTransitive) {
  // Transitive reach while the guard is live: fires.
  std::vector<Finding> bad = RunOn(
      "void Save() { sleep_for(5); }\n"
      "void Flush() {\n"
      "  MutexLock lock(mu_);\n"
      "  Save();\n"
      "}\n");
  EXPECT_EQ(CountCheck(bad, "lock-blocking"), 1u);
  // Same call after the guard's scope closes: silent.
  std::vector<Finding> good = RunOn(
      "void Save() { sleep_for(5); }\n"
      "void Flush() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "    dirty_ = false;\n"
      "  }\n"
      "  Save();\n"
      "}\n");
  EXPECT_EQ(CountCheck(good, "lock-blocking"), 0u);
}

TEST(ChecksTest, StatusDropCatchesBindingAndBareCall) {
  std::vector<Finding> bound = RunOn(
      "Status Load() { return Status(); }\n"
      "int Handle() {\n"
      "  Status st = Load();\n"
      "  return 1;\n"
      "}\n");
  EXPECT_EQ(CountCheck(bound, "status-drop"), 1u);
  std::vector<Finding> bare = RunOn(
      "Status Load() { return Status(); }\n"
      "void Handle() { Load(); }\n");
  EXPECT_EQ(CountCheck(bare, "status-drop"), 1u);
  std::vector<Finding> consulted = RunOn(
      "Status Load() { return Status(); }\n"
      "int Handle() {\n"
      "  Status st = Load();\n"
      "  if (!st.ok()) return -1;\n"
      "  return 1;\n"
      "}\n");
  EXPECT_EQ(CountCheck(consulted, "status-drop"), 0u);
}

TEST(ChecksTest, HotAllocIsANoteAndRequiresHotLoop) {
  std::vector<Finding> hot = RunOn(
      "bool Cancelled();\n"
      "int Handle(int n) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (Cancelled()) return total;\n"
      "    string row(4, 'x');\n"
      "    total += row.size();\n"
      "  }\n"
      "  return total;\n"
      "}\n");
  ASSERT_EQ(CountCheck(hot, "hot-alloc"), 1u);
  for (const Finding& f : hot) {
    if (f.check == "hot-alloc") {
      EXPECT_EQ(f.severity, Finding::Severity::kNote);
    }
  }
  // A cold loop (not request-reachable) allocating is not inventory.
  std::vector<Finding> cold = RunOn(
      "bool Cancelled();\n"
      "int Offline(int n) {\n"
      "  int total = 0;\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    if (Cancelled()) return total;\n"
      "    string row(4, 'x');\n"
      "    total += row.size();\n"
      "  }\n"
      "  return total;\n"
      "}\n");
  EXPECT_EQ(CountCheck(cold, "hot-alloc"), 0u);
}

TEST(ChecksTest, ViewReturnFlagsReturnsAndDeferredCaptures) {
  std::vector<Finding> ret = RunOn(
      "ColumnView Slice() {\n"
      "  ColumnView v;\n"
      "  return v;\n"
      "}\n");
  EXPECT_EQ(CountCheck(ret, "view-return"), 1u);
  std::vector<Finding> defer = RunOn(
      "void Fanout() {\n"
      "  ColumnView rows = Snapshot();\n"
      "  Submit([rows]() { Use(rows); });\n"
      "}\n");
  EXPECT_EQ(CountCheck(defer, "view-return"), 1u);
  std::vector<Finding> owned = RunOn(
      "void Fanout() {\n"
      "  OwnedColumn rows = Materialize();\n"
      "  Submit([rows]() { Use(rows); });\n"
      "}\n");
  EXPECT_EQ(CountCheck(owned, "view-return"), 0u);
}

/// Lines of `check`'s findings in `src` parsed as `path`, in report order.
std::vector<int> LinesOf(const std::string& check, const std::string& src,
                         const std::string& path = "t.cc",
                         const Policy& policy = TestPolicy()) {
  std::vector<int> lines;
  for (const Finding& f : RunOn(src, path, policy)) {
    if (f.check == check) lines.push_back(f.line);
  }
  return lines;
}

TEST(ChecksTest, RawSocketFiresOnEveryGlobalCallForm) {
  const std::string src =
      "int Open(int fd) {\n"
      "  if (fd < 0) return ::socket(2, 1, 0);\n"
      "  (void)::shutdown(fd, 2);\n"
      "  ::recvfrom(fd, 0, 0, 0, 0, 0);\n"
      "  ::sendto(fd, 0, 0, 0, 0, 0);\n"
      "  ::getsockname(fd, 0, 0);\n"
      "  ::getpeername(fd, 0, 0);\n"
      "  return ::send(fd, 0, 0, 0);\n"
      "}\n"
      "int Near(Conn c) { return Conn::connect(3) + Pool<int>::send(1); }\n"
      "#define SEND(fd) ::send(fd, 0, 0, 0)\n";
  EXPECT_EQ(LinesOf("raw-socket", src),
            (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 11}));
}

TEST(ChecksTest, NondeterminismFiresOnRandSrandAndRandomDevice) {
  const std::string src =
      "int Roll() {\n"
      "  srand(7);\n"
      "  std::random_device dev;\n"
      "  return rand() + my_rand() + rng.rand_int() + dev();\n"
      "}\n"
      "#define ROLL() rand()\n"
      "// rand() std::random_device\n"
      "const char* kDoc = \"srand(1)\";\n";
  EXPECT_EQ(LinesOf("nondeterminism", src), (std::vector<int>{2, 3, 4, 6}));
  Policy rng = TestPolicy();
  rng.exempt.emplace_back("nondeterminism", "src/common/rng");
  EXPECT_TRUE(LinesOf("nondeterminism", src, "src/common/rng.cc", rng)
                  .empty());
}

TEST(ChecksTest, RawSyncPrimitiveFiresOnEachLockTypeButNotOnceFlag) {
  const std::string src =
      "std::mutex mu;\n"
      "std::condition_variable cv;\n"
      "void F() {\n"
      "  std::lock_guard<std::mutex> hold(mu);\n"
      "  static std::once_flag once;\n"
      "  std::call_once(once, [] {});\n"
      "}\n";
  EXPECT_EQ(LinesOf("raw-sync-primitive", src),
            (std::vector<int>{1, 2, 4, 4}));
  Policy sync = TestPolicy();
  sync.exempt.emplace_back("raw-sync-primitive", "src/common/sync.h");
  EXPECT_TRUE(LinesOf("raw-sync-primitive", src, "src/common/sync.h", sync)
                  .empty());
}

TEST(ChecksTest, UsingNamespaceFiresInHeadersOnly) {
  const std::string src =
      "#ifndef A_H\n"
      "#define A_H\n"
      "using namespace std;\n"
      "using std::string;\n"
      "#endif\n";
  EXPECT_EQ(LinesOf("using-namespace-header", src, "a.h"),
            (std::vector<int>{3}));
  EXPECT_TRUE(LinesOf("using-namespace-header", src, "a.cc").empty());
}

TEST(ChecksTest, IncludeGuardNeedsOneMacroClosedByEndif) {
  EXPECT_TRUE(LinesOf("include-guard", "#ifndef A_H\n#define A_H\n#endif\n",
                      "a.h")
                  .empty());
  EXPECT_EQ(LinesOf("include-guard", "int x;\n", "a.h"),
            (std::vector<int>{1}));
  EXPECT_EQ(LinesOf("include-guard", "#ifndef A_H\n#define B_H\n#endif\n",
                    "a.h"),
            (std::vector<int>{1}));
  EXPECT_EQ(LinesOf("include-guard", "// a\n#pragma once\nint x;\n", "a.h"),
            (std::vector<int>{2}));
  EXPECT_EQ(LinesOf("include-guard", "#ifndef A_H\n#define A_H\nint x;\n",
                    "a.h"),
            (std::vector<int>{2}));
  EXPECT_TRUE(LinesOf("include-guard", "int x;\n", "a.cc").empty());
}

// ------------------------------------------------------- waiver grammar

TEST(WaiverTest, SplicedWaiverCommentCoversTheNextCodeLine) {
  // The backslash splices the waiver comment onto line 6 (translation
  // phase 2: the // comment continues), so the comment ENDS on line 6 and
  // "this line plus the next" must cover the loop on line 7 — anchoring
  // the waiver at the comment's start line would miss it.
  std::vector<Finding> fs = RunOn(
      "int Score(int x);\n"
      "bool Cancelled();\n"
      "int Handle(int n) {\n"
      "  int total = 0;\n"
      "  // analyze: no-cancel(offline rebuild loop) \\\n"
      "     bounded by the catalog page size\n"
      "  for (int i = 0; i < n; ++i) total += Score(i);\n"
      "  return total;\n"
      "}\n");
  EXPECT_EQ(CountCheck(fs, "no-cancel"), 0u);
  EXPECT_EQ(CountCheck(fs, "stale-waiver"), 0u);
}

TEST(WaiverTest, MultipleDirectivesInOneComment) {
  // One comment carries two directives; both must register and both must
  // suppress their checks on the next line.
  std::vector<Finding> fs = RunOn(
      "int Score(int x);\n"
      "int Handle(int n) {\n"
      "  int total = 0;\n"
      "  // analyze: no-cancel(tiny bound) analyze: hot-alloc(tiny bound)\n"
      "  for (int i = 0; i < n; ++i) {\n"
      "    string row(4, 'x');\n"
      "    total += Score(i) + row.size();\n"
      "  }\n"
      "  return total;\n"
      "}\n");
  EXPECT_EQ(CountCheck(fs, "no-cancel"), 0u);
  EXPECT_EQ(CountCheck(fs, "hot-alloc"), 0u);
  EXPECT_EQ(CountCheck(fs, "stale-waiver"), 0u);
}

TEST(WaiverTest, StaleWaiverReportedAsWarning) {
  // The waiver's check never fires here, so the waiver itself is flagged.
  std::vector<Finding> fs = RunOn(
      "int Quiet(int n) {\n"
      "  // analyze: no-cancel(left over from a deleted loop)\n"
      "  return n;\n"
      "}\n");
  ASSERT_EQ(CountCheck(fs, "stale-waiver"), 1u);
  for (const Finding& f : fs) {
    if (f.check == "stale-waiver") {
      EXPECT_EQ(f.severity, Finding::Severity::kWarning);
    }
  }
  // Unknown directives are called out too.
  std::vector<Finding> unknown = RunOn(
      "void F() {\n"
      "  // analyze: no-such-check(oops)\n"
      "}\n");
  EXPECT_EQ(CountCheck(unknown, "stale-waiver"), 1u);
}

// ------------------------------------------------------- policy loading

std::string WriteTempPolicy(const std::string& name,
                            const std::string& body) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

TEST(PolicyTest, MalformedDirectivesAreHardErrorsWithFileLine) {
  Policy policy;
  std::string error;

  const std::string junk =
      WriteTempPolicy("junk.txt", "seed Handle\nblocking sleep_for now\n");
  EXPECT_FALSE(LoadPolicy(junk, &policy, &error));
  EXPECT_NE(error.find("junk.txt:2"), std::string::npos) << error;
  EXPECT_NE(error.find("blocking sleep_for now"), std::string::npos) << error;

  const std::string unknown =
      WriteTempPolicy("unknown.txt", "sede Handle\n");
  EXPECT_FALSE(LoadPolicy(unknown, &policy, &error));
  EXPECT_NE(error.find("unknown.txt:1"), std::string::npos) << error;
  EXPECT_NE(error.find("unknown directive"), std::string::npos) << error;

  const std::string missing = WriteTempPolicy("missing.txt", "hot\n");
  EXPECT_FALSE(LoadPolicy(missing, &policy, &error));
  EXPECT_NE(error.find("missing.txt:1"), std::string::npos) << error;

  const std::string good = WriteTempPolicy(
      "good.txt", "# comment\nseed Handle\nexempt blocking src/server/net.\n");
  EXPECT_TRUE(LoadPolicy(good, &policy, &error)) << error;
  ASSERT_EQ(policy.seeds.size(), 1u);
  EXPECT_TRUE(policy.IsExempt("blocking", "src/server/net.cc"));
}

// ------------------------------------------------------------- reporting

TEST(ReportTest, BaselineRoundTripAndDiff) {
  std::vector<Finding> findings;
  findings.push_back({"a.cc", 3, "hot-alloc", "msg \"quoted\"",
                      Finding::Severity::kNote});
  findings.push_back({"b.cc", 7, "lock-blocking", "held across IO"});
  const std::string text = FindingsToBaseline(findings);
  std::vector<BaselineEntry> loaded;
  std::string error;
  ASSERT_TRUE(LoadBaseline(text, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].message, "msg \"quoted\"");

  // Identical findings: nothing fresh, nothing stale.
  BaselineDiff same = DiffBaseline(findings, loaded);
  EXPECT_TRUE(same.fresh.empty());
  EXPECT_TRUE(same.stale.empty());

  // A new finding is fresh; a fixed one is stale. Lines do NOT key the
  // diff — drifting a finding by a line keeps it baselined.
  std::vector<Finding> next;
  next.push_back({"a.cc", 99, "hot-alloc", "msg \"quoted\"",
                  Finding::Severity::kNote});
  next.push_back({"c.cc", 1, "status-drop", "dropped"});
  BaselineDiff diff = DiffBaseline(next, loaded);
  ASSERT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.fresh[0].file, "c.cc");
  ASSERT_EQ(diff.stale.size(), 1u);
  EXPECT_EQ(diff.stale[0].file, "b.cc");

  std::vector<BaselineEntry> rejected;
  EXPECT_FALSE(LoadBaseline("not json", &rejected, &error));
  EXPECT_NE(error.find("baseline parse error"), std::string::npos);
}

TEST(ReportTest, SarifCarriesRulesSeveritiesAndLocations) {
  std::vector<Finding> findings;
  findings.push_back({"src/a.cc", 12, "lock-blocking", "held"});
  findings.push_back({"src/b.cc", 9, "hot-alloc", "alloc",
                      Finding::Severity::kNote});
  const std::string sarif = FindingsToSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dialite_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-blocking\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/b.cc\""), std::string::npos);
}

}  // namespace
}  // namespace analyze
}  // namespace dialite
