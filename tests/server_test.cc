/// Tests for the dialited serving layer: the HTTP/1.1 parser as a pure
/// function, endpoint dispatch without a network (DialiteServer::Handle),
/// and full socket round-trips — admission control, per-request deadlines,
/// keep-alive, /reload, and graceful drain.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/dialite.h"
#include "lake/paper_fixtures.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"
#include "table/csv.h"

namespace dialite {
namespace {

/// ctest runs every discovered test as its own parallel process, so the
/// per-suite snapshot path must be unique per process — a shared name
/// races one process's TearDownTestSuite against another's Start().
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

/// Saves a demo-lake snapshot (built indexes included) and returns its
/// path. Distractor count varies the lake so reload tests can tell
/// snapshots apart.
std::string MakeSnapshot(const std::string& name, size_t distractors) {
  DataLake lake = paper::MakeDemoLake(distractors);
  Dialite system(&lake);
  EXPECT_TRUE(system.RegisterDefaults().ok());
  EXPECT_TRUE(system.BuildIndexes().ok());
  std::string path = TempPath(name);
  EXPECT_TRUE(system.SaveSnapshot(path).ok());
  return path;
}

std::string QueryCsv() { return CsvWriter::ToString(paper::MakeT1()); }

// ------------------------------------------------------------ HTTP parser

TEST(HttpParserTest, ParsesRequestLineQueryAndBody) {
  const std::string raw =
      "POST /discover?algorithm=santos&k=5&name=my%20query HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "a,b\n1,2\n3,4";
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_TRUE(ParseHttpRequest(raw, 1 << 20, &req, &consumed).ok());
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/discover");
  EXPECT_EQ(req.Param("algorithm"), "santos");
  EXPECT_EQ(req.Param("k"), "5");
  EXPECT_EQ(req.Param("name"), "my query");
  EXPECT_EQ(req.Param("missing", "fallback"), "fallback");
  EXPECT_EQ(req.body, "a,b\n1,2\n3,4");
}

TEST(HttpParserTest, IncompleteRequestsAskForMoreBytes) {
  HttpRequest req;
  size_t consumed = 0;
  // Truncated anywhere before the full body: kOutOfRange, never an error.
  const std::string raw =
      "GET /status HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  for (size_t keep = 0; keep < raw.size(); ++keep) {
    Status s = ParseHttpRequest(raw.substr(0, keep), 1 << 20, &req, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << "keep=" << keep;
  }
  ASSERT_TRUE(ParseHttpRequest(raw, 1 << 20, &req, &consumed).ok());
  EXPECT_EQ(req.body, "body");
}

TEST(HttpParserTest, KeepAlivePipelinedRequestsConsumeExactly) {
  const std::string one = "GET /status HTTP/1.1\r\n\r\n";
  const std::string raw = one + one;
  HttpRequest req;
  size_t consumed = 0;
  ASSERT_TRUE(ParseHttpRequest(raw, 1 << 20, &req, &consumed).ok());
  EXPECT_EQ(consumed, one.size());
  ASSERT_TRUE(ParseHttpRequest(
                  std::string_view(raw).substr(consumed), 1 << 20, &req,
                  &consumed)
                  .ok());
  EXPECT_EQ(consumed, one.size());
}

TEST(HttpParserTest, RejectsMalformedAndOversized) {
  HttpRequest req;
  size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest("NONSENSE\r\n\r\n", 1 << 20, &req, &consumed)
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseHttpRequest("GET /x SMTP/1.0\r\n\r\n", 1 << 20, &req,
                             &consumed)
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 1 << 20,
                &req, &consumed)
                .code(),
            StatusCode::kParseError);
  // Declared body over the cap: rejected BEFORE buffering the body.
  EXPECT_EQ(ParseHttpRequest(
                "POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 100, &req,
                &consumed)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(HttpParserTest, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 504;
  resp.body = "{\"error\":\"deadline\"}";
  std::string wire = SerializeHttpResponse(resp);
  EXPECT_NE(wire.find("HTTP/1.1 504 Gateway Timeout\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 20\r\n"), std::string::npos);
  EXPECT_NE(wire.find(resp.body), std::string::npos);
}

// --------------------------------------------------- dispatch (no sockets)

class ServerHandleTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    snapshot_path_ = new std::string(MakeSnapshot("server_handle.snap", 6));
  }
  static void TearDownTestSuite() {
    std::remove(snapshot_path_->c_str());
    delete snapshot_path_;
    snapshot_path_ = nullptr;
  }

  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    options.enable_test_endpoints = true;
    server_ = std::make_unique<DialiteServer>(options, &obs_);
    ASSERT_TRUE(server_->Start(*snapshot_path_).ok());
  }

  HttpRequest Post(const std::string& path,
                   std::map<std::string, std::string> query = {},
                   std::string body = "") {
    HttpRequest req;
    req.method = "POST";
    req.path = path;
    req.query = std::move(query);
    req.body = std::move(body);
    return req;
  }

  HttpRequest Get(const std::string& path) {
    HttpRequest req;
    req.method = "GET";
    req.path = path;
    return req;
  }

  static std::string* snapshot_path_;
  ObservabilityContext obs_;
  std::unique_ptr<DialiteServer> server_;
};

std::string* ServerHandleTest::snapshot_path_ = nullptr;

TEST_F(ServerHandleTest, StatusReportsEpochAndLake) {
  StartServer();
  HttpResponse resp = server_->Handle(Get("/status"), nullptr);
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"algorithms\":["), std::string::npos);
}

TEST_F(ServerHandleTest, DiscoverReturnsRankedHits) {
  StartServer();
  HttpResponse resp = server_->Handle(
      Post("/discover", {{"algorithm", "santos"}, {"k", "5"}, {"column", "1"}},
           QueryCsv()),
      nullptr);
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"hits\":["), std::string::npos);
  EXPECT_NE(resp.body.find("\"score\":"), std::string::npos);
}

TEST_F(ServerHandleTest, DiscoverRejectsMissingBodyAndUnknownAlgorithm) {
  StartServer();
  EXPECT_EQ(server_->Handle(Post("/discover"), nullptr).status, 400);
  HttpResponse resp = server_->Handle(
      Post("/discover", {{"algorithm", "no_such_algo"}}, QueryCsv()), nullptr);
  EXPECT_EQ(resp.status, 404) << resp.body;
}

TEST_F(ServerHandleTest, DiscoverHonorsPreExpiredDeadline) {
  StartServer();
  CancelToken cancel;
  cancel.Cancel();
  HttpResponse resp = server_->Handle(
      Post("/discover", {{"algorithm", "santos"}}, QueryCsv()), &cancel);
  EXPECT_EQ(resp.status, 504) << resp.body;
}

TEST_F(ServerHandleTest, AlignAndIntegrateOverLakeTables) {
  StartServer();
  std::shared_ptr<const Epoch> epoch = server_->lake_service().current();
  ASSERT_NE(epoch, nullptr);
  const std::vector<std::string>& names = epoch->system->lake->table_names();
  ASSERT_GE(names.size(), 2u);
  const std::string pair = names[0] + "," + names[1];

  HttpResponse align =
      server_->Handle(Post("/align", {{"tables", pair}}), nullptr);
  ASSERT_EQ(align.status, 200) << align.body;
  EXPECT_NE(align.body.find("\"clusters\":["), std::string::npos);

  HttpResponse integrate =
      server_->Handle(Post("/integrate", {{"tables", pair}}), nullptr);
  ASSERT_EQ(integrate.status, 200) << integrate.body;
  EXPECT_EQ(integrate.content_type, "text/csv");
  EXPECT_FALSE(integrate.body.empty());

  EXPECT_EQ(server_->Handle(Post("/align", {{"tables", names[0]}}), nullptr)
                .status,
            400);
  EXPECT_EQ(server_->Handle(
                      Post("/align", {{"tables", "no_such,tables_here"}}),
                      nullptr)
                .status,
            404);
}

TEST_F(ServerHandleTest, RepeatedIntegrateSignsOnlyTheBody) {
  StartServer();
  std::shared_ptr<const Epoch> epoch = server_->lake_service().current();
  ASSERT_NE(epoch, nullptr);
  const DataLake& lake = *epoch->system->lake;
  const std::vector<std::string>& names = lake.table_names();
  ASSERT_GE(names.size(), 2u);
  const size_t lake_columns = lake.Get(names[0])->num_columns() +
                              lake.Get(names[1])->num_columns();
  const size_t body_columns = paper::MakeT1().num_columns();
  const HttpRequest req =
      Post("/integrate", {{"tables", names[0] + "," + names[1]}}, QueryCsv());
  auto counter = [this](const char* name) {
    return obs_.metrics().CounterValue(name);
  };

  // Lake columns borrow the snapshot's tokens and embeddings, so even the
  // first request signs only the body's columns.
  HttpResponse first = server_->Handle(req, nullptr);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(counter("align.signatures.computed"), body_columns);
  EXPECT_EQ(counter("align.signatures.reused"), lake_columns);

  // The repeat does the same and answers the same bytes.
  HttpResponse second = server_->Handle(req, nullptr);
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(counter("align.signatures.computed"), 2 * body_columns);
  EXPECT_EQ(counter("align.signatures.reused"), 2 * lake_columns);

  const std::string metrics = server_->Handle(Get("/metrics"), nullptr).body;
  EXPECT_NE(metrics.find("align.signatures.computed"), std::string::npos);
  EXPECT_NE(metrics.find("align.signatures.reused"), std::string::npos);
}

TEST_F(ServerHandleTest, IntegrationSetNamingATableTwiceAnswers400) {
  StartServer();
  std::shared_ptr<const Epoch> epoch = server_->lake_service().current();
  ASSERT_NE(epoch, nullptr);
  const std::string name = epoch->system->lake->table_names()[0];
  // The lake table twice, without a body.
  HttpResponse twice = server_->Handle(
      Post("/integrate", {{"tables", name + "," + name}}), nullptr);
  EXPECT_EQ(twice.status, 400) << twice.body;
  // A body named like the lake table it is set beside.
  HttpResponse named_alike = server_->Handle(
      Post("/align", {{"name", name}, {"tables", name}}, QueryCsv()),
      nullptr);
  EXPECT_EQ(named_alike.status, 400) << named_alike.body;
}

TEST_F(ServerHandleTest, ReloadAdvancesEpochAndKeepsServing) {
  StartServer();
  EXPECT_EQ(server_->lake_service().current()->id, 1u);
  HttpResponse resp = server_->Handle(Post("/reload"), nullptr);
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"epoch\":2"), std::string::npos);
  EXPECT_EQ(server_->lake_service().current()->id, 2u);
  // A bad path fails the reload and keeps the old epoch serving.
  HttpResponse bad = server_->Handle(
      Post("/reload", {{"snapshot", "/nonexistent/lake.snap"}}), nullptr);
  EXPECT_NE(bad.status, 200);
  EXPECT_EQ(server_->lake_service().current()->id, 2u);
  EXPECT_EQ(server_->Handle(Get("/status"), nullptr).status, 200);
}

TEST_F(ServerHandleTest, UnknownPathAndWrongMethod) {
  StartServer();
  EXPECT_EQ(server_->Handle(Get("/nope"), nullptr).status, 404);
  EXPECT_EQ(server_->Handle(Get("/discover"), nullptr).status, 405);
  EXPECT_EQ(server_->Handle(Post("/status"), nullptr).status, 405);
}

TEST_F(ServerHandleTest, MalformedNumericParametersAnswer400) {
  StartServer();
  const std::string query = QueryCsv();
  for (const char* bad :
       {"abc", "-1", "+3", " 3", "3x", "", "18446744073709551616"}) {
    for (const char* param : {"k", "column"}) {
      HttpResponse resp = server_->Handle(
          Post("/discover", {{"algorithm", "josie"}, {param, bad}}, query),
          nullptr);
      EXPECT_EQ(resp.status, 400) << param << "=" << bad << ": " << resp.body;
    }
  }
}

TEST_F(ServerHandleTest, MetricsExportsRequestCounters) {
  StartServer();
  (void)server_->Handle(Get("/status"), nullptr);
  HttpResponse resp = server_->Handle(Get("/metrics"), nullptr);
  EXPECT_EQ(resp.status, 200);
  // The JSON document is the ObservabilityContext export.
  EXPECT_NE(resp.body.find("counters"), std::string::npos);
}

TEST_F(ServerHandleTest, MetricsSizeStopsGrowingWithRequests) {
  StartServer();
  const std::string query = QueryCsv();
  auto discover = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(server_
                    ->Handle(Post("/discover",
                                  {{"algorithm", "josie"}, {"k", "3"}}, query),
                             nullptr)
                    .status,
                200);
    }
  };
  // Every /discover leaves one root span: fill the tracer's ring, then
  // serve twice as many requests again.
  discover(Tracer::kMaxRoots);
  const size_t full = server_->Handle(Get("/metrics"), nullptr).body.size();
  discover(2 * Tracer::kMaxRoots);
  const size_t later = server_->Handle(Get("/metrics"), nullptr).body.size();
  EXPECT_EQ(obs_.tracer().root_count(), Tracer::kMaxRoots);
  // Kept spans would triple the export; bounded, only the digits of
  // counters and timings change.
  EXPECT_LT(later, full + full / 20) << full << " -> " << later;
}

// ------------------------------------------------------- socket round-trip

/// One client request on a fresh connection; returns HTTP status, body out.
int Roundtrip(uint16_t port, const std::string& method,
              const std::string& target, const std::string& body,
              std::string* resp_body) {
  Result<TcpConn> conn = TcpConnect(port);
  EXPECT_TRUE(conn.ok()) << conn.status().ToString();
  if (!conn.ok()) return -1;
  EXPECT_TRUE(
      conn->WriteAll(SerializeHttpRequest(method, target, body, true)).ok());
  std::string buffer;
  int status = 0;
  Status st = ReadHttpResponse(*conn, &buffer, &status, resp_body);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return st.ok() ? status : -1;
}

TEST_F(ServerHandleTest, SocketStatusAndDiscoverRoundTrip) {
  StartServer();
  std::string body;
  EXPECT_EQ(Roundtrip(server_->port(), "GET", "/status", "", &body), 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

  body.clear();
  EXPECT_EQ(Roundtrip(server_->port(), "POST",
                      "/discover?algorithm=santos&k=5&column=1", QueryCsv(),
                      &body),
            200);
  EXPECT_NE(body.find("\"hits\":["), std::string::npos);
}

TEST_F(ServerHandleTest, SocketKeepAliveServesSequentialRequests) {
  StartServer();
  Result<TcpConn> conn = TcpConnect(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        conn->WriteAll(SerializeHttpRequest("GET", "/status", "", false))
            .ok());
    int status = 0;
    std::string body;
    ASSERT_TRUE(ReadHttpResponse(*conn, &buffer, &status, &body).ok());
    EXPECT_EQ(status, 200);
  }
}

TEST_F(ServerHandleTest, SocketMalformedRequestAnswers400) {
  StartServer();
  Result<TcpConn> conn = TcpConnect(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->WriteAll("GARBAGE REQUEST\r\n\r\n").ok());
  std::string buffer, body;
  int status = 0;
  ASSERT_TRUE(ReadHttpResponse(*conn, &buffer, &status, &body).ok());
  EXPECT_EQ(status, 400);
}

TEST_F(ServerHandleTest, DeadlineAnswers504OverSocket) {
  StartServer();
  std::string body;
  EXPECT_EQ(Roundtrip(server_->port(), "GET",
                      "/_test/sleep?ms=10000&deadline_ms=50", "", &body),
            504);
  EXPECT_NE(body.find("deadline"), std::string::npos);
}

TEST_F(ServerHandleTest, HugeDeadlineSaturatesAndMalformedAnswers400) {
  StartServer();
  const std::string target =
      "/discover?algorithm=josie&k=3&column=1&deadline_ms=";
  std::string body;
  // About 317 years, and the largest uint64: both far past the clock's
  // nanosecond range, so the deadline saturates instead of firing at once.
  for (const char* huge : {"10000000000000", "18446744073709551615"}) {
    EXPECT_EQ(Roundtrip(server_->port(), "POST", target + huge, QueryCsv(),
                        &body),
              200)
        << huge << ": " << body;
  }
  for (const char* bad : {"-1", "abc", "18446744073709551616"}) {
    EXPECT_EQ(
        Roundtrip(server_->port(), "POST", target + bad, QueryCsv(), &body),
        400)
        << bad << ": " << body;
  }
}

TEST_F(ServerHandleTest, UnknownPathsShareOneMetricName) {
  StartServer();
  auto metric_names = [this] {
    std::set<std::string> names;
    for (const auto& [name, value] : obs_.metrics().CounterSnapshot()) {
      names.insert(name);
    }
    for (const auto& [name, hist] : obs_.metrics().HistogramSnapshots()) {
      names.insert(name);
    }
    return names;
  };
  Result<TcpConn> conn = TcpConnect(server_->port());
  ASSERT_TRUE(conn.ok());
  std::string buffer;
  auto get_unknown = [&](size_t i) {
    const std::string target = "/nope" + std::to_string(i);
    ASSERT_TRUE(
        conn->WriteAll(SerializeHttpRequest("GET", target, "", false)).ok());
    int status = 0;
    std::string body;
    ASSERT_TRUE(ReadHttpResponse(*conn, &buffer, &status, &body).ok());
    EXPECT_EQ(status, 404) << target;
  };
  get_unknown(0);
  const std::set<std::string> after_one = metric_names();
  EXPECT_EQ(after_one.count("server.request.unknown.count"), 1u);
  for (size_t i = 1; i < 200; ++i) get_unknown(i);
  EXPECT_EQ(metric_names(), after_one);
}

TEST_F(ServerHandleTest, AdmissionControlAnswers503WhenFull) {
  ServerOptions options;
  options.max_admitted = 0;  // every connection is over capacity
  StartServer(options);
  std::string body;
  EXPECT_EQ(Roundtrip(server_->port(), "GET", "/status", "", &body), 503);
  EXPECT_NE(body.find("capacity"), std::string::npos);
}

TEST_F(ServerHandleTest, ShutdownDrainsInFlightRequests) {
  StartServer();
  const uint16_t port = server_->port();
  std::atomic<int> slow_status{0};
  ThreadPool client(1);
  client.Submit([&] {
    std::string body;
    slow_status.store(
        Roundtrip(port, "GET", "/_test/sleep?ms=300", "", &body));
  });
  // Give the slow request time to be admitted, then drain. Bounded wait:
  // an unadmitted request must fail the test, not hang it.
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->in_flight() == 0 &&
         std::chrono::steady_clock::now() < wait_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(server_->in_flight(), 0u) << "slow request was never admitted";
  server_->Shutdown();
  client.Wait();
  // The in-flight request completed (drained, not dropped)...
  EXPECT_EQ(slow_status.load(), 200);
  // ...and new connections are refused after the drain.
  Result<TcpConn> conn = TcpConnect(port, std::chrono::milliseconds(200));
  if (conn.ok()) {
    // A racing connect may still land in the closed listener's backlog;
    // it must never be served.
    (void)conn->WriteAll(SerializeHttpRequest("GET", "/status", "", true));
    std::string buffer, body;
    int status = 0;
    Status st = ReadHttpResponse(*conn, &buffer, &status, &body);
    EXPECT_FALSE(st.ok() && status == 200);
  }
}

}  // namespace
}  // namespace dialite
