#include "server/server.h"

#include <charconv>
#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "obs/json.h"
#include "table/csv.h"

namespace dialite {

namespace {

/// Receive-timeout slice for parked keep-alive connections: the upper
/// bound on how long a drain waits for an idle connection to notice.
constexpr std::chrono::milliseconds kConnPoll(200);

/// Reads optional query parameter `key` into *out, which keeps its default
/// when the parameter is absent. False when present but not a decimal
/// uint64 of digits only (no sign, no blanks, no overflow).
bool ParamU64(const HttpRequest& req, const std::string& key, uint64_t* out) {
  auto it = req.query.find(key);
  if (it == req.query.end()) return true;
  const std::string& s = it->second;
  uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

/// `ms` as a timeout, saturating at the largest nanosecond count instead of
/// overflowing int64 (10^13 ms is already past it).
std::chrono::nanoseconds DeadlineTimeout(uint64_t ms) {
  constexpr uint64_t kMaxMs =
      static_cast<uint64_t>(std::chrono::nanoseconds::max().count()) /
      1'000'000;
  if (ms >= kMaxMs) return std::chrono::nanoseconds::max();
  return std::chrono::milliseconds(static_cast<int64_t>(ms));
}

/// Every served path but the opt-in test endpoint; each answers 405 to a
/// wrong method.
constexpr std::string_view kEndpoints[] = {
    "/status", "/metrics", "/discover", "/align", "/integrate", "/reload"};
constexpr char kTestSleepPath[] = "/_test/sleep";

bool IsEndpoint(const std::string& path) {
  for (std::string_view e : kEndpoints) {
    if (path == e) return true;
  }
  return false;
}

/// Splits "a,b,c" into non-empty segments.
std::vector<std::string> SplitCsvList(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// "server.request.discover" from "/discover". Every path that is not an
/// endpoint shares "server.request.unknown", so clients cannot mint metric
/// names.
std::string EndpointMetricName(const std::string& path) {
  std::string name = "server.request.";
  if (!IsEndpoint(path) && path != kTestSleepPath) return name + "unknown";
  for (size_t i = 1; i < path.size(); ++i) {
    name += path[i] == '/' ? '.' : path[i];
  }
  return name;
}

}  // namespace

int HttpStatusForCode(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeMismatch:
    case StatusCode::kOutOfRange:
      return 400;
    default:
      return 500;
  }
}

HttpResponse ErrorResponse(int http_status, std::string_view message) {
  HttpResponse resp;
  resp.status = http_status;
  resp.body = "{\"error\":";
  AppendJsonString(&resp.body, message);
  resp.body += "}";
  return resp;
}

DialiteServer::DialiteServer(const ServerOptions& options,
                             ObservabilityContext* obs)
    : options_(options), obs_(obs), service_(obs) {}

DialiteServer::~DialiteServer() { Shutdown(); }

Status DialiteServer::Start(const std::string& snapshot_path) {
  if (started_) return Status::InvalidArgument("server already started");
  DIALITE_RETURN_IF_ERROR(service_.Open(snapshot_path));
  DIALITE_RETURN_IF_ERROR(
      listener_.Listen(options_.port, /*backlog=*/256));
  pool_ = std::make_unique<ThreadPool>(options_.num_workers, obs_);
  accept_thread_ = std::make_unique<NetThread>([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void DialiteServer::Shutdown() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // Refuse new connections and wake the blocked Accept(); parked keep-alive
  // connections notice stopping_ within one kConnPoll slice; in-flight
  // requests run to completion (bounded by their own deadlines).
  listener_.Close();
  if (accept_thread_ != nullptr) accept_thread_->Join();
  if (pool_ != nullptr) pool_->Wait();
}

void DialiteServer::AcceptLoop() {
  for (;;) {
    Result<TcpConn> conn = listener_.Accept();
    if (!conn.ok()) return;  // listener closed: shutdown
    if (stopping_.load(std::memory_order_acquire)) {
      HttpResponse resp = ErrorResponse(503, "server is shutting down");
      resp.close = true;
      (void)conn->WriteAll(SerializeHttpResponse(resp));
      continue;
    }
    // Admission control, decided on the accept thread so overload answers
    // an immediate 503 instead of growing an unbounded worker queue.
    if (in_flight_.load(std::memory_order_relaxed) >= options_.max_admitted) {
      ObsAdd(obs_, "server.admission.rejected");
      HttpResponse resp =
          ErrorResponse(503, "server over capacity, retry later");
      resp.close = true;
      (void)conn->WriteAll(SerializeHttpResponse(resp));
      continue;
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    ObsAdd(obs_, "server.admission.accepted");
    // shared_ptr because std::function requires copyable captures.
    auto shared = std::make_shared<TcpConn>(std::move(*conn));
    pool_->Submit([this, shared] {
      ServeConnection(std::move(*shared));
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
}

void DialiteServer::ServeConnection(TcpConn conn) {
  (void)conn.SetRecvTimeout(kConnPoll);
  std::string buffer;
  uint64_t idle_ms = 0;
  for (;;) {
    Result<HttpRequest> req =
        ReadHttpRequest(conn, &buffer, options_.max_body_bytes);
    if (!req.ok()) {
      if (req.status().code() == StatusCode::kDeadlineExceeded) {
        // Receive-timeout slice with no complete request: park or give up.
        idle_ms += static_cast<uint64_t>(kConnPoll.count());
        if (stopping_.load(std::memory_order_acquire) ||
            idle_ms >= options_.idle_timeout_ms) {
          return;
        }
        continue;
      }
      if (req.status().code() == StatusCode::kUnavailable) return;  // EOF
      // Malformed request or oversized body: answer and close.
      int http = req.status().code() == StatusCode::kInvalidArgument
                     ? 413
                     : 400;
      HttpResponse resp = ErrorResponse(http, req.status().message());
      resp.close = true;
      (void)conn.WriteAll(SerializeHttpResponse(resp));
      return;
    }
    idle_ms = 0;

    CancelToken cancel;
    uint64_t deadline_ms = options_.default_deadline_ms;
    const bool deadline_ok = ParamU64(*req, "deadline_ms", &deadline_ms);
    if (deadline_ms > 0) cancel.SetDeadlineAfter(DeadlineTimeout(deadline_ms));

    HttpResponse resp;
    {
      ObsTimer timer(obs_, EndpointMetricName(req->path));
      resp = deadline_ok
                 ? Handle(*req, deadline_ms > 0 ? &cancel : nullptr)
                 : ErrorResponse(400, "deadline_ms must be a decimal integer");
    }
    ObsAdd(obs_, "server.http." + std::to_string(resp.status / 100) + "xx");
    const bool close = resp.close || req->WantsClose() ||
                       stopping_.load(std::memory_order_acquire);
    resp.close = close;
    if (!conn.WriteAll(SerializeHttpResponse(resp)).ok()) return;
    if (close) return;
  }
}

HttpResponse DialiteServer::Handle(const HttpRequest& req,
                                   const CancelToken* cancel) {
  if (req.path == "/status" && req.method == "GET") return HandleStatus();
  if (req.path == "/metrics" && req.method == "GET") return HandleMetrics();
  if (req.path == "/discover" && req.method == "POST") {
    return HandleDiscover(req, cancel);
  }
  if (req.path == "/align" && req.method == "POST") {
    return HandleAlign(req, cancel, /*integrate=*/false);
  }
  if (req.path == "/integrate" && req.method == "POST") {
    return HandleAlign(req, cancel, /*integrate=*/true);
  }
  if (req.path == "/reload" && req.method == "POST") {
    return HandleReload(req);
  }
  if (options_.enable_test_endpoints && req.path == kTestSleepPath &&
      req.method == "GET") {
    return HandleTestSleep(req, cancel);
  }
  if (IsEndpoint(req.path)) {
    return ErrorResponse(405, "wrong method for " + req.path);
  }
  return ErrorResponse(404, "no such endpoint: " + req.path);
}

HttpResponse DialiteServer::HandleStatus() const {
  std::shared_ptr<const Epoch> epoch = service_.current();
  HttpResponse resp;
  resp.body = "{\"status\":\"ok\"";
  if (epoch != nullptr) {
    resp.body += ",\"epoch\":" + std::to_string(epoch->id);
    resp.body += ",\"snapshot\":";
    AppendJsonString(&resp.body, epoch->snapshot_path);
    resp.body +=
        ",\"tables\":" + std::to_string(epoch->system->lake->size());
    resp.body += ",\"algorithms\":[";
    bool first = true;
    for (const std::string& name :
         epoch->system->dialite->DiscoveryAlgorithms()) {
      if (!first) resp.body += ",";
      first = false;
      AppendJsonString(&resp.body, name);
    }
    resp.body += "]";
  }
  resp.body +=
      ",\"in_flight\":" +
      std::to_string(in_flight_.load(std::memory_order_relaxed)) + "}";
  return resp;
}

HttpResponse DialiteServer::HandleMetrics() const {
  HttpResponse resp;
  resp.body = obs_ != nullptr ? obs_->ToJson() : "{}";
  return resp;
}

HttpResponse DialiteServer::HandleDiscover(const HttpRequest& req,
                                           const CancelToken* cancel) const {
  std::shared_ptr<const Epoch> epoch = service_.current();
  if (epoch == nullptr) return ErrorResponse(503, "no snapshot loaded");
  if (req.body.empty()) {
    return ErrorResponse(400, "POST /discover needs a CSV query table body");
  }
  uint64_t k = 10, column = 0;
  if (!ParamU64(req, "k", &k) || !ParamU64(req, "column", &column)) {
    return ErrorResponse(400, "k and column must be decimal integers");
  }
  Result<Table> query_table =
      CsvReader::Parse(req.body, req.Param("name", "query"));
  if (!query_table.ok()) {
    return ErrorResponse(400, query_table.status().message());
  }

  DiscoveryQuery query;
  query.table = &*query_table;
  query.cancel = cancel;
  query.k = static_cast<size_t>(k);
  query.query_column = static_cast<size_t>(column);
  const std::string algorithm = req.Param("algorithm", "santos");

  Result<std::vector<DiscoveryHit>> hits =
      epoch->system->dialite->Discover(query, algorithm);
  if (!hits.ok()) {
    return ErrorResponse(HttpStatusForCode(hits.status().code()),
                         hits.status().message());
  }
  HttpResponse resp;
  resp.body = "{\"epoch\":" + std::to_string(epoch->id) + ",\"algorithm\":";
  AppendJsonString(&resp.body, algorithm);
  resp.body += ",\"hits\":[";
  for (size_t i = 0; i < hits->size(); ++i) {
    if (i > 0) resp.body += ",";
    resp.body += "{\"table\":";
    AppendJsonString(&resp.body, (*hits)[i].table_name);
    resp.body += ",\"score\":" + FormatJsonDouble((*hits)[i].score) + "}";
  }
  resp.body += "]}";
  return resp;
}

HttpResponse DialiteServer::HandleAlign(const HttpRequest& req,
                                        const CancelToken* cancel,
                                        bool integrate) const {
  std::shared_ptr<const Epoch> epoch = service_.current();
  if (epoch == nullptr) return ErrorResponse(503, "no snapshot loaded");
  if (cancel != nullptr && cancel->Cancelled()) {
    return ErrorResponse(504, "deadline passed before alignment started");
  }

  // The integration set: an optional CSV body table (query first) plus
  // lake tables named in ?tables=a,b,c.
  std::optional<Table> body_table;
  std::vector<const Table*> tables;
  if (!req.body.empty()) {
    Result<Table> parsed =
        CsvReader::Parse(req.body, req.Param("name", "query"));
    if (!parsed.ok()) {
      return ErrorResponse(400, parsed.status().message());
    }
    body_table = std::move(*parsed);
    tables.push_back(&*body_table);
  }
  const DataLake& lake = *epoch->system->lake;
  for (const std::string& name : SplitCsvList(req.Param("tables"))) {
    const Table* t = lake.Get(name);
    if (t == nullptr) {
      return ErrorResponse(404, "lake has no table named '" + name + "'");
    }
    tables.push_back(t);
  }
  if (tables.size() < 2) {
    return ErrorResponse(
        400, "need at least two tables (?tables=a,b and/or a CSV body)");
  }

  // The token flows through the matcher's merge loop and the FD fixpoint,
  // so an expired deadline surfaces here as kDeadlineExceeded (→ 504)
  // within one iteration of whichever kernel was running.
  Result<IntegrationResult> result = epoch->system->dialite->AlignAndIntegrate(
      tables, req.Param("op", "alite_fd"),
      req.Param("matcher", "alite_holistic"), cancel);
  if (!result.ok()) {
    return ErrorResponse(HttpStatusForCode(result.status().code()),
                         result.status().message());
  }

  HttpResponse resp;
  if (integrate) {
    resp.content_type = "text/csv";
    resp.body = CsvWriter::ToString(result->table);
    return resp;
  }
  const Alignment& alignment = result->alignment;
  resp.body = "{\"epoch\":" + std::to_string(epoch->id) + ",\"matcher\":";
  AppendJsonString(&resp.body, result->matcher);
  resp.body += ",\"clusters\":[";
  for (size_t id = 0; id < alignment.num_clusters(); ++id) {
    if (id > 0) resp.body += ",";
    resp.body += "{\"name\":";
    AppendJsonString(&resp.body, alignment.IdName(id));
    resp.body += ",\"columns\":[";
    const std::vector<ColumnRef>& members = alignment.cluster(id);
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) resp.body += ",";
      resp.body += "{\"table\":";
      AppendJsonString(&resp.body, members[i].table);
      resp.body += ",\"column\":" + std::to_string(members[i].column) + "}";
    }
    resp.body += "]}";
  }
  resp.body += "]}";
  return resp;
}

HttpResponse DialiteServer::HandleReload(const HttpRequest& req) {
  Status st = service_.Reload(req.Param("snapshot"));
  if (!st.ok()) {
    return ErrorResponse(HttpStatusForCode(st.code()), st.message());
  }
  std::shared_ptr<const Epoch> epoch = service_.current();
  HttpResponse resp;
  resp.body = "{\"reloaded\":true,\"epoch\":" +
              std::to_string(epoch != nullptr ? epoch->id : 0) + "}";
  return resp;
}

HttpResponse DialiteServer::HandleTestSleep(const HttpRequest& req,
                                            const CancelToken* cancel) const {
  uint64_t ms = 100;
  if (!ParamU64(req, "ms", &ms)) {
    return ErrorResponse(400, "ms must be a decimal integer");
  }
  uint64_t slept = 0;
  while (slept < ms) {
    if (cancel != nullptr && cancel->Cancelled()) {
      return ErrorResponse(504, "deadline exceeded after " +
                                    std::to_string(slept) + "ms of sleep");
    }
    // analyze: allow-blocking(deadline-test endpoint sleeps in 2ms slices, polling cancel each slice)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    slept += 2;
  }
  HttpResponse resp;
  resp.body = "{\"slept_ms\":" + std::to_string(ms) + "}";
  return resp;
}

}  // namespace dialite
