// servebench — load driver of the DIALITE serving benchmark.
//
//   servebench --workload discover|integrate --seed N --seconds S
//              --trace 0|1 --server <dialited> --work-dir <dir>
//              [--trace-out <file>]
//
// It generates the reference lake, sets up a served snapshot (CSV load,
// index build, snapshot save, dialited start) five times, and drives the
// last server over loopback HTTP in a closed loop from four connections
// with operations drawn from the seed, checking every answer. The last
// line of stdout is the result as JSON: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1.
// servebench/run.py builds this program and runs it; see README.md.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "client.h"
#include "core/dialite.h"
#include "core/eval.h"
#include "lake/data_lake.h"
#include "replay.h"
#include "spans.h"
#include "table/csv.h"
#include "workload.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kConnections = 4;
constexpr size_t kSetupRepeats = 5;
constexpr size_t kQuietReloads = 3;
/// The quality probe's integration set: the query plus its top 2 distinct
/// hits.
constexpr size_t kProbeSetTables = 3;
constexpr uint64_t kTimedStreams = 0;
constexpr uint64_t kWarmupStreams = 1000;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kDiscover;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string dialited;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload_name = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--server") {
      args->dialited = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_trace && args->seconds > 0 &&
         !args->dialited.empty() && !args->work_dir.empty() &&
         ParseWorkload(args->workload_name, &args->workload);
}

/// A fresh temporary directory for one run's CSV lake and snapshots,
/// removed with everything in it when the run ends.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    std::error_code ec;
    fs::create_directories(parent, ec);
    std::string templ = parent + "/run-XXXXXX";
    if (mkdtemp(templ.data()) != nullptr) path_ = templ;
  }
  ~RunDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Reads a "<key>: <n> kB" line of /proc/<pid>/status, in MB (2^20 bytes).
double ProcStatusMb(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets the peak-RSS mark (VmHWM) of `pid` to its current RSS.
bool ResetPeakRss(pid_t pid) {
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// dialited in a process of its own, on a kernel-assigned port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `dialited --snapshot <snapshot> --port 0` and waits for its
  /// first 200 on GET /status; false (with the process stopped) on failure.
  bool Start(const std::string& dialited, const std::string& snapshot) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      dup2(fds[1], STDERR_FILENO);
      execl(dialited.c_str(), dialited.c_str(), "--snapshot", snapshot.c_str(),
            "--port", "0", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    // Kept open until the process is reaped, so its shutdown messages
    // never meet a closed pipe.
    err_fd_ = fds[0];
    // Once it listens, dialited says "dialited: serving <snapshot> on
    // 127.0.0.1:<port>" on stderr.
    std::string line;
    const int64_t deadline = NowNs() + 120'000'000'000LL;
    while (line.find('\n') == std::string::npos) {
      pollfd p{err_fd_, POLLIN, 0};
      const int64_t left_ms = (deadline - NowNs()) / 1'000'000;
      if (left_ms <= 0 || poll(&p, 1, static_cast<int>(left_ms)) <= 0) break;
      char buf[256];
      ssize_t n = read(err_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    const std::string marker = " on 127.0.0.1:";
    const size_t at = line.find(marker);
    if (at == std::string::npos) {
      std::fprintf(stderr, "servebench: dialited did not start: %s\n",
                   line.c_str());
      Stop();
      return false;
    }
    port_ = static_cast<uint16_t>(
        std::strtoul(line.c_str() + at + marker.size(), nullptr, 10));
    Request status;
    status.method = "GET";
    status.target = "/status";
    while (NowNs() < deadline) {
      if (SendOnce(port_, status).status == 200) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Stop();
    return false;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 20 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 20'000'000'000LL;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    pid_ = -1;
    if (err_fd_ >= 0) close(err_fd_);
    err_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  uint16_t port_ = 0;
};

/// Linear-interpolated percentile of a sorted sample (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

/// What every closed-loop thread reads.
struct Context {
  const GeneratedLake* lake = nullptr;
  std::unordered_set<std::string> served;
  uint16_t port = 0;
};

/// Checks one response; fills `hits` for /discover.
bool CheckResponse(const Context& ctx, size_t query, const OpRequest& req,
                   const Response& resp, std::vector<Hit>* hits) {
  if (resp.status != 200) return false;
  switch (req.kind) {
    case OpRequest::kDiscover: {
      if (!ParseHits(resp.body, hits) || hits->size() > 10) return false;
      for (const Hit& h : *hits) {
        if (!ctx.served.count(h.table)) return false;
      }
      return true;
    }
    case OpRequest::kAlign: {
      std::vector<Cluster> clusters;
      std::vector<std::pair<std::string, size_t>> tables = {
          {"query", ctx.lake->queries[query].table->num_columns()}};
      for (const std::string& t : req.tables) {
        tables.emplace_back(t, ctx.lake->gen.lake.Get(t)->num_columns());
      }
      return ParseClusters(resp.body, &clusters) &&
             ClustersPartition(clusters, tables);
    }
    case OpRequest::kIntegrate:
      return LooksLikeCsvTable(resp.body);
  }
  return false;
}

struct LoopConfig {
  Workload workload = Workload::kDiscover;
  uint64_t seed = 0;
  uint64_t stream_base = kTimedStreams;
  double seconds = 0.0;
  size_t sample_per_thread = 0;
  bool traced = false;
};

/// One closed-loop connection's results.
struct ThreadOut {
  explicit ThreadOut(uint64_t span_base) : spans(span_base) {}
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t correct = 0;
  std::vector<double> latencies_us;
  std::vector<RecordedRequest> sample;
  std::map<std::string, std::pair<uint64_t, uint64_t>> discover_empty;
  std::vector<std::string> errors;
  int64_t end_ns = 0;
  SpanLog spans;
};

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t correct = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_us;  ///< sorted
  std::vector<std::unique_ptr<ThreadOut>> threads;

  double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(correct) / elapsed_s : 0.0;
  }
  double p50_ms() const { return Percentile(latencies_us, 0.50) / 1e3; }
  double p99_ms() const { return Percentile(latencies_us, 0.99) / 1e3; }
};

void NoteError(ThreadOut* out, const std::string& what) {
  if (out->errors.size() < 5) out->errors.push_back(what);
}

/// Sends one operation's request on the keep-alive connection and checks
/// its answer; true if it checked out. The latency recorded runs from the
/// first byte sent to the last byte read (traced: under a span), so the
/// checks stay out of it.
bool ExecuteOp(const Context& ctx, const Operation& op, bool traced,
               Connection* conn, RecordedRequest* rec, ThreadOut* out) {
  if (!conn->is_open() && !conn->Open(ctx.port)) {
    NoteError(out, "connect failed");
    return false;
  }
  const OpRequest& req = op.request;
  const uint64_t span = traced ? out->spans.Begin("operation") : 0;
  const int64_t t0 = NowNs();
  Response resp = conn->Send(req.request);
  const double us = static_cast<double>(NowNs() - t0) / 1e3;
  if (traced) out->spans.End(span);
  out->latencies_us.push_back(us);
  std::vector<Hit> hits;
  const bool ok = CheckResponse(ctx, op.query, req, resp, &hits);
  if (!ok) {
    NoteError(out, req.request.target + " -> " + std::to_string(resp.status) +
                       " " + resp.body.substr(0, 200));
  }
  if (req.kind == OpRequest::kDiscover && ok) {
    auto& tally = out->discover_empty[req.algorithm];
    ++tally.first;
    tally.second += hits.empty() ? 1 : 0;
  }
  if (rec != nullptr) *rec = RecordedRequest{req, std::move(resp), us};
  return ok;
}

void RunConnection(const Context& ctx, const LoopConfig& cfg, size_t index,
                   int64_t end_ns, ThreadOut* out) {
  OpStream stream(*ctx.lake, cfg.workload, cfg.seed, cfg.stream_base + index);
  Connection conn;
  while (NowNs() < end_ns) {
    const Operation op = stream.Next();
    const bool sampled = out->sample.size() < cfg.sample_per_thread;
    RecordedRequest rec;
    ++out->attempted;
    if (ExecuteOp(ctx, op, cfg.traced, &conn, sampled ? &rec : nullptr,
                  out)) {
      ++out->correct;
    } else {
      ++out->failed;
    }
    if (sampled) out->sample.push_back(std::move(rec));
  }
  out->end_ns = NowNs();
}

LoopResult RunClosedLoop(const Context& ctx, const LoopConfig& cfg) {
  LoopResult result;
  for (size_t i = 0; i < kConnections; ++i) {
    result.threads.push_back(
        std::make_unique<ThreadOut>(static_cast<uint64_t>(i + 1) << 40));
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kConnections; ++i) {
    threads.emplace_back(RunConnection, std::cref(ctx), std::cref(cfg), i, end,
                         result.threads[i].get());
  }
  for (std::thread& t : threads) t.join();
  int64_t last = start;
  for (const auto& t : result.threads) {
    result.attempted += t->attempted;
    result.failed += t->failed;
    result.correct += t->correct;
    result.latencies_us.insert(result.latencies_us.end(),
                               t->latencies_us.begin(), t->latencies_us.end());
    last = std::max(last, t->end_ns);
    for (const std::string& e : t->errors) {
      std::fprintf(stderr, "servebench: failed: %s\n", e.c_str());
    }
  }
  std::sort(result.latencies_us.begin(), result.latencies_us.end());
  result.elapsed_s = static_cast<double>(last - start) / 1e9;
  return result;
}

/// Result quality of what the server answers, against the generator's
/// ground truth: every held-out query through /discover with each
/// algorithm, and each integrable one through /align on the integration
/// set its santos, lsh_ensemble and josie hits pick.
struct Quality {
  double precision_at_10 = 0.0;
  double alignment_f1 = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The /align answers, for comparison with the library's.
  std::vector<RecordedRequest> align_answers;
};

Quality MeasureQuality(const Context& ctx) {
  const GeneratedLake& lake = *ctx.lake;
  const dialite::GroundTruth& truth = lake.gen.truth;
  // Only for FormIntegrationSet, which needs the lake but no index.
  const dialite::Dialite picker(&lake.gen.lake);
  Quality q;
  Connection conn;
  double precision_sum = 0.0, f1_sum = 0.0;
  size_t precision_n = 0, f1_n = 0;
  for (size_t i = 0; i < lake.queries.size(); ++i) {
    const QuerySource& src = lake.queries[i];
    const std::string& name = src.table->name();
    const std::vector<std::string> unionable = truth.UnionableWith(name);
    const std::vector<std::string> joinable =
        truth.JoinableWith(lake.gen.lake, name, src.intent_column);
    std::map<std::string, std::vector<dialite::DiscoveryHit>> set_hits;
    for (const std::string& algorithm : Algorithms()) {
      const OpRequest req = DiscoverRequest(lake, i, algorithm);
      if (!conn.is_open()) conn.Open(ctx.port);
      const Response resp = conn.Send(req.request);
      std::vector<Hit> hits;
      ++q.attempted;
      if (!CheckResponse(ctx, i, req, resp, &hits)) {
        ++q.failed;
        continue;
      }
      std::vector<dialite::DiscoveryHit> ranked;
      for (const Hit& h : hits) {
        ranked.push_back({h.table, std::strtod(h.score.c_str(), nullptr)});
      }
      const std::vector<std::string>& relevant =
          IsJoinAlgorithm(algorithm) ? joinable : unionable;
      if (!relevant.empty()) {
        precision_sum += dialite::EvaluateRanking(ranked, relevant, 10)
                             .precision_at_k;
        ++precision_n;
      }
      if (std::find(SetAlgorithms().begin(), SetAlgorithms().end(),
                    algorithm) != SetAlgorithms().end()) {
        set_hits[algorithm] = std::move(ranked);
      }
    }
    const bool integrable = std::find(lake.integrable.begin(),
                                      lake.integrable.end(),
                                      i) != lake.integrable.end();
    const std::vector<const dialite::Table*> tables =
        picker.FormIntegrationSet(*src.table, set_hits, kProbeSetTables);
    if (!integrable || tables.size() < 2) continue;
    std::vector<std::string> set;
    for (size_t t = 1; t < tables.size(); ++t) {
      set.push_back(tables[t]->name());
    }
    const OpRequest req = SetRequest(lake, i, OpRequest::kAlign, set);
    if (!conn.is_open()) conn.Open(ctx.port);
    Response resp = conn.Send(req.request);
    std::vector<Cluster> clusters;
    ++q.attempted;
    if (!CheckResponse(ctx, i, req, resp, nullptr) ||
        !ParseClusters(resp.body, &clusters)) {
      ++q.failed;
      continue;
    }
    q.align_answers.push_back(RecordedRequest{req, std::move(resp), 0.0});
    // The server names the body table "query"; truth knows it by name.
    dialite::Alignment alignment;
    for (const Cluster& c : clusters) {
      std::vector<dialite::ColumnRef> members;
      for (const auto& [table, column] : c.columns) {
        members.push_back({table == "query" ? name : table, column});
      }
      alignment.AddCluster(std::move(members), c.name);
    }
    f1_sum += dialite::EvaluateAlignment(alignment, truth, tables).f1;
    ++f1_n;
  }
  q.precision_at_10 =
      precision_n > 0 ? precision_sum / static_cast<double>(precision_n) : 0.0;
  q.alignment_f1 = f1_n > 0 ? f1_sum / static_cast<double>(f1_n) : 0.0;
  return q;
}

/// Mean of the histogram "<name>" in a GET /metrics document, or 0.
double HistogramMean(const std::string& metrics_json, const std::string& name) {
  const size_t at = metrics_json.find("\"" + name + "\":{");
  if (at == std::string::npos) return 0.0;
  auto field = [&](const std::string& key) {
    const size_t k = metrics_json.find("\"" + key + "\":", at);
    return k == std::string::npos
               ? 0.0
               : std::strtod(metrics_json.c_str() + k + key.size() + 3,
                             nullptr);
  };
  const double count = field("count");
  return count > 0 ? field("sum") / count : 0.0;
}

std::string FormatNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

size_t SamplePerConnection(Workload w) {
  return w == Workload::kDiscover ? 32 : 16;
}

/// Set-up timings of one repetition.
struct SetupTimes {
  double total_s = 0.0;
  double load_csv_s = 0.0;
  double build_indexes_s = 0.0;
  double save_s = 0.0;
  double start_s = 0.0;
};

/// From the CSV lake on disk to dialited's first 200: load, index build,
/// snapshot save (to a fresh path), then dialited opens the snapshot.
/// The build-side lake and facade are destroyed before the server starts.
bool SetUp(const std::string& lake_dir, const std::string& snapshot,
           const std::string& dialited, ServerProcess* server,
           SetupTimes* t, SpanLog* log) {
  const int64_t t0 = NowNs();
  const uint64_t setup_span = log->Begin("setup");
  {
    dialite::DataLake lake;
    uint64_t span = log->Begin("DataLake::LoadDirectory", setup_span);
    dialite::Result<size_t> loaded = lake.LoadDirectory(lake_dir);
    log->End(span);
    t->load_csv_s = log->DurationUs(span) / 1e6;
    if (!loaded.ok()) {
      std::fprintf(stderr, "servebench: %s\n",
                   loaded.status().message().c_str());
      return false;
    }
    dialite::Dialite dialite(&lake);
    if (!dialite.RegisterDefaults().ok()) return false;
    span = log->Begin("Dialite::BuildIndexes", setup_span);
    dialite::Status built = dialite.BuildIndexes();
    log->End(span);
    t->build_indexes_s = log->DurationUs(span) / 1e6;
    if (!built.ok()) return false;
    span = log->Begin("Dialite::SaveSnapshot", setup_span);
    dialite::Status saved = dialite.SaveSnapshot(snapshot);
    log->End(span);
    t->save_s = log->DurationUs(span) / 1e6;
    if (!saved.ok()) {
      std::fprintf(stderr, "servebench: %s\n", saved.message().c_str());
      return false;
    }
  }
  const uint64_t span = log->Begin("server start", setup_span);
  const bool started = server->Start(dialited, snapshot);
  log->End(span);
  log->End(setup_span);
  t->start_s = log->DurationUs(span) / 1e6;
  t->total_s = static_cast<double>(NowNs() - t0) / 1e9;
  return started;
}

int Run(const Args& args) {
  const int64_t run_start = NowNs();
  auto phase = [&](const char* what) {
    std::fprintf(stderr, "servebench: %7.2fs %s\n",
                 static_cast<double>(NowNs() - run_start) / 1e9, what);
  };
  RunDir dir(args.work_dir);
  if (dir.path().empty()) {
    std::fprintf(stderr, "servebench: cannot create a run directory in %s\n",
                 args.work_dir.c_str());
    return 1;
  }

  const GeneratedLake lake = GenerateLake();
  const std::string lake_dir = dir.path() + "/lake";
  fs::create_directories(lake_dir);
  for (const std::string& name : lake.served) {
    if (!dialite::CsvWriter::WriteFile(*lake.gen.lake.Get(name),
                                       lake_dir + "/" + name + ".csv")
             .ok()) {
      std::fprintf(stderr, "servebench: cannot write the CSV lake\n");
      return 1;
    }
  }
  phase("lake generated");

  // Set up several times and report medians; the last server stays up.
  SpanLog setup_log(uint64_t{1} << 50);
  ServerProcess server;
  std::vector<SetupTimes> setups;
  std::string snapshot;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) {
      server.Stop();
      fs::remove_all(fs::path(snapshot).parent_path());
    }
    const std::string snap_dir = dir.path() + "/snap" + std::to_string(i);
    fs::create_directories(snap_dir);
    snapshot = snap_dir + "/lake.dialsnap";
    SetupTimes t;
    if (!SetUp(lake_dir, snapshot, args.dialited, &server, &t,
               &setup_log)) {
      std::fprintf(stderr, "servebench: set-up failed\n");
      return 1;
    }
    setups.push_back(t);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  const double snapshot_bytes = static_cast<double>(fs::file_size(snapshot));
  phase("set up");

  Context ctx;
  ctx.lake = &lake;
  ctx.served.insert(lake.served.begin(), lake.served.end());
  ctx.port = server.port();

  LoopConfig cfg;
  cfg.workload = args.workload;
  cfg.seed = args.seed;
  uint64_t attempted = 0, failed = 0;

  LoopConfig warmup = cfg;
  warmup.stream_base = kWarmupStreams;
  warmup.seconds = std::clamp(args.seconds / 5.0, 0.5, 2.0);
  LoopResult warm = RunClosedLoop(ctx, warmup);
  attempted += warm.attempted;
  failed += warm.failed;
  const bool peak_reset = ResetPeakRss(server.pid());
  const double rss_after_warmup = ProcStatusMb(server.pid(), "VmRSS:");
  phase("warmed up");

  LoopConfig timed = cfg;
  timed.seconds = args.seconds;
  timed.sample_per_thread = SamplePerConnection(args.workload);
  LoopResult loop = RunClosedLoop(ctx, timed);
  attempted += loop.attempted;
  failed += loop.failed;
  const double peak_rss_mb = ProcStatusMb(server.pid(), "VmHWM:");
  const double rss_end = ProcStatusMb(server.pid(), "VmRSS:");
  Request metrics_req;
  metrics_req.method = "GET";
  metrics_req.target = "/metrics";
  const Response metrics = SendOnce(ctx.port, metrics_req);
  ++attempted;
  if (metrics.status != 200) ++failed;
  phase("timed loop done");

  const Quality quality = MeasureQuality(ctx);
  attempted += quality.attempted;
  failed += quality.failed;
  phase("quality measured");

  LoopResult traced_loop;
  std::vector<double> quiet_reload_ms;
  if (args.trace) {
    LoopConfig traced = timed;
    traced.traced = true;
    traced_loop = RunClosedLoop(ctx, traced);
    attempted += traced_loop.attempted;
    failed += traced_loop.failed;
    for (size_t i = 0; i < kQuietReloads; ++i) {
      Request reload;
      reload.target = "/reload";
      const int64_t r0 = NowNs();
      const Response resp = SendOnce(ctx.port, reload);
      quiet_reload_ms.push_back(static_cast<double>(NowNs() - r0) / 1e6);
      ++attempted;
      if (resp.status != 200) ++failed;
    }
    phase("traced loop done");
  }
  server.Stop();

  // Compare the sample with the library's answers to the same input
  // (traced: also time, count and span every layer call).
  Replayer replayer(snapshot, args.trace);
  if (!replayer.ok()) {
    std::fprintf(stderr, "servebench: cannot open %s\n", snapshot.c_str());
    return 1;
  }
  SpanLog replay_log(uint64_t{2} << 50);
  size_t mismatches = 0;
  for (size_t t = 0; t < loop.threads.size(); ++t) {
    const std::vector<RecordedRequest>& sample = loop.threads[t]->sample;
    for (size_t i = 0; i < sample.size(); ++i) {
      double client_us = 0.0;
      if (args.trace && t < traced_loop.threads.size() &&
          i < traced_loop.threads[t]->sample.size()) {
        client_us = traced_loop.threads[t]->sample[i].latency_us;
      }
      const uint64_t span =
          args.trace ? replay_log.Begin("replay " + args.workload_name) : 0;
      if (!replayer.Replay(sample[i], client_us,
                           args.trace ? &replay_log : nullptr, span)) {
        ++mismatches;
      }
      if (args.trace) replay_log.End(span);
    }
  }
  // The probe's /align answers, on a replayer and span log of their own,
  // so that they stay out of the per-layer figures and the span summary;
  // the trace file still shows /align paying for FD.
  Replayer checker(snapshot, /*traced=*/false);
  if (!checker.ok()) {
    std::fprintf(stderr, "servebench: cannot open %s\n", snapshot.c_str());
    return 1;
  }
  SpanLog probe_log(uint64_t{3} << 50);
  for (const RecordedRequest& r : quality.align_answers) {
    const uint64_t span = args.trace ? probe_log.Begin("replay probe") : 0;
    if (!checker.Replay(r, 0.0, args.trace ? &probe_log : nullptr, span)) {
      ++mismatches;
    }
    if (args.trace) probe_log.End(span);
  }
  failed += mismatches;
  if (mismatches > 0) {
    std::fprintf(stderr, "servebench: %zu answers differ from the library\n",
                 mismatches);
  }
  phase("sample checked");

  std::vector<Metric> out;
  if (!args.trace) {
    out = {
        {"setup_s", median_of(&SetupTimes::total_s), "s"},
        {"throughput_ops_s", loop.throughput(), "ops/s"},
        {"latency_p50_ms", loop.p50_ms(), "ms"},
        {"latency_p99_ms", loop.p99_ms(), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"snapshot_mb", snapshot_bytes / (1024.0 * 1024.0), "MB"},
        {"hit_precision_at_10", quality.precision_at_10, "ratio"},
        {"alignment_f1", quality.alignment_f1, "ratio"},
    };
  } else {
    out = replayer.LayerMetrics();
    auto add = [&](const std::string& name, double value, const char* unit) {
      out.push_back(Metric{name, value, unit});
    };
    add("server.pool_wait_us",
        HistogramMean(metrics.body, "threadpool.task_wait_ns") / 1e3, "us");
    add("server.reload_ms", Median(quiet_reload_ms), "ms");
    add("server.start_s", median_of(&SetupTimes::start_s), "s");
    add("obs.rss_growth_mb", rss_end - rss_after_warmup, "MB");
    add("obs.metrics_bytes", static_cast<double>(metrics.body.size()),
        "bytes");
    add("lake.load_csv_s", median_of(&SetupTimes::load_csv_s), "s");
    add("core.build_indexes_s", median_of(&SetupTimes::build_indexes_s), "s");
    add("snapshot.save_s", median_of(&SetupTimes::save_s), "s");
    add("snapshot.open_s", replayer.open_s(), "s");
    add("snapshot.bytes", snapshot_bytes, "bytes");
    std::map<std::string, std::pair<uint64_t, uint64_t>> empty;
    for (const auto& t : loop.threads) {
      for (const auto& [algo, tally] : t->discover_empty) {
        empty[algo].first += tally.first;
        empty[algo].second += tally.second;
      }
    }
    for (const std::string& a : Algorithms()) {
      const auto& tally = empty[a];
      add("discovery." + a + ".empty_share",
          tally.first > 0 ? static_cast<double>(tally.second) /
                                static_cast<double>(tally.first)
                          : 0.0,
          "ratio");
    }
    add("trace.overhead_throughput_ops_s",
        traced_loop.throughput() - loop.throughput(), "ops/s");
    add("trace.overhead_latency_p50_ms", traced_loop.p50_ms() - loop.p50_ms(),
        "ms");
    add("trace.overhead_latency_p99_ms", traced_loop.p99_ms() - loop.p99_ms(),
        "ms");

    std::vector<const SpanLog*> logs = {&setup_log, &replay_log};
    for (const auto& t : traced_loop.threads) logs.push_back(&t->spans);
    const std::vector<SpanSummary> summary = Summarize(logs);
    std::fprintf(stderr, "%-44s %8s %14s %14s\n", "span", "count",
                 "mean_us", "mean_self_us");
    for (const SpanSummary& s : summary) {
      if (s.name.rfind("POST ", 0) == 0 || s.name.rfind("GET ", 0) == 0) {
        continue;  // one row per distinct target; the layers say enough
      }
      std::fprintf(stderr, "%-44s %8llu %14.1f %14.1f\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.count),
                   s.total_us / static_cast<double>(s.count),
                   s.self_us / static_cast<double>(s.count));
    }
    if (!args.trace_out.empty()) {
      const std::string header =
          "{\"workload\":\"" + args.workload_name +
          "\",\"seed\":" + std::to_string(args.seed) +
          ",\"seconds\":" + FormatNumber(args.seconds) + "}";
      logs.push_back(&probe_log);
      if (!WriteTrace(args.trace_out, header, logs, summary)) {
        std::fprintf(stderr, "servebench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }
  }
  if (!peak_reset) {
    std::fprintf(stderr, "servebench: could not reset the peak RSS mark\n");
  }
  std::fprintf(stderr,
               "servebench: %llu operations in the timed loop (%llu failed), "
               "%.2f s\n",
               static_cast<unsigned long long>(loop.attempted),
               static_cast<unsigned long long>(loop.failed), loop.elapsed_s);
  phase("done");
  std::printf("%s\n", ResultJson(failed == 0, attempted, failed, out).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload discover|integrate --seed N "
                 "--seconds S --trace 0|1 --server <dialited> "
                 "--work-dir <dir> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  return servebench::Run(args);
}
