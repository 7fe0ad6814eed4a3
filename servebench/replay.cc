#include "replay.h"

#include <chrono>
#include <cstdlib>
#include <optional>

#include "alloc_count.h"
#include "checks.h"
#include "server/http.h"
#include "table/csv.h"

namespace servebench {

namespace {

/// The algorithms that run the tiered cascade and so publish
/// discover.<algo>.cascade.scored_exact.
bool Cascaded(const std::string& algorithm) {
  return algorithm == "josie" || algorithm == "lsh_ensemble" ||
         algorithm == "santos" || algorithm == "tus";
}

std::string ScoredExactCounter(const std::string& algorithm) {
  return "discover." + algorithm + ".cascade.scored_exact";
}

const std::vector<std::string>& AlignCounters() {
  static const std::vector<std::string> kNames = {"align.pair_evals",
                                                  "align.merges"};
  return kNames;
}

const std::vector<std::string>& FdCounters() {
  static const std::vector<std::string> kNames = {
      "integrate.fd.fixpoint_iterations", "integrate.fd.rows_scanned",
      "integrate.fd.merges", "integrate.fd.subsumed_tuples",
      "integrate.fd.output_rows"};
  return kNames;
}

/// The handler's query-parameter parse: a number, else the fallback.
size_t ParamU64(const dialite::HttpRequest& req, const std::string& key,
                size_t fallback) {
  const std::string s = req.Param(key);
  if (s.empty()) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0' ? static_cast<size_t>(v) : fallback;
}

std::vector<std::string> SplitNames(const std::string& s) {
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

template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e3;
}

/// Runs `fn` under a child span of `parent` (when logging), counting its
/// allocations into `*allocs` (when non-null); returns its wall time.
template <typename Fn>
double Call(SpanLog* log, uint64_t parent, const char* name, uint64_t* allocs,
            Fn&& fn) {
  const uint64_t id = log != nullptr ? log->Begin(name, parent) : 0;
  double us = 0.0;
  if (allocs != nullptr) {
    AllocScope scope;
    us = TimeUs(fn);
    *allocs += scope.count();
  } else {
    us = TimeUs(fn);
  }
  if (log != nullptr) log->End(id);
  return us;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Replayer::Replayer(const std::string& snapshot_path, bool traced)
    : traced_(traced) {
  matcher_.set_observability(&obs_);
  fd_.set_observability(&obs_);
  const int64_t t0 = NowNs();
  dialite::Result<dialite::SnapshotSystem> sys =
      dialite::Dialite::OpenSnapshot(snapshot_path, &obs_);
  open_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  if (!sys.ok()) return;
  system_ = std::move(*sys);
  if (traced_) {
    handle_server_ = std::make_unique<dialite::DialiteServer>(
        dialite::ServerOptions{}, &handle_obs_);
    if (!handle_server_->lake_service().Open(snapshot_path).ok()) {
      system_.dialite.reset();
    }
  }
}

bool Replayer::Replay(const RecordedRequest& rr, double client_latency_us,
                      SpanLog* log, uint64_t parent) {
  const OpRequest& op = rr.op;
  const dialite::ServerOptions defaults;
  // Alternate which of the armed / unarmed calls runs first, so neither
  // always finds warm caches.
  const bool armed_first = (requests_++ % 2) == 0;
  request_bytes_ += static_cast<double>(op.request.body.size());
  response_bytes_ += static_cast<double>(rr.response.body.size());
  const std::string raw = dialite::SerializeHttpRequest(
      op.request.method, op.request.target, op.request.body);
  const uint64_t req_span =
      log != nullptr ? log->Begin(op.request.method + " " + op.request.target,
                                  parent)
                     : 0;
  struct EndSpan {
    SpanLog* log;
    uint64_t id;
    ~EndSpan() {
      if (log != nullptr) log->End(id);
    }
  } end_span{log, req_span};
  uint64_t* const no_count = nullptr;
  auto allocs_of = [&](Layer& layer) {
    return traced_ ? &layer.allocs : no_count;
  };
  // Armed and (traced only) unarmed runs of one layer call, in alternating
  // order; the armed one is the answer, under a span, with allocations and
  // counter deltas recorded. Returns the armed call's time.
  auto run_pair = [&](Layer& layer, const char* span_name,
                      const std::vector<std::string>& counters,
                      const auto& armed_fn, const auto& unarmed_fn) {
    double armed_us = 0.0;
    auto armed = [&] {
      std::vector<uint64_t> before;
      for (const std::string& c : counters) {
        before.push_back(obs_.metrics().CounterValue(c));
      }
      armed_us = Call(log, req_span, span_name, allocs_of(layer), armed_fn);
      for (size_t i = 0; i < counters.size(); ++i) {
        layer.counters[counters[i]] +=
            obs_.metrics().CounterValue(counters[i]) - before[i];
      }
    };
    auto unarmed = [&] { layer.unarmed_us += TimeUs(unarmed_fn); };
    if (!traced_) {
      armed();
    } else if (armed_first) {
      armed();
      unarmed();
    } else {
      unarmed();
      armed();
    }
    ++layer.calls;
    layer.armed_us += armed_us;
    return armed_us;
  };

  dialite::HttpRequest req;
  size_t consumed = 0;
  dialite::Status parsed;
  Call(log, req_span, "ParseHttpRequest", no_count, [&] {
    parsed =
        dialite::ParseHttpRequest(raw, defaults.max_body_bytes, &req, &consumed);
  });
  if (!parsed.ok() || consumed != raw.size()) return false;

  dialite::CancelToken cancel;
  cancel.SetDeadlineAfter(
      std::chrono::milliseconds(defaults.default_deadline_ms));

  Layer& parse = layers_["table.csv_parse"];
  std::optional<dialite::Result<dialite::Table>> body;
  const double parse_us =
      Call(log, req_span, "CsvReader::Parse", allocs_of(parse), [&] {
        body.emplace(
            dialite::CsvReader::Parse(req.body, req.Param("name", "query")));
      });
  ++parse.calls;
  parse.armed_us += parse_us;
  if (!body->ok()) return false;
  const dialite::Table& query_table = **body;
  double children_us = parse_us;
  bool same = false;

  if (op.kind == OpRequest::kDiscover) {
    const std::string algorithm = req.Param("algorithm", "santos");
    dialite::DiscoveryQuery query;
    query.table = &query_table;
    query.k = ParamU64(req, "k", 10);
    query.query_column = ParamU64(req, "column", 0);
    Layer& layer = layers_["discovery." + algorithm];
    std::vector<std::string> counters;
    if (Cascaded(algorithm)) counters.push_back(ScoredExactCounter(algorithm));
    std::optional<dialite::Result<std::vector<dialite::DiscoveryHit>>> hits;
    children_us += run_pair(
        layer, "Dialite::Discover", counters,
        [&] {
          query.cancel = &cancel;
          hits.emplace(system_.dialite->Discover(query, algorithm));
        },
        [&] {
          query.cancel = nullptr;
          (void)system_.dialite->Discover(query, algorithm);
        });
    if (!hits->ok()) return false;
    layer.counters["hits"] += (*hits)->size();
    std::vector<Hit> served;
    same = ParseHits(rr.response.body, &served) && served == HitsOf(**hits);
  } else {
    // Dialite::AlignAndIntegrate's order: matcher, then FD — for /align
    // too, whose handler computes the integrated table and drops it.
    std::vector<const dialite::Table*> tables = {&query_table};
    for (const std::string& name : SplitNames(req.Param("tables"))) {
      const dialite::Table* t = system_.lake->Get(name);
      if (t == nullptr) return false;
      tables.push_back(t);
    }
    Layer& align = layers_["align"];
    std::optional<dialite::Result<dialite::Alignment>> alignment;
    children_us += run_pair(
        align, "AliteMatcher::Align", AlignCounters(),
        [&] { alignment.emplace(matcher_.Align(tables, &cancel)); },
        [&] { (void)matcher_.Align(tables, nullptr); });
    if (!alignment->ok()) return false;

    Layer& fd = layers_["integrate"];
    std::optional<dialite::Result<dialite::Table>> integrated;
    children_us += run_pair(
        fd, "FullDisjunction::Integrate", FdCounters(),
        [&] { integrated.emplace(fd_.Integrate(tables, **alignment, &cancel)); },
        [&] { (void)fd_.Integrate(tables, **alignment, nullptr); });
    if (!integrated->ok()) return false;

    if (op.kind == OpRequest::kIntegrate) {
      Layer& write = layers_["table.csv_write"];
      std::string csv;
      const double write_us =
          Call(log, req_span, "CsvWriter::ToString", allocs_of(write),
               [&] { csv = dialite::CsvWriter::ToString(**integrated); });
      ++write.calls;
      write.armed_us += write_us;
      children_us += write_us;
      same = SameRowsSorted(csv, rr.response.body);
    } else {
      std::vector<Cluster> served;
      same = ParseClusters(rr.response.body, &served) &&
             served == ClustersOf(**alignment);
    }
  }

  if (traced_) {
    dialite::CancelToken handle_cancel;
    handle_cancel.SetDeadlineAfter(
        std::chrono::milliseconds(defaults.default_deadline_ms));
    dialite::HttpResponse resp;
    const double handle_us =
        Call(log, req_span, "DialiteServer::Handle", no_count,
             [&] { resp = handle_server_->Handle(req, &handle_cancel); });
    if (resp.status != 200) same = false;
    handle_self_us_.push_back(handle_us - children_us);
    wire_us_.push_back(client_latency_us - handle_us);
  }
  return same;
}

std::vector<Metric> Replayer::LayerMetrics() const {
  auto layer = [&](const std::string& name) {
    auto it = layers_.find(name);
    return it == layers_.end() ? Layer{} : it->second;
  };
  auto per_call = [](const Layer& l, double v) {
    return Ratio(v, static_cast<double>(l.calls));
  };
  auto counter = [](const Layer& l, const std::string& name) {
    auto it = l.counters.find(name);
    return it == l.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const double n = static_cast<double>(requests_);
  // Medians: each is a difference of two separate timings of one request
  // (and the client's, under load, has a long tail), so a mean would
  // follow the outliers.
  add("server.handle_self_us", Median(handle_self_us_), "us");
  add("server.wire_us", Median(wire_us_), "us");
  add("table.request_bytes", Ratio(request_bytes_, n), "bytes");
  add("table.response_bytes", Ratio(response_bytes_, n), "bytes");
  const Layer parse = layer("table.csv_parse");
  const Layer write = layer("table.csv_write");
  add("table.csv_parse_us", per_call(parse, parse.armed_us), "us");
  add("table.csv_write_us", per_call(write, write.armed_us), "us");

  double discover_armed = 0.0, discover_unarmed = 0.0;
  for (const std::string& a : Algorithms()) {
    const Layer l = layer("discovery." + a);
    const std::string p = "discovery." + a + ".";
    add(p + "search_us", per_call(l, l.armed_us), "us");
    add(p + "allocs", per_call(l, static_cast<double>(l.allocs)), "count");
    discover_armed += l.armed_us;
    discover_unarmed += l.unarmed_us;
    if (Cascaded(a)) {
      const double scored = counter(l, ScoredExactCounter(a));
      add(p + "scored_exact", per_call(l, scored), "count");
      add(p + "exact_per_hit", Ratio(scored, counter(l, "hits")), "ratio");
    }
  }

  const Layer align = layer("align");
  add("align.align_us", per_call(align, align.armed_us), "us");
  add("align.allocs", per_call(align, static_cast<double>(align.allocs)),
      "count");
  add("align.pair_evals", per_call(align, counter(align, "align.pair_evals")),
      "count");
  add("align.merges", per_call(align, counter(align, "align.merges")),
      "count");

  const Layer fd = layer("integrate");
  auto fd_count = [&](const char* name, const std::string& counter_name) {
    add(name, per_call(fd, counter(fd, counter_name)), "count");
  };
  add("integrate.fd_us", per_call(fd, fd.armed_us), "us");
  add("integrate.allocs", per_call(fd, static_cast<double>(fd.allocs)),
      "count");
  fd_count("integrate.fixpoint_iterations", "integrate.fd.fixpoint_iterations");
  fd_count("integrate.rows_scanned", "integrate.fd.rows_scanned");
  add("integrate.merge_rate",
      Ratio(counter(fd, "integrate.fd.merges"),
            counter(fd, "integrate.fd.rows_scanned")),
      "ratio");
  fd_count("integrate.subsumed_tuples", "integrate.fd.subsumed_tuples");
  fd_count("integrate.output_rows", "integrate.fd.output_rows");

  add("discovery.deadline_overhead", Ratio(discover_armed, discover_unarmed),
      "ratio");
  add("align.deadline_overhead", Ratio(align.armed_us, align.unarmed_us),
      "ratio");
  add("integrate.deadline_overhead", Ratio(fd.armed_us, fd.unarmed_us),
      "ratio");
  return m;
}

}  // namespace servebench
