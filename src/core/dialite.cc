#include "core/dialite.h"

#include <algorithm>
#include <atomic>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "align/alite_matcher.h"
#include "common/thread_pool.h"
#include "analyze/aggregate.h"
#include "analyze/correlation_finder.h"
#include "analyze/entity_resolution.h"
#include "analyze/profiler.h"
#include "analyze/stats.h"
#include "discovery/cocoa.h"
#include "discovery/josie.h"
#include "discovery/keyword_search.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/santos.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "snapshot/bytes.h"
#include "snapshot/format.h"
#include "snapshot/lake_codec.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace dialite {

namespace {

/// "summary" analysis: per-column numeric summaries of the integrated
/// table (count/min/max/mean/stddev), one row per numeric-ish column.
Result<Table> SummaryAnalysis(const Table& t) {
  Table out("summary", Schema::FromNames(
                           {"column", "count", "min", "max", "mean",
                            "stddev"}));
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const std::string& name = t.schema().column(c).name;
    Result<NumericSummary> s = SummarizeColumn(t, name);
    if (!s.ok()) continue;  // non-numeric column
    DIALITE_RETURN_IF_ERROR(out.AddRow(
        {Value::String(name), Value::Int(static_cast<int64_t>(s->count)),
         Value::Double(s->min), Value::Double(s->max), Value::Double(s->mean),
         Value::Double(s->stddev)}));
  }
  return out;
}

Result<Table> ErAnalysis(const Table& t) {
  EntityResolver er;
  Result<ErOutcome> r = er.Resolve(t);
  if (!r.ok()) return r.status();
  return std::move(r).value().resolved;
}

Result<Table> CorrelationAnalysis(const Table& t) {
  Result<std::vector<CorrelationFinding>> r = FindCorrelations(t);
  if (!r.ok()) return r.status();
  return CorrelationFindingsToTable(*r);
}

/// Resolves the 0 = hardware-concurrency convention.
size_t EffectiveThreads(size_t num_threads) {
  return num_threads == 0 ? std::max(1u, std::thread::hardware_concurrency())
                          : num_threads;
}

/// Runs `fn(i)` for i in [0, n) across `threads` workers (inline at one)
/// and returns the first failure in index order, or OK. An index after the
/// first failure seen so far is skipped: one thread stops at the first
/// failure, and every thread count returns the same status.
Status ForEachUntilFailure(size_t threads, size_t n,
                           const std::function<Status(size_t)>& fn,
                           ObservabilityContext* obs) {
  std::vector<Status> statuses(n);
  std::atomic<size_t> first_failed{n};
  ForEachTableIndex(threads, n, [&](size_t i) {
    if (first_failed.load() < i) return;
    statuses[i] = fn(i);
    if (statuses[i].ok()) return;
    size_t seen = first_failed.load();
    while (i < seen && !first_failed.compare_exchange_weak(seen, i)) {
    }
  }, obs);
  for (const Status& s : statuses) DIALITE_RETURN_IF_ERROR(s);
  return Status::OK();
}

}  // namespace

Dialite::Dialite(const DataLake* lake) : lake_(lake) {}

Status Dialite::RegisterDefaults() {
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<SantosSearch>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterDiscovery(std::make_unique<LshEnsembleSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<JosieSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<StarmieSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<CocoaSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<TusSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterDiscovery(std::make_unique<KeywordSearch>()));
  DIALITE_RETURN_IF_ERROR(RegisterMatcher(std::make_unique<AliteMatcher>()));
  DIALITE_RETURN_IF_ERROR(RegisterMatcher(std::make_unique<NameMatcher>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<FullDisjunction>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<ParallelFullDisjunction>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<OuterJoinIntegration>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<InnerJoinIntegration>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<UnionIntegration>()));
  DIALITE_RETURN_IF_ERROR(
      RegisterIntegration(std::make_unique<MinimumUnionIntegration>()));
  DIALITE_RETURN_IF_ERROR(RegisterAnalysis("summary", SummaryAnalysis));
  DIALITE_RETURN_IF_ERROR(RegisterAnalysis("entity_resolution", ErAnalysis));
  DIALITE_RETURN_IF_ERROR(RegisterAnalysis("correlations", CorrelationAnalysis));
  DIALITE_RETURN_IF_ERROR(RegisterAnalysis(
      "profile", [](const Table& t) -> Result<Table> {
        return ProfileToTable(ProfileTable(t));
      }));
  return Status::OK();
}

Status Dialite::RegisterDiscovery(
    std::unique_ptr<DiscoveryAlgorithm> algorithm) {
  if (algorithm == nullptr) return Status::InvalidArgument("null algorithm");
  std::string name = algorithm->name();
  if (discovery_.count(name)) {
    return Status::AlreadyExists("discovery '" + name + "'");
  }
  indexes_built_ = false;
  algorithm->set_observability(obs_);
  algorithm->set_search_mode(search_mode_);
  discovery_.emplace(std::move(name), std::move(algorithm));
  return Status::OK();
}

Status Dialite::RegisterMatcher(std::unique_ptr<SchemaMatcher> matcher) {
  if (matcher == nullptr) return Status::InvalidArgument("null matcher");
  std::string name = matcher->name();
  if (matchers_.count(name)) {
    return Status::AlreadyExists("matcher '" + name + "'");
  }
  matcher->set_observability(obs_);
  matcher->set_lake(lake_);
  matchers_.emplace(std::move(name), std::move(matcher));
  return Status::OK();
}

Status Dialite::RegisterIntegration(std::unique_ptr<IntegrationOperator> op) {
  if (op == nullptr) return Status::InvalidArgument("null operator");
  std::string name = op->name();
  if (integration_.count(name)) {
    return Status::AlreadyExists("integration '" + name + "'");
  }
  op->set_observability(obs_);
  integration_.emplace(std::move(name), std::move(op));
  return Status::OK();
}

void Dialite::set_observability(ObservabilityContext* obs) {
  obs_ = obs;
  for (auto& [name, algo] : discovery_) algo->set_observability(obs);
  for (auto& [name, matcher] : matchers_) matcher->set_observability(obs);
  for (auto& [name, op] : integration_) op->set_observability(obs);
}

void Dialite::set_search_mode(SearchMode mode) {
  search_mode_ = mode;
  for (auto& [name, algo] : discovery_) algo->set_search_mode(mode);
}

Status Dialite::RegisterAnalysis(const std::string& name, AnalysisFn fn) {
  if (!fn) return Status::InvalidArgument("empty analysis fn");
  if (analyses_.count(name)) {
    return Status::AlreadyExists("analysis '" + name + "'");
  }
  analyses_.emplace(name, std::move(fn));
  return Status::OK();
}

std::vector<std::string> Dialite::DiscoveryAlgorithms() const {
  std::vector<std::string> out;
  for (const auto& [name, a] : discovery_) out.push_back(name);
  return out;
}

std::vector<std::string> Dialite::IntegrationOperators() const {
  std::vector<std::string> out;
  for (const auto& [name, a] : integration_) out.push_back(name);
  return out;
}

std::vector<std::string> Dialite::Analyses() const {
  std::vector<std::string> out;
  for (const auto& [name, a] : analyses_) out.push_back(name);
  return out;
}

Status Dialite::BuildIndexes() {
  ObsSpan build_span(obs_, "pipeline.build_indexes");
  const size_t threads = EffectiveThreads(num_threads_);
  if (threads > 1 && discovery_.size() > 1) {
    // The lake's tokens and embeddings, which most algorithms read, are
    // built here on every worker rather than by the first algorithm to ask
    // while the others wait on it.
    ObsSpan span(obs_, "build.lake_tokens");
    (void)lake_->tokens(threads);
  }
  auto build = [&](const std::string& name, DiscoveryAlgorithm* algo) {
    // On worker threads this span surfaces as its own root — by design.
    ObsSpan span(obs_, "build." + name);
    return algo->BuildIndex(*lake_);
  };
  Status built = ForEachAlgorithm(build);
  if (built.ok()) indexes_built_ = true;
  return built;
}

Status Dialite::ForEachAlgorithm(
    const std::function<Status(const std::string&, DiscoveryAlgorithm*)>& fn) {
  const size_t threads = EffectiveThreads(num_threads_);
  std::vector<std::pair<const std::string*, DiscoveryAlgorithm*>> algos;
  algos.reserve(discovery_.size());
  for (auto& [name, algo] : discovery_) {
    // Every algorithm also fans its per-table compute phase across
    // `threads` workers. Yes, that oversubscribes cores while several
    // algorithms are in their compute phases — deliberately: merges are
    // serial, algorithms finish at very different times, and a
    // work-conserving oversubscription keeps cores busy through the
    // stragglers. num_threads()==1 pins everything to the exact sequential
    // code path.
    algo->set_num_threads(threads);
    algos.emplace_back(&name, algo.get());
  }
  return ForEachUntilFailure(threads, algos.size(), [&](size_t i) {
    return fn(*algos[i].first, algos[i].second);
  }, obs_);
}

Status Dialite::SaveSnapshot(const std::string& path) const {
  if (!indexes_built_) {
    return Status::Internal("BuildIndexes() has not been called");
  }
  ObsSpan span(obs_, "snapshot.save");
  SnapshotWriter writer(obs_);
  DIALITE_RETURN_IF_ERROR(WriteLake(*lake_, &writer, obs_));
  for (const auto& [name, algo] : discovery_) {
    const auto* persistent = dynamic_cast<const PersistentIndex*>(algo.get());
    if (persistent == nullptr) continue;
    BinaryWriter payload;
    DIALITE_RETURN_IF_ERROR(persistent->SavePayload(&payload));
    DIALITE_RETURN_IF_ERROR(
        writer.AddSection(kSectionIndexPrefix + name, std::move(payload)));
    ObsAdd(obs_, "snapshot.indexes_written");
  }
  return writer.Finish(path);
}

Status Dialite::LoadIndexesFrom(const SnapshotReader& reader) {
  auto load = [&](const std::string& name, DiscoveryAlgorithm* algo) {
    auto* persistent = dynamic_cast<PersistentIndex*>(algo);
    const std::string section = kSectionIndexPrefix + name;
    if (persistent == nullptr || !reader.HasSection(section)) {
      // Algorithms that persist nothing (and custom registrations) build
      // over the restored lake and its decoded tokens.
      ObsSpan span(obs_, "snapshot.rebuild." + name);
      DIALITE_RETURN_IF_ERROR(algo->BuildIndex(*lake_));
      ObsAdd(obs_, "snapshot.indexes_rebuilt");
      return Status::OK();
    }
    ObsSpan span(obs_, "snapshot.load." + name);
    Result<std::span<const uint8_t>> payload = reader.Section(section);
    if (!payload.ok()) return payload.status();
    BinaryReader r(*payload);
    DIALITE_RETURN_IF_ERROR(persistent->LoadPayload(&r, *lake_));
    if (!r.AtEnd()) {
      return Status::ParseError("trailing bytes after section '" + section +
                                "'");
    }
    ObsAdd(obs_, "snapshot.indexes_loaded");
    return Status::OK();
  };
  Status loaded = ForEachAlgorithm(load);
  if (loaded.ok()) indexes_built_ = true;
  return loaded;
}

Result<SnapshotSystem> Dialite::OpenSnapshot(const std::string& path,
                                             ObservabilityContext* obs) {
  ObsSpan span(obs, "snapshot.open");
  Result<SnapshotReader> reader =
      SnapshotReader::Open(path, SnapshotReadOptions{}, obs);
  if (!reader.ok()) return reader.status();
  Result<std::unique_ptr<DataLake>> lake = ReadLake(*reader, obs);
  if (!lake.ok()) return lake.status();
  SnapshotSystem sys;
  sys.lake = std::move(*lake);
  sys.dialite = std::unique_ptr<Dialite>(new Dialite(sys.lake.get()));
  sys.dialite->set_observability(obs);
  DIALITE_RETURN_IF_ERROR(sys.dialite->RegisterDefaults());
  DIALITE_RETURN_IF_ERROR(sys.dialite->LoadIndexesFrom(*reader));
  return sys;
}

Result<std::shared_ptr<const SnapshotSystem>> Dialite::OpenSnapshotShared(
    const std::string& path, ObservabilityContext* obs) {
  Result<SnapshotSystem> sys = OpenSnapshot(path, obs);
  if (!sys.ok()) return sys.status();
  return std::shared_ptr<const SnapshotSystem>(
      std::make_shared<SnapshotSystem>(std::move(*sys)));
}

Result<std::vector<DiscoveryHit>> Dialite::Discover(
    const DiscoveryQuery& query, const std::string& algorithm) const {
  auto it = discovery_.find(algorithm);
  if (it == discovery_.end()) {
    return Status::NotFound("discovery '" + algorithm + "' not registered");
  }
  if (!indexes_built_) {
    return Status::Internal("BuildIndexes() has not been called");
  }
  // A request whose deadline already passed (queue wait under load) must
  // not start an index scan at all — the cascade only polls mid-scan.
  if (query.cancel != nullptr && query.cancel->Cancelled()) {
    return Status::DeadlineExceeded("discovery request cancelled before '" +
                                    algorithm + "' started");
  }
  ObsSpan span(obs_, "discover." + algorithm);
  ObsAdd(obs_, "discover.searches");
  Result<std::vector<DiscoveryHit>> hits = it->second->Search(query);
  if (hits.ok()) {
    ObsAdd(obs_, "discover." + algorithm + ".hits", hits->size());
  }
  return hits;
}

Result<std::map<std::string, std::vector<DiscoveryHit>>> Dialite::DiscoverAll(
    const DiscoveryQuery& query,
    const std::vector<std::string>& algorithms) const {
  const std::vector<std::string> names =
      algorithms.empty() ? DiscoveryAlgorithms() : algorithms;
  // Search() is const and algorithms are independent, so the per-algorithm
  // queries fan out; the merge into the result map stays in name order.
  std::vector<std::vector<DiscoveryHit>> hits(names.size());
  DIALITE_RETURN_IF_ERROR(ForEachUntilFailure(
      EffectiveThreads(num_threads_), names.size(),
      [&](size_t i) -> Status {
        Result<std::vector<DiscoveryHit>> r = Discover(query, names[i]);
        if (!r.ok()) return r.status();
        hits[i] = std::move(r).value();
        return Status::OK();
      },
      obs_));
  std::map<std::string, std::vector<DiscoveryHit>> out;
  for (size_t i = 0; i < names.size(); ++i) {
    out.emplace(names[i], std::move(hits[i]));
  }
  return out;
}

Result<std::vector<DiscoveryHit>> Dialite::SearchKeywords(
    const std::string& text, size_t k) const {
  auto it = discovery_.find("keyword");
  if (it == discovery_.end()) {
    return Status::NotFound("keyword search not registered");
  }
  if (!indexes_built_) {
    return Status::Internal("BuildIndexes() has not been called");
  }
  auto* kw = dynamic_cast<KeywordSearch*>(it->second.get());
  if (kw == nullptr) {
    return Status::Internal("'keyword' algorithm is not a KeywordSearch");
  }
  return kw->SearchKeywords(text, k);
}

std::vector<const Table*> Dialite::FormIntegrationSet(
    const Table& query,
    const std::map<std::string, std::vector<DiscoveryHit>>& hits,
    size_t max_set) const {
  std::vector<const Table*> set = {&query};
  std::unordered_set<std::string> seen = {query.name()};
  // Breadth-first across algorithms, best-first within each, so a cap
  // keeps every technique's strongest results.
  size_t rank = 0;
  bool more = true;
  while (more) {
    more = false;
    for (const auto& [algo, list] : hits) {
      if (rank >= list.size()) continue;
      more = true;
      const std::string& name = list[rank].table_name;
      if (seen.count(name)) continue;
      const Table* t = lake_->Get(name);
      if (t == nullptr) continue;
      if (max_set > 0 && set.size() >= max_set) return set;
      set.push_back(t);
      seen.insert(name);
    }
    ++rank;
  }
  return set;
}

Result<IntegrationResult> Dialite::AlignAndIntegrate(
    const std::vector<const Table*>& tables,
    const std::string& integration_operator, const std::string& matcher,
    const CancelToken* cancel) const {
  auto mit = matchers_.find(matcher);
  if (mit == matchers_.end()) {
    return Status::NotFound("matcher '" + matcher + "' not registered");
  }
  auto oit = integration_.find(integration_operator);
  if (oit == integration_.end()) {
    return Status::NotFound("integration '" + integration_operator +
                            "' not registered");
  }
  // Alignments and provenance name columns by table, so a set naming one
  // table twice has no valid alignment.
  std::unordered_set<std::string_view> names;
  for (const Table* t : tables) {
    if (t != nullptr && !names.insert(t->name()).second) {
      return Status::InvalidArgument("integration set names table '" +
                                     t->name() + "' twice");
    }
  }
  Result<Alignment> alignment = mit->second->Align(tables, cancel);
  if (!alignment.ok()) return alignment.status();
  Result<Table> integrated = oit->second->Integrate(tables, *alignment, cancel);
  if (!integrated.ok()) return integrated.status();
  return IntegrationResult{std::move(integrated).value(),
                           std::move(alignment).value(), matcher,
                           integration_operator};
}

Result<Table> Dialite::Analyze(const Table& integrated,
                               const std::string& analysis) const {
  auto it = analyses_.find(analysis);
  if (it == analyses_.end()) {
    return Status::NotFound("analysis '" + analysis + "' not registered");
  }
  ObsSpan span(obs_, "analyze." + analysis);
  Result<Table> result = it->second(integrated);
  if (result.ok()) {
    ObsAdd(obs_, "analyze.rows_in", integrated.num_rows());
    ObsAdd(obs_, "analyze.rows_out", result->num_rows());
  }
  return result;
}

Result<PipelineReport> Dialite::Run(const Table& query,
                                    const PipelineOptions& options) const {
  // Facade spans go to the per-run override when given; component
  // instrumentation keeps writing to the installed context.
  ObservabilityContext* obs =
      options.observability != nullptr ? options.observability : obs_;
  ObsSpan run_span(obs, "pipeline.run");
  PipelineReport report;
  DiscoveryQuery dq{&query, options.query_column, options.k};
  Result<std::map<std::string, std::vector<DiscoveryHit>>> hits = [&] {
    ObsSpan span(obs, "pipeline.discover");
    return DiscoverAll(dq, options.discovery_algorithms);
  }();
  if (!hits.ok()) return hits.status();
  report.hits = std::move(hits).value();

  std::vector<const Table*> set =
      FormIntegrationSet(query, report.hits, options.max_integration_set);
  for (const Table* t : set) report.integration_set.push_back(t->name());
  ObsSet(obs, "pipeline.integration_set_size", set.size());

  Result<IntegrationResult> integ = [&] {
    ObsSpan span(obs, "pipeline.align_integrate");
    return AlignAndIntegrate(set, options.integration_operator);
  }();
  if (!integ.ok()) return integ.status();
  report.integration = std::move(integ).value();
  ObsSet(obs, "pipeline.integrated_rows", report.integration.table.num_rows());

  {
    ObsSpan span(obs, "pipeline.analyze");
    for (const std::string& a : options.analyses) {
      Result<Table> r = Analyze(report.integration.table, a);
      if (!r.ok()) return r.status();
      report.analysis_results.emplace(a, std::move(r).value());
    }
  }
  return report;
}

}  // namespace dialite
