#ifndef DIALITE_CORE_DIALITE_H_
#define DIALITE_CORE_DIALITE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "align/alignment.h"
#include "common/status.h"
#include "discovery/discovery.h"
#include "integrate/integration.h"
#include "lake/data_lake.h"
#include "obs/observability.h"
#include "table/table.h"

namespace dialite {

/// A pluggable downstream analysis: integrated table in, result table out
/// (aggregation, statistics report, entity resolution, user code, ...).
using AnalysisFn = std::function<Result<Table>(const Table&)>;

/// Align + Integrate output: the integrated table and the integration IDs
/// it was computed over.
struct IntegrationResult {
  Table table;
  Alignment alignment;
  std::string matcher;
  std::string integration_operator;
};

/// Options for the end-to-end pipeline run.
struct PipelineOptions {
  /// Discovery algorithms to run (registered names); empty = all.
  std::vector<std::string> discovery_algorithms;
  /// The user-marked query/intent column of the query table.
  size_t query_column = 0;
  /// Top-k per discovery algorithm.
  size_t k = 10;
  /// Cap on the integration set size (query table included). 0 = no cap.
  size_t max_integration_set = 0;
  /// Integration operator (registered name).
  std::string integration_operator = "alite_fd";
  /// Analyses (registered names) to run over the integrated table.
  std::vector<std::string> analyses;
  /// Worker threads for the pipeline's discovery stage: 0 = hardware
  /// concurrency, 1 = the sequential code path. Results are deterministic —
  /// identical for every setting.
  size_t num_threads = 0;
  /// Per-run override for the facade-level pipeline spans/counters
  /// (pipeline.run, pipeline.integration_set_size, ...). Null = use the
  /// context installed with Dialite::set_observability (if any). Component
  /// instrumentation (discover.*, align.*, integrate.*) always goes to the
  /// installed context, since components are shared across runs.
  ObservabilityContext* observability = nullptr;
};

/// Report of one pipeline run — everything the demo UI would display.
struct PipelineReport {
  /// Per-algorithm discovery results.
  std::map<std::string, std::vector<DiscoveryHit>> hits;
  /// The integration set (query first), as table names.
  std::vector<std::string> integration_set;
  IntegrationResult integration;
  /// Analysis name -> result table.
  std::map<std::string, Table> analysis_results;
};

class Dialite;
class SnapshotReader;

/// Everything Dialite::OpenSnapshot materializes: the mmap-backed lake and
/// the facade wired over it (stock components registered, indexes
/// restored). The lake must outlive the facade — keep the bundle together.
struct SnapshotSystem {
  std::unique_ptr<DataLake> lake;
  std::unique_ptr<Dialite> dialite;
};

/// The DIALITE system: a data lake plus three pluggable stages
/// (discover → align & integrate → analyze).
///
///   DataLake lake = ...;
///   Dialite dialite(&lake);
///   dialite.RegisterDefaults();                  // SANTOS, LSH Ensemble,
///                                                // JOSIE, ALITE FD, joins
///   dialite.BuildIndexes();
///   auto report = dialite.Run(query, options);
///
/// Extensibility mirrors the paper's Sec. 3.2: RegisterDiscovery() is
/// Fig. 4, RegisterIntegration() is Fig. 6, RegisterAnalysis() adds
/// downstream tasks.
class Dialite {
 public:
  /// `lake` must outlive this object.
  explicit Dialite(const DataLake* lake);

  Dialite(const Dialite&) = delete;
  Dialite& operator=(const Dialite&) = delete;

  // ------------------------------------------------------------ plug-ins

  /// Registers the stock components: discovery {santos, lsh_ensemble,
  /// josie, starmie, cocoa}, matcher alite_holistic (+ name_equality),
  /// integration {alite_fd, parallel_fd, outer_join, inner_join,
  /// union_all}, analyses {summary, entity_resolution, correlations}.
  Status RegisterDefaults();

  Status RegisterDiscovery(std::unique_ptr<DiscoveryAlgorithm> algorithm);
  /// The matcher is given this facade's lake (SchemaMatcher::set_lake), so
  /// ALITE signs each lake table once per facade, not once per request.
  Status RegisterMatcher(std::unique_ptr<SchemaMatcher> matcher);
  Status RegisterIntegration(std::unique_ptr<IntegrationOperator> op);
  Status RegisterAnalysis(const std::string& name, AnalysisFn fn);

  std::vector<std::string> DiscoveryAlgorithms() const;
  std::vector<std::string> IntegrationOperators() const;
  std::vector<std::string> Analyses() const;

  /// Worker threads for BuildIndexes, OpenSnapshot's index restore (at the
  /// default) and DiscoverAll: 0 = hardware concurrency (the default), 1 =
  /// the exact sequential code path, n = n workers. Parallelism never
  /// changes results: every index build is a parallel per-table compute
  /// phase plus a serial deterministic merge, so persisted indexes are
  /// byte-identical across settings.
  void set_num_threads(size_t num_threads) { num_threads_ = num_threads; }
  size_t num_threads() const { return num_threads_; }

  /// Installs one observability context on the facade and every registered
  /// component (discovery algorithms, matchers, integration operators);
  /// later registrations inherit it. Null uninstalls. The context must
  /// outlive this object (or be uninstalled first) and must not be swapped
  /// while a pipeline stage is running. Not thread-safe against concurrent
  /// Run/BuildIndexes calls.
  void set_observability(ObservabilityContext* obs);
  ObservabilityContext* observability() const { return obs_; }

  /// Selects the search execution tier on every registered discovery
  /// algorithm (later registrations inherit it). kCascade — the default —
  /// runs the tiered bound-pruned top-k; kExhaustive scores every
  /// candidate (the reference path the equivalence suite compares
  /// against). Results are identical in both modes by construction.
  void set_search_mode(SearchMode mode);
  SearchMode search_mode() const { return search_mode_; }

  /// Builds every registered discovery index over the lake (the paper's
  /// offline preprocessing). Call after registrations, before Search/Run.
  /// Algorithms build concurrently (see set_num_threads) and share the
  /// lake's LakeTokens, so each table is tokenized and embedded once, not
  /// once per algorithm: a parallel build makes them first, on every
  /// worker, then fans the algorithms out. SaveSnapshot persists the
  /// result; OpenSnapshot is the later session that skips this pass.
  Status BuildIndexes();

  // ----------------------------------------------------------- snapshots

  /// Persists the whole system state into one versioned, checksummed
  /// snapshot container at `path`, the one on-disk form of a built lake:
  /// every lake table (columnar, mmap-ready), the lake's tokens
  /// ("lake.tokens": the dictionary and each column's token ids) and every
  /// registered PersistentIndex — the indexes costly to derive (SANTOS,
  /// TUS, keyword) — as "idx.<name>" sections. Requires BuildIndexes(). A
  /// later OpenSnapshot restores all of it without re-reading CSVs or
  /// re-running the costly part of the offline pass.
  Status SaveSnapshot(const std::string& path) const;

  /// Opens a SaveSnapshot file: memory-maps the container, reconstructs
  /// the lake zero-copy (column lanes are borrowed spans into the
  /// mapping) and its tokens (the column embeddings re-summed from the
  /// token vectors), registers the stock components, and restores each
  /// algorithm's index from its snapshot section — algorithms without a
  /// section (JOSIE, COCOA, Starmie and LSH Ensemble, which derive theirs
  /// from the lake's tokens) run BuildIndex over the opened lake
  /// (snapshot.indexes_loaded / snapshot.indexes_rebuilt count the two
  /// paths: 3 / 4 with the stock set). The algorithms restore concurrently,
  /// as BuildIndexes builds them. The returned system is ready to
  /// Search/Run; corrupt or version-skewed files fail with a clean
  /// Status.
  static Result<SnapshotSystem> OpenSnapshot(
      const std::string& path, ObservabilityContext* obs = nullptr);

  /// OpenSnapshot bundled under one shared_ptr — the shared-lake handle the
  /// serving layer (dialited) epoch-swaps: concurrent requests copy the
  /// current pointer (pinning lake + facade + the mmap anchor underneath),
  /// a /reload opens a new system and swaps the pointer, and the old epoch
  /// is destroyed when its last in-flight request drops the reference.
  static Result<std::shared_ptr<const SnapshotSystem>> OpenSnapshotShared(
      const std::string& path, ObservabilityContext* obs = nullptr);

  // ------------------------------------------------------------- stage 1

  /// Runs one discovery algorithm.
  Result<std::vector<DiscoveryHit>> Discover(const DiscoveryQuery& query,
                                             const std::string& algorithm) const;

  /// Runs several (empty = all) and returns per-algorithm hits.
  Result<std::map<std::string, std::vector<DiscoveryHit>>> DiscoverAll(
      const DiscoveryQuery& query,
      const std::vector<std::string>& algorithms = {}) const;

  /// Free-text discovery for the no-query-table entry point: delegates to
  /// the registered "keyword" algorithm. NotFound if it isn't registered.
  Result<std::vector<DiscoveryHit>> SearchKeywords(const std::string& text,
                                                   size_t k = 10) const;

  /// Forms the integration set: the query table plus the union of all hit
  /// tables (the paper persists "the set of tables found by all
  /// techniques"). Hits are taken best-score-first per algorithm,
  /// breadth-first across algorithms, until max_set (0 = no cap).
  std::vector<const Table*> FormIntegrationSet(
      const Table& query,
      const std::map<std::string, std::vector<DiscoveryHit>>& hits,
      size_t max_set = 0) const;

  // ------------------------------------------------------------- stage 2

  /// Aligns with the named matcher (default alite_holistic) and integrates
  /// with the named operator. A set naming one table twice fails with
  /// kInvalidArgument before any alignment work: alignments and provenance
  /// name columns by table. `cancel` (nullable) is forwarded into both
  /// stages; the built-in matcher and FD operators poll it per merge /
  /// fixpoint iteration, so a served request's deadline cuts the whole
  /// align+integrate pipeline short with kDeadlineExceeded.
  Result<IntegrationResult> AlignAndIntegrate(
      const std::vector<const Table*>& tables,
      const std::string& integration_operator = "alite_fd",
      const std::string& matcher = "alite_holistic",
      const CancelToken* cancel = nullptr) const;

  // ------------------------------------------------------------- stage 3

  Result<Table> Analyze(const Table& integrated,
                        const std::string& analysis) const;

  // ------------------------------------------------------------ pipeline

  /// Full discover → align+integrate → analyze run.
  Result<PipelineReport> Run(const Table& query,
                             const PipelineOptions& options) const;

  const DataLake& lake() const { return *lake_; }

 private:
  /// DiscoverAll with an explicit thread count (Run uses the pipeline
  /// option, the public overload uses num_threads_).
  Result<std::map<std::string, std::vector<DiscoveryHit>>> DiscoverAllImpl(
      const DiscoveryQuery& query, const std::vector<std::string>& algorithms,
      size_t num_threads) const;

  /// Restores every registered PersistentIndex from `reader`'s
  /// "idx.<name>" section and builds every other algorithm (and any whose
  /// section is missing) over the lake; OpenSnapshot's tail.
  Status LoadIndexesFrom(const SnapshotReader& reader);

  /// Runs `fn(name, algorithm)` for every registered discovery algorithm,
  /// the algorithms spread across num_threads() workers (inline at one),
  /// each also set to num_threads() for its own per-table phase. Returns
  /// the first failure in name order; algorithms named after a failure are
  /// skipped, so one thread stops at the first. BuildIndexes' and
  /// LoadIndexesFrom's one fan-out.
  Status ForEachAlgorithm(
      const std::function<Status(const std::string&, DiscoveryAlgorithm*)>& fn);

  const DataLake* lake_;
  std::map<std::string, std::unique_ptr<DiscoveryAlgorithm>> discovery_;
  std::map<std::string, std::unique_ptr<SchemaMatcher>> matchers_;
  std::map<std::string, std::unique_ptr<IntegrationOperator>> integration_;
  std::map<std::string, AnalysisFn> analyses_;
  bool indexes_built_ = false;
  size_t num_threads_ = 0;  ///< 0 = hardware concurrency
  SearchMode search_mode_ = SearchMode::kCascade;
  ObservabilityContext* obs_ = nullptr;  ///< null = observability disabled
};

}  // namespace dialite

#endif  // DIALITE_CORE_DIALITE_H_
