#ifndef DIALITE_DISCOVERY_DISCOVERY_H_
#define DIALITE_DISCOVERY_DISCOVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "lake/data_lake.h"
#include "lake/lake_tokens.h"
#include "obs/observability.h"
#include "table/table.h"

namespace dialite {

/// One discovery hit: a lake table and the algorithm's score for it
/// (higher = more related; scales differ across algorithms).
struct DiscoveryHit {
  std::string table_name;
  double score = 0.0;

  bool operator==(const DiscoveryHit& other) const {
    return table_name == other.table_name && score == other.score;
  }
};

/// A discovery request: query table, the user-marked query/intent column
/// (the paper's Example 1 marks "City"), and how many tables to return.
struct DiscoveryQuery {
  const Table* table = nullptr;
  size_t query_column = 0;
  size_t k = 10;
  /// Optional cooperative cancellation (per-request serving deadlines).
  /// Borrowed; must outlive the Search call. Every stock algorithm polls it
  /// inside its scan in both search modes (per candidate, posting list or
  /// query term), and a fired token surfaces as kDeadlineExceeded from
  /// Search(). Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// How Search() executes:
///  - kCascade (the default): each algorithm's pruned fast path. SANTOS,
///    LSH Ensemble, JOSIE, TUS and Starmie run the tiered bound-ordered
///    top-k with early termination (src/discovery/cascade.h); keyword
///    walks an inverted index and never touches documents sharing no
///    query term; COCOA hoists its query side and the lake's numeric
///    cells and skips joins without a numeric pair. Returns exactly the same hits and
///    scores as kExhaustive by construction; algorithms without a fast
///    path (user-defined ones) silently score exhaustively.
///  - kExhaustive: score every candidate — the reference path the cascade
///    equivalence suite compares against.
enum class SearchMode {
  kCascade = 0,
  kExhaustive = 1,
};

/// Interface every table-discovery algorithm implements (SANTOS,
/// LSH Ensemble, JOSIE, and user-defined searches).
///
/// Lifecycle: construct → BuildIndex(lake) once → Search() many times.
/// BuildIndex corresponds to the paper's offline preprocessing ("the
/// indexes ... are built offline"). Implementations keep a borrowed pointer
/// to the lake, which must outlive them.
///
/// Threading: the stock BuildIndex implementations are split into a pure
/// per-table compute phase (run across `num_threads()` workers, through
/// ForEachTableIndex) and a serial merge phase in lake order, so the built
/// index is identical for every thread count. Column token sets come from
/// the lake's LakeTokens (DataLake::tokens), built once per lake state and
/// shared by every index: JOSIE and COCOA search its postings directly,
/// TUS and LSH Ensemble verify against its id sets, keyword and Starmie
/// read their build inputs from its dictionary, and LSH Ensemble sketches
/// its columns from their ids.
class DiscoveryAlgorithm {
 public:
  virtual ~DiscoveryAlgorithm() = default;

  /// Stable algorithm id ("santos", "lsh_ensemble", ...).
  virtual std::string name() const = 0;

  /// Builds the offline index over the lake.
  virtual Status BuildIndex(const DataLake& lake) = 0;

  /// Top-k related tables, best first. Ties broken by table name for
  /// determinism (see HitBetter). Tables scoring zero are never returned.
  /// Honors search_mode(): all seven stock algorithms run their fast path
  /// by default (see SearchMode), with results identical to exhaustive
  /// scoring by construction.
  virtual Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const = 0;

  /// Provable stage-0 upper bound on Search()'s exact score for
  /// `table_name` under `query` — admissible by contract: bound >= exact
  /// score, and 0 only when the table cannot score positively. The default
  /// (non-cascaded algorithms) returns +infinity: admissible, no pruning
  /// power. Requires BuildIndex.
  virtual Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                         const std::string& table_name) const;

  /// Selects the Search() execution tier; kCascade is the default. Like
  /// set_num_threads, set it before searching — not thread-safe against
  /// concurrent Search calls.
  void set_search_mode(SearchMode mode) { search_mode_ = mode; }
  SearchMode search_mode() const { return search_mode_; }

  /// Worker count for BuildIndex's per-table compute phase: 0 = hardware
  /// concurrency, 1 = fully sequential (the default). The built index is
  /// deterministic — identical for every setting.
  void set_num_threads(size_t num_threads) { num_threads_ = num_threads; }
  size_t num_threads() const { return num_threads_; }

  /// Observability sink for build/search counters (null = disabled, the
  /// default; zero overhead). Set by the Dialite facade; the context must
  /// outlive the algorithm. Not thread-safe against concurrent
  /// BuildIndex/Search — set it before building, like set_num_threads.
  void set_observability(ObservabilityContext* obs) { obs_ = obs; }
  ObservabilityContext* observability() const { return obs_; }

 protected:
  size_t num_threads_ = 1;
  ObservabilityContext* obs_ = nullptr;
  SearchMode search_mode_ = SearchMode::kCascade;
};

class BinaryReader;
class BinaryWriter;

/// Optional capability: discovery algorithms whose offline index is costly
/// to derive, so a lake snapshot persists it (the paper's "indexes ...
/// built offline, already available") as an "idx.<name>" section.
/// Implemented by SANTOS, TUS and keyword, whose builds annotate or weigh
/// every lake table. The other stock algorithms persist nothing: their
/// index is the lake's LakeTokens (the snapshot's "lake.tokens" section)
/// plus what their BuildIndex derives from it, so an open rebuilds them.
///
/// Implementations serialize only primary index state into the payload and
/// rebuild derived structures (dense id arrays, bound profiles) on load,
/// through the same code paths BuildIndex uses — so save -> load -> save is
/// byte-identical and a loaded index answers every query exactly like a
/// freshly built one.
class PersistentIndex {
 public:
  virtual ~PersistentIndex() = default;

  /// Serializes the index payload (no container framing) into `w`.
  /// Requires a built index.
  virtual Status SavePayload(BinaryWriter* w) const = 0;

  /// Restores the index from a payload produced by SavePayload; `lake`
  /// must contain every indexed table (kNotFound otherwise). Malformed
  /// payloads, a table listed twice included, fail with kParseError, and
  /// a failed load leaves the index as it was.
  virtual Status LoadPayload(BinaryReader* r, const DataLake& lake) = 0;
};

/// One lake column as an index lists it: its table's lake id and its index
/// in that table.
struct LakeColumn {
  TableId table = 0;
  uint32_t column = 0;
};

/// An index's column list grouped by table: Of(t) holds the positions in
/// the list of table t's columns, ascending.
class TableColumns {
 public:
  TableColumns() = default;
  /// `num_tables` is the lake's size; every entry's table must be below it.
  TableColumns(const std::vector<LakeColumn>& columns, size_t num_tables);

  /// Empty for a table past the lake (kNoTable included).
  const std::vector<uint32_t>& Of(TableId t) const;

 private:
  std::vector<std::vector<uint32_t>> ids_;
};

/// For payloads that list per-table entries: the ids t with indexed[t]
/// set, in table-name order, the order such payloads list tables in.
std::vector<TableId> IndexedIdsByName(const DataLake& lake,
                                      const std::vector<uint8_t>& indexed);

/// Resolves table name `table` of an `algo` payload to its lake id and
/// marks it in `indexed` (sized to the lake): kNotFound when the lake lacks
/// the table, kParseError when the payload already listed it (an index has
/// one slot per table).
Result<TableId> ClaimPayloadTable(const DataLake& lake,
                                  const std::string& table,
                                  const std::string& algo,
                                  std::vector<uint8_t>* indexed);

/// The ranking order shared by RankHits and the cascade top-k heap: higher
/// score first, ties broken by ascending table name. Table names are unique
/// within a lake, so this is a strict total order — rankings (and the
/// BENCH_*.json trajectories derived from them) are byte-stable across
/// platforms and thread counts. The first form ranks a hit given as its
/// score and name (a candidate whose name is not copied yet) against `b`;
/// the second calls it.
[[nodiscard]] bool HitBetter(double score, std::string_view name,
                             const DiscoveryHit& b);
[[nodiscard]] bool HitBetter(const DiscoveryHit& a, const DiscoveryHit& b);

/// Shared helper: sorts hits by HitBetter (score desc, name asc), drops
/// non-positive scores, truncates to k.
std::vector<DiscoveryHit> RankHits(std::vector<DiscoveryHit> hits, size_t k);

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_DISCOVERY_H_
