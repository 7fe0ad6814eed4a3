#ifndef DIALITE_LAKE_TABLE_SKETCH_CACHE_H_
#define DIALITE_LAKE_TABLE_SKETCH_CACHE_H_

#include <cstddef>
#include <memory>
#include <mutex>  // std::once_flag / std::call_once only
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace dialite {

/// Per-table column token sets: token_sets[c] is the distinct, lowercased,
/// non-null token set of column c (ColumnTokens order).
using ColumnTokenSets = std::vector<std::vector<std::string>>;

/// Per-table distinct raw values: distinct_values[c] holds the CSV
/// renderings of column c's distinct non-null values, case preserved
/// (ColumnDistinct order) — the inputs KB annotation consumes.
using ColumnDistinctValues = std::vector<std::vector<std::string>>;

/// Thread-safe, lazily-populated cache of per-table derived data shared by
/// every discovery index builder: tokenized column token sets, distinct raw
/// value sets, and distinct-value counts.
///
/// Motivation: DIALITE's offline phase runs seven index builders over the
/// same lake, and five of them start by tokenizing every column. The cache
/// memoizes that work keyed by table name, so a full BuildIndexes() pass
/// tokenizes each lake table exactly once no matter how many algorithms are
/// registered or how many threads build concurrently.
///
/// Scope: the cache holds inputs several index builds share, nothing one
/// index owns. MinHash signatures, for one, live only in LSH Ensemble's index
/// (LshEnsemble::sketch), which sketches its indexed columns at build time
/// and persists them in its own snapshot section.
///
/// Contract:
///  - Thread safety: all methods are safe to call concurrently. Concurrent
///    requests for the same (table, artifact) block until the single
///    computation finishes (std::call_once semantics), so the miss counters
///    count actual computations, not requesters.
///  - Keys are table *names*; callers must pass the lake's own Table object
///    (DataLake tables are immutable once added, so name identity is value
///    identity). Do not pass transient query tables — they would pin memory
///    for the cache's lifetime.
///  - Invalidation: Invalidate(name) drops every artifact of one table and
///    Clear() drops everything. DataLake calls Invalidate from AddTable so a
///    lake mutation can never serve stale sketches. Shared_ptrs handed out
///    earlier stay valid (data is immutable once published).
///  - Returned containers are immutable and shared; never mutate through
///    the pointer.
class TableSketchCache {
 public:
  /// Cumulative hit/miss counters (a miss = one actual computation).
  struct Stats {
    size_t token_set_hits = 0;
    size_t token_set_misses = 0;
    size_t distinct_value_hits = 0;
    size_t distinct_value_misses = 0;
  };

  TableSketchCache() = default;
  TableSketchCache(const TableSketchCache&) = delete;
  TableSketchCache& operator=(const TableSketchCache&) = delete;

  /// Token sets of every column of `table`, computed once per table name.
  std::shared_ptr<const ColumnTokenSets> TokenSets(const Table& table);

  /// Distinct raw (case-preserved) values of every column, computed once.
  std::shared_ptr<const ColumnDistinctValues> DistinctValues(
      const Table& table);

  /// Distinct-value count of one column (token-set cardinality).
  size_t DistinctCount(const Table& table, size_t column);

  /// Drops all cached artifacts of `table_name`.
  void Invalidate(const std::string& table_name);

  /// Drops everything (counters are kept; they are cumulative).
  void Clear();

  /// Resets the hit/miss counters to zero (for tests and benchmarks).
  void ResetStats();

  Stats stats() const;

  /// Publishes the cumulative counters into `metrics` as
  /// sketch_cache.{token_set,distinct_value}.{hits,misses} gauges
  /// (Set semantics: the cache owns the cumulative truth). No-op when null.
  void ExportTo(Metrics* metrics) const;

 private:
  struct Entry {
    // token_sets / distinct_values are published through call_once: written
    // exactly once inside the once-callback and read only after the
    // call_once returns, so call_once's happens-before is their guard (no
    // mutex, hence no GUARDED_BY).
    std::once_flag token_once;
    std::shared_ptr<const ColumnTokenSets> token_sets;
    std::once_flag distinct_once;
    std::shared_ptr<const ColumnDistinctValues> distinct_values;
  };

  /// Finds or creates the entry for `name` under mu_.
  std::shared_ptr<Entry> GetEntry(const std::string& name)
      DIALITE_EXCLUDES(mu_);

  mutable Mutex mu_{"TableSketchCache::mu_"};
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_
      DIALITE_GUARDED_BY(mu_);
  Stats stats_ DIALITE_GUARDED_BY(mu_);
};

}  // namespace dialite

#endif  // DIALITE_LAKE_TABLE_SKETCH_CACHE_H_
