#include "lake/table_sketch_cache.h"

#include <utility>

#include "table/column_view.h"

namespace dialite {

std::shared_ptr<TableSketchCache::Entry> TableSketchCache::GetEntry(
    const std::string& name) {
  MutexLock lock(mu_);
  std::shared_ptr<Entry>& e = entries_[name];
  if (e == nullptr) e = std::make_shared<Entry>();
  return e;
}

std::shared_ptr<const ColumnTokenSets> TableSketchCache::TokenSets(
    const Table& table) {
  std::shared_ptr<Entry> e = GetEntry(table.name());
  bool computed = false;
  std::call_once(e->token_once, [&] {
    auto sets = std::make_shared<ColumnTokenSets>(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      (*sets)[c] = ColumnTokens(table.column(c));
    }
    e->token_sets = std::move(sets);
    computed = true;
  });
  {
    MutexLock lock(mu_);
    if (computed) {
      ++stats_.token_set_misses;
    } else {
      ++stats_.token_set_hits;
    }
  }
  return e->token_sets;
}

std::shared_ptr<const ColumnDistinctValues> TableSketchCache::DistinctValues(
    const Table& table) {
  std::shared_ptr<Entry> e = GetEntry(table.name());
  bool computed = false;
  std::call_once(e->distinct_once, [&] {
    auto vals = std::make_shared<ColumnDistinctValues>(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      (*vals)[c] = ColumnDistinctCsv(table.column(c));
    }
    e->distinct_values = std::move(vals);
    computed = true;
  });
  {
    MutexLock lock(mu_);
    if (computed) {
      ++stats_.distinct_value_misses;
    } else {
      ++stats_.distinct_value_hits;
    }
  }
  return e->distinct_values;
}

size_t TableSketchCache::DistinctCount(const Table& table, size_t column) {
  std::shared_ptr<const ColumnTokenSets> tokens = TokenSets(table);
  if (column >= tokens->size()) return 0;
  return (*tokens)[column].size();
}

void TableSketchCache::Invalidate(const std::string& table_name) {
  MutexLock lock(mu_);
  entries_.erase(table_name);
}

void TableSketchCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
}

void TableSketchCache::ResetStats() {
  MutexLock lock(mu_);
  stats_ = Stats{};
}

TableSketchCache::Stats TableSketchCache::stats() const {
  // stats_ is GUARDED_BY(mu_): deleting this MutexLock makes the clang
  // -Wthread-safety build fail with "reading variable 'stats_' requires
  // holding mutex 'mu_'" (promoted to an error in CI's clang job). See
  // tools/lint_fixtures/bad_raw_mutex.cc for the lint-side twin.
  MutexLock lock(mu_);
  return stats_;
}

void TableSketchCache::ExportTo(Metrics* metrics) const {
  if (metrics == nullptr) return;
  const Stats s = stats();
  metrics->Set("sketch_cache.token_set.hits", s.token_set_hits);
  metrics->Set("sketch_cache.token_set.misses", s.token_set_misses);
  metrics->Set("sketch_cache.distinct_value.hits", s.distinct_value_hits);
  metrics->Set("sketch_cache.distinct_value.misses", s.distinct_value_misses);
}

}  // namespace dialite
