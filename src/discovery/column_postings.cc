#include "discovery/column_postings.h"

#include <algorithm>
#include <memory>
#include <span>

#include "discovery/discovery.h"
#include "snapshot/bytes.h"

namespace dialite {

void ColumnPostings::Build(const DataLake& lake, size_t min_distinct,
                           size_t num_threads, ObservabilityContext* obs) {
  columns_.clear();
  postings_.clear();
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: per-table token sets through the shared sketch cache.
  std::vector<std::shared_ptr<const ColumnTokenSets>> tokens(tables.size());
  ForEachTableIndex(num_threads, tables.size(), [&](size_t i) {
    tokens[i] = lake.sketch_cache().TokenSets(*tables[i]);
  }, obs);
  // Merge phase: serial, in lake order.
  for (TableId t = 0; t < tables.size(); ++t) {
    for (size_t c = 0; c < tables[t]->num_columns(); ++c) {
      const std::vector<std::string>& toks = (*tokens[t])[c];
      if (toks.size() < min_distinct) continue;
      uint32_t id = static_cast<uint32_t>(columns_.size());
      columns_.push_back({t, static_cast<uint32_t>(c)});
      for (const std::string& tok : toks) postings_[tok].push_back(id);
    }
  }
  table_columns_ = TableColumns(columns_, tables.size());
}

void ColumnPostings::Save(const DataLake& lake, BinaryWriter* w) const {
  w->U64(columns_.size());
  for (const LakeColumn& ref : columns_) WriteLakeColumn(lake, ref, w);
  std::vector<const std::string*> tokens;
  tokens.reserve(postings_.size());
  for (const auto& [token, ids] : postings_) tokens.push_back(&token);
  std::sort(tokens.begin(), tokens.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w->U64(tokens.size());
  for (const std::string* token : tokens) {
    w->Str(*token);
    w->Array<uint32_t>(postings_.at(*token));
  }
}

Status ColumnPostings::Load(BinaryReader* r, const DataLake& lake) {
  uint64_t n = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&n));
  if (n > r->remaining()) {
    return Status::ParseError("postings column count overruns the payload");
  }
  std::vector<LakeColumn> columns(static_cast<size_t>(n));
  for (LakeColumn& col : columns) {
    DIALITE_RETURN_IF_ERROR(ReadLakeColumn(r, lake, &col));
  }
  DIALITE_RETURN_IF_ERROR(r->U64(&n));
  if (n > r->remaining()) {
    return Status::ParseError("postings token count overruns the payload");
  }
  std::unordered_map<std::string, std::vector<uint32_t>> postings;
  postings.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string token;
    DIALITE_RETURN_IF_ERROR(r->Str(&token));
    std::span<const uint32_t> ids;
    DIALITE_RETURN_IF_ERROR(r->Array(&ids));
    for (uint32_t id : ids) {
      if (id >= columns.size()) {
        return Status::ParseError("posting references unknown column");
      }
    }
    postings.emplace(std::move(token),
                     std::vector<uint32_t>(ids.begin(), ids.end()));
  }
  columns_ = std::move(columns);
  postings_ = std::move(postings);
  table_columns_ = TableColumns(columns_, lake.size());
  return Status::OK();
}

}  // namespace dialite
