#include "discovery/discovery.h"

#include <algorithm>
#include <limits>

namespace dialite {

Result<double> DiscoveryAlgorithm::ScoreUpperBound(
    const DiscoveryQuery& query, const std::string& table_name) const {
  (void)query;
  (void)table_name;
  // Trivially admissible: every finite score is <= +infinity. Algorithms
  // without cascade wiring inherit this and gain no pruning power.
  return std::numeric_limits<double>::infinity();
}

TableColumns::TableColumns(const std::vector<LakeColumn>& columns,
                           size_t num_tables)
    : ids_(num_tables) {
  for (size_t i = 0; i < columns.size(); ++i) {
    ids_[columns[i].table].push_back(static_cast<uint32_t>(i));
  }
}

const std::vector<uint32_t>& TableColumns::Of(TableId t) const {
  static const std::vector<uint32_t> kNone;
  return t < ids_.size() ? ids_[t] : kNone;
}

std::vector<TableId> IndexedIdsByName(const DataLake& lake,
                                      const std::vector<uint8_t>& indexed) {
  const std::vector<std::string>& names = lake.table_names();
  std::vector<TableId> ids;
  for (TableId t = 0; t < indexed.size(); ++t) {
    if (indexed[t]) ids.push_back(t);
  }
  std::sort(ids.begin(), ids.end(),
            [&](TableId a, TableId b) { return names[a] < names[b]; });
  return ids;
}

Result<TableId> ClaimPayloadTable(const DataLake& lake,
                                  const std::string& table,
                                  const std::string& algo,
                                  std::vector<uint8_t>* indexed) {
  const TableId t = lake.IdOf(table);
  if (t == kNoTable) {
    return Status::NotFound("indexed table '" + table + "' missing from lake");
  }
  if ((*indexed)[t]) {
    return Status::ParseError(algo + " payload lists table '" + table +
                              "' twice");
  }
  (*indexed)[t] = 1;
  return t;
}

bool HitBetter(double score, std::string_view name, const DiscoveryHit& b) {
  if (score != b.score) return score > b.score;
  return name < b.table_name;
}

bool HitBetter(const DiscoveryHit& a, const DiscoveryHit& b) {
  return HitBetter(a.score, a.table_name, b);
}

std::vector<DiscoveryHit> RankHits(std::vector<DiscoveryHit> hits, size_t k) {
  hits.erase(std::remove_if(hits.begin(), hits.end(),
                            [](const DiscoveryHit& h) { return h.score <= 0; }),
             hits.end());
  std::sort(hits.begin(), hits.end(),
            [](const DiscoveryHit& a, const DiscoveryHit& b) {
              return HitBetter(a, b);
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

}  // namespace dialite
