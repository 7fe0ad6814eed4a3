#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "discovery/discovery.h"

namespace servebench {

/// One /discover hit as served: the score stays in its printed form, so
/// comparing with the library is exact.
struct Hit {
  std::string table;
  std::string score;
  bool operator==(const Hit& o) const {
    return table == o.table && score == o.score;
  }
};

/// One /align cluster as served.
struct Cluster {
  std::string name;
  std::vector<std::pair<std::string, size_t>> columns;  ///< (table, column)
  bool operator==(const Cluster& o) const {
    return name == o.name && columns == o.columns;
  }
};

/// Parses a /discover body; false unless it is well-formed JSON with a
/// "hits" array of {"table": string, "score": number}.
bool ParseHits(const std::string& body, std::vector<Hit>* hits);

/// Parses an /align body; false unless it is well-formed JSON with a
/// "clusters" array of {"name", "columns": [{"table", "column"}]}.
bool ParseClusters(const std::string& body, std::vector<Cluster>* clusters);

/// True if the clusters partition the columns of `tables` (name, column
/// count): every column in exactly one cluster and nothing else.
bool ClustersPartition(
    const std::vector<Cluster>& clusters,
    const std::vector<std::pair<std::string, size_t>>& tables);

/// Cheap well-formedness check of an /integrate body: a header line and
/// at least one newline-terminated row.
bool LooksLikeCsvTable(const std::string& body);

/// The library's answers in the served form.
std::vector<Hit> HitsOf(const std::vector<dialite::DiscoveryHit>& hits);
std::vector<Cluster> ClustersOf(const dialite::Alignment& alignment);

/// True if two CSV texts have the same header line and the same rows
/// after sorting.
bool SameRowsSorted(const std::string& a, const std::string& b);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
