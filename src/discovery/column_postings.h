#ifndef DIALITE_DISCOVERY_COLUMN_POSTINGS_H_
#define DIALITE_DISCOVERY_COLUMN_POSTINGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "discovery/discovery.h"
#include "lake/data_lake.h"
#include "obs/observability.h"

namespace dialite {

class BinaryReader;
class BinaryWriter;

/// Token inverted index over a lake's columns: the one postings index JOSIE
/// and COCOA both search. Every column with at least `min_distinct` distinct
/// tokens gets a dense id in lake order (table id order, then column
/// order), and each token maps to the ids of the columns containing it,
/// ascending. Columns name their table by its lake id; the payload names
/// it by its lake name.
///
/// The owning algorithm frames the payload (its name and version first);
/// this class writes and reads only the index body.
class ColumnPostings {
 public:
  /// Rebuilds the index over `lake`. Token sets come from the lake's sketch
  /// cache on `num_threads` workers; postings are merged serially in lake
  /// order, so the index is identical for every thread count.
  void Build(const DataLake& lake, size_t min_distinct, size_t num_threads,
             ObservabilityContext* obs);

  /// Writes the column list (tables by their names in `lake`, the lake the
  /// index was built or loaded over), then the postings in sorted token
  /// order: the map is unordered, and a deterministic byte stream is what
  /// makes save -> load -> save identical.
  void Save(const DataLake& lake, BinaryWriter* w) const;

  /// Replaces the index with the one Save wrote. Each column must name a
  /// table of `lake` (kNotFound) and a column index inside it, and each
  /// posting a listed column (kParseError). On error the index is unchanged.
  Status Load(BinaryReader* r, const DataLake& lake);

  const std::vector<LakeColumn>& columns() const { return columns_; }

  /// Ids of table `t`'s indexed columns, ascending (empty past the lake the
  /// index covers).
  const std::vector<uint32_t>& ColumnsOf(TableId t) const {
    return table_columns_.Of(t);
  }

  /// Ids of the columns containing `token`, or null when none does.
  const std::vector<uint32_t>* Find(const std::string& token) const {
    auto it = postings_.find(token);
    return it == postings_.end() ? nullptr : &it->second;
  }

  size_t num_tokens() const { return postings_.size(); }

 private:
  std::vector<LakeColumn> columns_;
  std::unordered_map<std::string, std::vector<uint32_t>> postings_;
  /// columns_ grouped by table (derived on build and load).
  TableColumns table_columns_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_COLUMN_POSTINGS_H_
