#ifndef DIALITE_LAKE_DATA_LAKE_H_
#define DIALITE_LAKE_DATA_LAKE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "table/table.h"

namespace dialite {

class LakeTokens;

/// Summary statistics for a lake.
struct LakeStats {
  size_t num_tables = 0;
  size_t total_rows = 0;
  size_t total_columns = 0;
  double avg_null_fraction = 0.0;
};

/// Dense id of a lake table: its position in insertion order, so
/// table_names()[id] is its name. Ids are stable for the lake's lifetime
/// (tables are never removed); every discovery index over one lake keys its
/// per-table arrays by them and resolves names through the lake.
using TableId = uint32_t;
inline constexpr TableId kNoTable = std::numeric_limits<TableId>::max();

/// An in-memory catalog of tables keyed by unique name — the repository 𝒟
/// that discovery searches. Tables are owned by the lake; pointers returned
/// by Get() remain valid until the lake is destroyed (tables are never
/// removed, matching the append-only nature of open-data portals).
class DataLake {
 public:
  DataLake();

  DataLake(const DataLake&) = delete;
  DataLake& operator=(const DataLake&) = delete;
  DataLake(DataLake&&) = default;
  DataLake& operator=(DataLake&&) = default;

  /// Adds a table; its name must be unique and non-empty.
  Status AddTable(Table table);

  /// Looks up by name; nullptr when absent.
  const Table* Get(const std::string& name) const;

  [[nodiscard]] bool Contains(const std::string& name) const;
  size_t size() const { return tables_.size(); }

  /// The dense id of the table named `name`, or kNoTable when absent.
  TableId IdOf(std::string_view name) const;

  /// The table with dense id `id`, which must be below size().
  const Table& table(TableId id) const { return *tables_[id]; }

  /// All table names in insertion order.
  const std::vector<std::string>& table_names() const { return names_; }

  /// All tables, in insertion order (borrowed pointers).
  std::vector<const Table*> tables() const;

  LakeStats Stats() const;

  /// Loads every *.csv file in `dir` (non-recursive) as a table named after
  /// its basename. Returns the number of tables loaded.
  Result<size_t> LoadDirectory(const std::string& dir);

  /// Writes every table as <dir>/<name>.csv. Creates `dir` if needed.
  Status SaveDirectory(const std::string& dir) const;

  /// The lake's token dictionary and column token sets (LakeTokens), built
  /// on the first call with `num_threads` workers and shared by every
  /// index built afterwards. Thread-safe: concurrent first callers wait for
  /// that one build. AddTable resets it; an index keeps the tokens it was
  /// built on, so it answers as before.
  std::shared_ptr<const LakeTokens> tokens(size_t num_threads = 1) const;
  /// Whether the tokens are built (or installed): tokens() would return
  /// without building.
  bool tokens_built() const;

  /// Installs tokens decoded from a snapshot (ReadLake); they must have
  /// been made for this lake (LakeTokens::FromParts checks the widths).
  void InstallTokens(std::shared_ptr<const LakeTokens> tokens);

 private:
  /// Tables by dense id.
  std::vector<std::unique_ptr<Table>> tables_;
  /// Table names by dense id.
  std::vector<std::string> names_;
  /// Name -> dense id, in name order (Stats sums in this order).
  std::map<std::string, TableId, std::less<>> ids_;
  /// The built tokens; unique_ptr keeps DataLake movable (Mutex is not).
  struct TokensSlot {
    Mutex mu{"DataLake::TokensSlot::mu"};
    std::shared_ptr<const LakeTokens> tokens DIALITE_GUARDED_BY(mu);
  };
  std::unique_ptr<TokensSlot> tokens_slot_;
};

}  // namespace dialite

#endif  // DIALITE_LAKE_DATA_LAKE_H_
