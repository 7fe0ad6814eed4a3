#ifndef DIALITE_ALIGN_ALIGNMENT_H_
#define DIALITE_ALIGN_ALIGNMENT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/observability.h"
#include "table/table.h"

namespace dialite {

class DataLake;

/// A column of a specific table in an integration set.
struct ColumnRef {
  std::string table;
  size_t column = 0;

  bool operator==(const ColumnRef& other) const {
    return table == other.table && column == other.column;
  }
};

/// The product of holistic schema matching: a partition of every column of
/// the integration set into clusters. Each cluster receives an *integration
/// ID* — the dummy attribute name ALITE uses in place of unreliable
/// headers — and the (natural) Full Disjunction is computed over these IDs.
class Alignment {
 public:
  Alignment() = default;

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Appends a cluster; returns its integration id (dense, 0-based).
  /// `display_name` is cosmetic (used for output column headers).
  size_t AddCluster(std::vector<ColumnRef> members, std::string display_name);

  size_t num_clusters() const { return clusters_.size(); }
  const std::vector<ColumnRef>& cluster(size_t id) const {
    return clusters_[id];
  }

  /// Integration id of a column, or npos if the column is not aligned.
  size_t IdOf(const std::string& table, size_t column) const;

  /// Human-facing name of a cluster (majority original header, or "iid<k>").
  const std::string& IdName(size_t id) const { return names_[id]; }

  /// Verifies the alignment is a valid partition for the given tables:
  /// every column of every table appears in exactly one cluster, and no
  /// cluster contains two columns of the same table (ALITE's constraint).
  Status Validate(const std::vector<const Table*>& tables) const;

  /// Renders "iid0{T1.0, T2.0} ..." for debugging.
  std::string ToString() const;

 private:
  static std::string Key(const std::string& table, size_t column);

  std::vector<std::vector<ColumnRef>> clusters_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, size_t> index_;
};

/// Interface for schema matchers producing integration IDs.
class SchemaMatcher {
 public:
  virtual ~SchemaMatcher() = default;

  virtual std::string name() const = 0;

  /// Partitions the columns of `tables` (all pointers non-null, names
  /// unique) into integration-ID clusters. `cancel` may be null; when it is
  /// not, matchers with super-linear inner loops must poll it and return
  /// kDeadlineExceeded promptly — request threads rely on this to honor
  /// their deadline (see DESIGN.md "Serving"). Derived classes re-export
  /// the convenience overload with `using SchemaMatcher::Align;`.
  Result<Alignment> Align(const std::vector<const Table*>& tables) const {
    return Align(tables, nullptr);
  }
  virtual Result<Alignment> Align(const std::vector<const Table*>& tables,
                                  const CancelToken* cancel) const = 0;

  /// Observability sink for align spans/counters (null = disabled, the
  /// default). Set by the Dialite facade; the context must outlive the
  /// matcher and must not change while Align runs.
  void set_observability(ObservabilityContext* obs) { obs_ = obs; }
  ObservabilityContext* observability() const { return obs_; }

  /// The lake the integration sets are drawn from (null = none, the
  /// default). Set by the Dialite facade at registration; the lake must
  /// outlive the matcher and must not change after the first Align. For a
  /// *resident* table — `t` with lake->Get(t->name()) == t — a matcher may
  /// read what the lake derives from it (its LakeTokens columns): lake
  /// tables are immutable and never removed.
  void set_lake(const DataLake* lake) { lake_ = lake; }

 protected:
  ObservabilityContext* obs_ = nullptr;
  const DataLake* lake_ = nullptr;
};

}  // namespace dialite

#endif  // DIALITE_ALIGN_ALIGNMENT_H_
