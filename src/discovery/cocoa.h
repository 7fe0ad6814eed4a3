#ifndef DIALITE_DISCOVERY_COCOA_H_
#define DIALITE_DISCOVERY_COCOA_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "discovery/discovery.h"

namespace dialite {

/// Correlation-aware data augmentation search in the spirit of COCOA
/// (Esmailoghli et al., EDBT 2021) — the related-work system the paper
/// contrasts DIALITE against. COCOA looks for tables that are joinable
/// with the query AND whose numeric columns correlate with the query's
/// numeric columns after the join (i.e., features that would actually help
/// a downstream model).
///
/// Offline: the lake's token postings (LakeTokens) over its join-indexed
/// columns, which JOSIE searches too; COCOA persists nothing of its own.
/// Online: candidates joinable on the query column above
/// `min_containment`; for each, the query and candidate are joined on the
/// query column and the score is the best |Spearman ρ| between any query
/// numeric column and any candidate numeric column over the joined rows
/// (Spearman, as in COCOA, because it is rank-based and join-order
/// insensitive). Candidates with no correlated numeric pair score by a
/// small joinability-only fallback so pure joins still rank below
/// correlated ones.
///
/// The default search hoists everything but the join itself: the query's
/// numeric cells and join tokens once per search, each lake table's
/// numeric cells once per index epoch, one join per candidate column, and
/// no join at all when either side lacks a numeric column. kExhaustive
/// runs BestJoinedCorrelation per candidate as the reference; scores are
/// bit-identical.
class CocoaSearch : public DiscoveryAlgorithm {
 public:
  struct Params {
    double min_containment = 0.5;
    size_t min_joined_rows = 3;  ///< pairs needed before ρ is meaningful
    /// Score floor for joinable-but-uncorrelated candidates.
    double joinability_fallback_scale = 0.1;
  };

  CocoaSearch() : CocoaSearch(Params()) {}
  explicit CocoaSearch(Params params) : params_(params) {}

  std::string name() const override { return "cocoa"; }
  /// Takes the lake's tokens and parses the numeric cells of every table
  /// with an indexed column (a snapshot open runs the same).
  Status BuildIndex(const DataLake& lake) override;

  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

 private:
  /// A table's numeric columns — every non-null cell parses, and at least
  /// two do — with each cell parsed once. Cell r of the i-th column is
  /// values[i * rows + r], valid where parsed[i * rows + r] is 1.
  struct NumericCells {
    size_t rows = 0;
    std::vector<size_t> columns;
    std::vector<double> values;
    std::vector<uint8_t> parsed;
  };
  static NumericCells ParseNumericCells(const Table& t);

  struct QuerySide;
  /// The query's side for joins on `join_col`: its NumericCells, each
  /// row's join token, and scratch sized to its rows. A query without a
  /// numeric column never joins, so it gets only the (empty) cells.
  QuerySide MakeQuerySide(const Table& query,
                          const ColumnView& join_col) const;

  /// BestJoinedCorrelation of the query against column `cand_col` of
  /// `cand`, whose NumericCells are `cnum`, from the hoisted query side;
  /// counts its Spearman evaluations.
  double JoinedCorrelation(QuerySide* q, const Table& cand, size_t cand_col,
                           const NumericCells& cnum,
                           uint64_t* spearman_evals) const;

  Params params_;
  const DataLake* lake_ = nullptr;
  /// The tokens the index was built on.
  std::shared_ptr<const LakeTokens> tokens_;
  /// Per lake table id, its NumericCells (empty for tables without an
  /// indexed column): derived once per index epoch.
  std::vector<NumericCells> numeric_;
};

/// Best absolute Spearman correlation between any numeric column of
/// `query` and any numeric column of `candidate`, over rows joined on
/// (query_col, cand_col) token equality. Returns 0 when no pair reaches
/// `min_rows` joined rows. Exposed for tests and the correlation analysis.
double BestJoinedCorrelation(const Table& query, size_t query_col,
                             const Table& candidate, size_t cand_col,
                             size_t min_rows);

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_COCOA_H_
