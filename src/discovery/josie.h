#ifndef DIALITE_DISCOVERY_JOSIE_H_
#define DIALITE_DISCOVERY_JOSIE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "discovery/column_postings.h"
#include "discovery/discovery.h"

namespace dialite {

/// Exact top-k overlap set-similarity search in the spirit of JOSIE (Zhu et
/// al., SIGMOD 2019): given the query column's value set Q, return the k
/// lake tables owning a column X maximizing |Q ∩ X|.
///
/// Offline: a token inverted index over all lake columns, with posting
/// lists ordered by column. Online (cascade mode, the default): posting
/// lists are merged rarest-first, and the merge stops once the lists still
/// unread cannot lift any unseen column past the k-th best partial count —
/// JOSIE's prefix-filter idea. Survivors are exactly verified against their
/// token sets (re-tokenized once through the lake's sketch cache), so
/// scores are exact overlaps either way. Exhaustive mode walks every
/// posting list to completion, as the original implementation did.
class JosieSearch : public DiscoveryAlgorithm, public PersistentIndex {
 public:
  struct Params {
    /// Columns with fewer distinct tokens than this are not indexed.
    size_t min_distinct = 2;
    /// Candidates must overlap the query in at least this many values.
    size_t min_overlap = 1;
  };

  JosieSearch() : JosieSearch(Params()) {}
  explicit JosieSearch(Params params) : params_(params) {}

  std::string name() const override { return "josie"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Offline-index persistence (the paper's "indexes ... are built
  /// offline"): the payload is the ColumnPostings body after JOSIE's name
  /// and version. The lake passed to LoadPayload must contain the indexed
  /// tables and columns (they are only needed for name resolution, not
  /// re-tokenized).
  Status SavePayload(BinaryWriter* w) const override;
  Status LoadPayload(BinaryReader* r, const DataLake& lake) override;

  /// Scores are raw overlaps |Q ∩ X| (JOSIE's objective), so they are
  /// integers ≥ min_overlap.
  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Batch path: locates each *distinct* token of the whole batch in the
  /// inverted index once and scatters its posting list to every query
  /// containing the token — one index pass, cache-friendly, with
  /// discover.josie.batch.* counters recording the saved lookups. Results
  /// are identical to per-query Search() in either mode.
  Result<std::vector<std::vector<DiscoveryHit>>> SearchBatch(
      const std::vector<DiscoveryQuery>& queries) const override;

  /// Admissible stage-0 bound: |Q ∩ X| <= min(|Q|, |X|), maximized over the
  /// table's indexed columns (|X| via the lake's sketch cache), 0 when even
  /// that misses min_overlap or the table has no indexed columns. Search()'s
  /// cascade uses the tighter partial-count + remaining-lists bound instead.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

 private:
  /// Table `t`'s best-column exact overlap against `qset` over all of its
  /// indexed columns; 0 when below min_overlap. The same integer count the
  /// posting merge produces, so both paths score identically.
  double ScoreTableExact(const std::unordered_set<std::string_view>& qset,
                         TableId t) const;

  /// Folds per-column overlap counts into ranked per-table hits (the
  /// exhaustive tail shared by Search and SearchBatch), leaving out table
  /// `self`.
  std::vector<DiscoveryHit> AggregateOverlaps(
      const std::unordered_map<uint32_t, size_t>& overlap, TableId self,
      size_t k) const;

  Params params_;
  const DataLake* lake_ = nullptr;
  /// Column ids, (table id, column index) per id, and token postings. The
  /// cascade merge accumulates per-table bests in flat arrays indexed by
  /// the lake's table ids, with no string hashing per posting.
  ColumnPostings index_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_JOSIE_H_
