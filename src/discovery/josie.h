#ifndef DIALITE_DISCOVERY_JOSIE_H_
#define DIALITE_DISCOVERY_JOSIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "discovery/discovery.h"

namespace dialite {

/// Exact top-k overlap set-similarity search in the spirit of JOSIE (Zhu et
/// al., SIGMOD 2019): given the query column's value set Q, return the k
/// lake tables owning a column X maximizing |Q ∩ X|.
///
/// Offline: the lake's token postings (LakeTokens) over its join-indexed
/// columns (at least kMinJoinDistinct tokens), with posting lists ordered
/// by column. Online (cascade mode, the default): posting lists are merged
/// rarest-first, and the merge stops once the lists still unread cannot
/// lift any unseen column past the k-th best partial count — JOSIE's
/// prefix-filter idea. Survivors are exactly verified against their token
/// id sets, so scores are exact overlaps either way. Exhaustive mode walks
/// every posting list to completion, as the original implementation did.
///
/// JOSIE persists nothing of its own: BuildIndex takes the lake's tokens
/// and derives one count per token, which a snapshot open repeats.
class JosieSearch : public DiscoveryAlgorithm {
 public:
  struct Params {
    /// Candidates must overlap the query in at least this many values.
    size_t min_overlap = 1;
  };

  JosieSearch() : JosieSearch(Params()) {}
  explicit JosieSearch(Params params) : params_(params) {}

  std::string name() const override { return "josie"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Scores are raw overlaps |Q ∩ X| (JOSIE's objective), so they are
  /// integers ≥ min_overlap.
  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound: |Q ∩ X| <= min(|Q|, |X|), maximized over the
  /// table's indexed columns, 0 when even that misses min_overlap or the
  /// table has no indexed columns. Search()'s cascade uses the tighter
  /// partial-count + remaining-lists bound instead.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

 private:
  /// Table `t`'s best-column exact overlap against the query's ascending
  /// token ids over all of its indexed columns; 0 when below min_overlap.
  /// The same integer count the posting merge produces, so both paths
  /// score identically.
  double ScoreTableExact(const std::vector<uint32_t>& qids, TableId t) const;

  Params params_;
  const DataLake* lake_ = nullptr;
  /// The tokens the index was built on.
  std::shared_ptr<const LakeTokens> tokens_;
  /// Per token id, how many indexed columns its posting list holds: the
  /// list length the rarest-first merge orders by.
  std::vector<uint32_t> indexed_postings_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_JOSIE_H_
