#ifndef DIALITE_DISCOVERY_LSH_ENSEMBLE_SEARCH_H_
#define DIALITE_DISCOVERY_LSH_ENSEMBLE_SEARCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "discovery/discovery.h"
#include "sketch/lsh_ensemble.h"

namespace dialite {

/// Joinable-table search backed by the LSH Ensemble sketch (Zhu et al.,
/// VLDB 2016) — the datasketch component of the original demo.
///
/// Offline: every join-indexed lake column's distinct-token set (from the
/// lake's LakeTokens; at least kMinJoinDistinct tokens) is added to the
/// ensemble. Online: the query column probes for indexed columns whose
/// containment of the query meets `containment_threshold`; candidates are
/// then verified *exactly* against the columns' token id sets (the sketch
/// prunes, the data decides), and each table is scored by its best
/// column's containment.
///
/// The index persists nothing: the lake's token ids fix every sketch and
/// histogram, so a snapshot open runs BuildIndex over the decoded tokens.
class LshEnsembleSearch : public DiscoveryAlgorithm {
 public:
  struct Params {
    double containment_threshold = 0.5;
    size_t num_perm = 128;
    size_t num_partitions = 8;
    uint64_t seed = 7;
    /// Buckets of the per-column token-hash histograms behind the stage-0
    /// containment bound (more buckets = tighter bound, more memory).
    size_t bound_buckets = 256;
  };

  LshEnsembleSearch() : LshEnsembleSearch(Params()) {}
  explicit LshEnsembleSearch(Params params);

  std::string name() const override { return "lsh_ensemble"; }

  /// Sketches every join-indexed column from the lake's token ids: one
  /// HashString per dictionary token gives its histogram bucket and, through
  /// MinHash::Remix, its num_perm component hashes, and each column takes
  /// the minimum over its ids. The signatures equal MinHash::FromTokens of
  /// the columns' strings, and ensemble ids follow lake order.
  Status BuildIndex(const DataLake& lake) override;

  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound: bucketing tokens by hash into B buckets,
  /// |Q∩X| = sum_b |Q_b ∩ X_b| <= sum_b min(|Q_b|, |X_b|), so containment
  /// of Q in X is at most that sum over |Q| — exact integer arithmetic
  /// against the per-column histograms stored at build time, taken over
  /// all of the table's indexed columns, and 0 when even that bound misses
  /// `containment_threshold` (the exact path filters such columns).
  /// Returns 0 for tables with no indexed columns — they cannot score.
  /// Requires BuildIndex.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

  /// Token-hash bucket counts of one distinct-token set: bound_buckets
  /// counts, token t in bucket HashString(t, seed) % bound_buckets.
  std::vector<uint32_t> TokenHistogram(
      const std::vector<std::string>& tokens) const;

  /// The built index, read-only: ensemble id i indexes lake column
  /// columns()[i], with sketch and set size ensemble().sketch(i) and
  /// ensemble().set_size(i), and histogram Histogram(i).
  const std::vector<LakeColumn>& columns() const { return columns_; }
  const LshEnsemble& ensemble() const { return ensemble_; }
  std::vector<uint32_t> Histogram(uint64_t id) const;

 private:
  /// min(1, sum_b min(qhist_b, xhist_b) / |Q|) if that clears the
  /// containment threshold, else 0.
  double ColumnUpperBound(uint64_t id, const std::vector<uint32_t>& qhist,
                          size_t query_set_size) const;

  Params params_;
  /// Ensemble ids are dense and in add order, so id i's sketch and set size
  /// are ensemble_.sketch(i) and ensemble_.set_size(i).
  LshEnsemble ensemble_;
  const DataLake* lake_ = nullptr;
  /// Ensemble id -> its lake column.
  std::vector<LakeColumn> columns_;
  /// Ensemble id i's token-hash bucket histogram (stage-0 bound) at
  /// [i * bound_buckets, (i + 1) * bound_buckets).
  std::vector<uint32_t> bucket_hists_;
  /// columns_ grouped by table (ScoreUpperBound's candidate-free bound
  /// path; a lake-resident query column's sketch).
  TableColumns table_columns_;
  /// The lake's tokens, taken on build (exact verification).
  std::shared_ptr<const LakeTokens> tokens_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_LSH_ENSEMBLE_SEARCH_H_
