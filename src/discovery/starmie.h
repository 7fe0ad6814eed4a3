#ifndef DIALITE_DISCOVERY_STARMIE_H_
#define DIALITE_DISCOVERY_STARMIE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "discovery/cascade.h"
#include "discovery/discovery.h"
#include "kb/embedding.h"
#include "sketch/simhash.h"

namespace dialite {

/// Dense-representation unionable-table search in the spirit of Starmie
/// (Fan et al., VLDB 2023 — "contextualized column-based representation
/// learning"), the other modern discovery family DIALITE can host.
///
/// Where SANTOS matches discrete KB annotations, Starmie represents every
/// column as a dense vector that mixes the column's own content with its
/// *table context* (the other columns), then scores a candidate table by
/// greedy bipartite matching of column vectors. Our vectors are the
/// deterministic KB-aware hash embeddings (the pretrained-encoder
/// substitute); contextualization is a convex mix
///     v(c) = (1−γ)·embed(c) + γ·mean(embed(other columns))
/// which reproduces the key behavioural property: the same values in a
/// different table context embed differently.
///
/// Offline, column vectors go into a SimHash band index; online, query
/// columns probe it, candidate tables are verified with exact cosines, and
/// score = mean over query columns of the best one-to-one match. The
/// default search runs the cascade (RunBoundedTopK): a CosineUpperBound
/// per column pair bounds every candidate, and exact cosines run only for
/// candidates that can still reach the top k.
///
/// embed(c) of a lake column is the lake's own embedding (LakeTokens), so
/// the index persists nothing: a snapshot open runs BuildIndex, which mixes
/// from the decoded embeddings and re-inserts into SimHash. embed(c) of a
/// query column is summed from the lake's token vectors.
class StarmieSearch : public DiscoveryAlgorithm {
 public:
  struct Params {
    double context_weight = 0.25;  ///< γ above
    double min_column_cosine = 0.5; ///< match gate per column pair
    size_t simhash_bits = 64;
    size_t band_bits = 8;
    uint64_t seed = 31;
  };

  StarmieSearch() : StarmieSearch(Params()) {}
  explicit StarmieSearch(Params params);

  std::string name() const override { return "starmie"; }
  Status BuildIndex(const DataLake& lake) override;

  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound: the mean over query columns of each
  /// column's best pair bound at or above min_column_cosine (0 for a column
  /// without one), where a pair's bound is CosineUpperBound. Relaxes the
  /// one-to-one matching to each query column's best pair, caps the sum at
  /// min(|Q cols|, |T cols|) matched pairs, and scales it by kFpMargin for
  /// summation order. 0 when the intent column cannot pair or the table is
  /// not indexed.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

  /// Contextualized vectors of a query table's columns, row-major, dim
  /// floats per column: each column's ColumnEmbedder embedding summed from
  /// the lake's token vectors (LakeTokens::EmbedColumn), then mixed as lake
  /// tables are. Adds the count of tokens the dictionary lacks to
  /// `*embedded` when non-null. Requires BuildIndex; exposed for tests.
  std::vector<float> ContextualizedColumns(const Table& table,
                                           uint64_t* embedded = nullptr) const;

 private:
  /// The contextual mix of the `n` column embeddings at `own` (row-major,
  /// dim_ floats each) into the `n` rows at `out`. Lake tables and queries
  /// both mix here, so their vectors round alike.
  void Contextualize(const float* own, size_t n, float* out) const;

  /// Matrix rows of table `t`: [row_begin_[t], row_begin_[t + 1]).
  size_t NumTables() const { return row_begin_.size() - 1; }
  size_t NumColumns(TableId t) const {
    return row_begin_[t + 1] - row_begin_[t];
  }
  const float* Row(size_t g) const { return vectors_.data() + g * dim_; }

  /// The exact table score both search modes share: CosineSimilarity for
  /// every column pair of the `nq` query vectors `qvecs` and table `t`, the
  /// pairs at or above min_column_cosine taken in (q, c) order and sorted
  /// by descending cosine, then GreedyMatchMean. `scratch->pairs` must hold
  /// nq × NumColumns(t) pairs. Adds the cosines it runs to
  /// `*exact_cosines`.
  double MatchColumns(const float* qvecs, size_t nq, size_t intent, TableId t,
                      MatchScratch* scratch, uint64_t* exact_cosines) const;

  /// ScoreUpperBound for table `t`, given the query's vectors and their
  /// norms.
  double CandidateUpperBound(const float* qvecs,
                             const std::vector<double>& qnorms, size_t intent,
                             TableId t) const;

  Params params_;
  size_t dim_;
  const DataLake* lake_ = nullptr;
  /// The lake's tokens the index was built on: lake rows are mixed from
  /// their column embeddings, query columns summed from their token
  /// vectors.
  std::shared_ptr<const LakeTokens> tokens_;
  std::unique_ptr<SimHashIndex> index_;
  /// SimHash id -> its lake column.
  std::vector<LakeColumn> columns_;
  /// Per lake table id, its first matrix row (one past the last table at
  /// the end): rows are the lake's column ids.
  std::vector<size_t> row_begin_;
  /// Row-major matrix of contextualized column vectors, dim_ floats per
  /// row, and each row's EmbeddingNorm.
  std::vector<float> vectors_;
  std::vector<double> norms_;
  /// Column count of the widest table, which sizes MatchScratch.
  size_t max_columns_ = 0;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_STARMIE_H_
