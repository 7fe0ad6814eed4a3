#ifndef DIALITE_ALIGN_ALITE_MATCHER_H_
#define DIALITE_ALIGN_ALITE_MATCHER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/alignment.h"
#include "lake/lake_tokens.h"

namespace dialite {

/// ALITE's holistic schema matcher: instead of matching table pairs in
/// isolation, it clusters the columns of the *whole* integration set at
/// once, under the constraint that two columns of the same table can never
/// share an integration ID.
///
/// Pairwise column evidence combines three header-independent-first signals:
///  - value overlap: max directional containment of distinct value sets
///    (containment, not Jaccard, because lake fragments differ wildly in
///    cardinality);
///  - semantic similarity: cosine of KB-aware hash embeddings of the value
///    sets (carries the match when value sets are disjoint, e.g. the city
///    columns of T1 and T2 in the paper's Fig. 2);
///  - header similarity: exact normalized equality earns a fixed bonus,
///    otherwise scaled Jaro-Winkler — deliberately the weakest signal,
///    since lake headers are unreliable or missing.
///
/// Clustering is average-linkage agglomerative: repeatedly merge the most
/// similar admissible cluster pair until no admissible pair reaches
/// `threshold`. Unmerged columns keep singleton integration IDs.
///
/// A column's signature is its sorted tokens, its embedding, its headers
/// and its type flags. A column of a table resident in set_lake()'s lake
/// borrows its sorted tokens and embedding from the lake's LakeTokens, so
/// only its headers and flags are derived per call; other tables are
/// tokenized and embedded (signed) on every call, their embeddings summed
/// from the lake's token vectors when the set holds a lake table
/// (DESIGN.md "Lake columns in ALITE").
class AliteMatcher : public SchemaMatcher {
 public:
  struct Params {
    double value_weight = 0.4;       ///< weight of value containment
    double embedding_weight = 0.3;   ///< weight of embedding cosine
    double header_exact_bonus = 0.4;
    double header_fuzzy_weight = 0.3;
    double threshold = 0.4;          ///< min average linkage to merge
    /// Columns whose types conflict (numeric vs text) never match unless
    /// one side is entirely null.
    bool type_gate = true;
  };

  AliteMatcher() : AliteMatcher(Params()) {}
  explicit AliteMatcher(Params params);

  std::string name() const override { return "alite_holistic"; }
  using SchemaMatcher::Align;
  Result<Alignment> Align(const std::vector<const Table*>& tables,
                          const CancelToken* cancel) const override;

  /// The pairwise column similarity described above (exposed for tests and
  /// the ablation bench).
  double ColumnSimilarity(const Table& ta, size_t ca, const Table& tb,
                          size_t cb) const;

 private:
  /// One column's signature. Its ColumnTokens, sorted and distinct, are
  /// tokens [first_token, end_token) of the owning TableSignature; its
  /// embedding is dim_ floats, a lake row or the TableSignature's own.
  struct ColumnSignature {
    size_t first_token = 0;
    size_t end_token = 0;
    const float* embedding = nullptr;
    std::string norm_header;
    std::string raw_header;
    bool numeric = false;
    bool all_null = true;

    size_t num_tokens() const { return end_token - first_token; }
  };

  /// Every column signature of one table, filled in place: `tokens` views
  /// the lake's dictionary (a lake table) or `token_bytes` (a signed
  /// table), column after column, and a signed table's embeddings are
  /// `embeddings`, column c's at [c * dim_, (c + 1) * dim_).
  struct TableSignature {
    std::string token_bytes;
    std::vector<float> embeddings;
    std::vector<std::string_view> tokens;
    std::vector<ColumnSignature> columns;
  };

  /// Signs every column of `t` into the empty `*out`: tokenizes and embeds
  /// each, polling `cancel` once per column. With `lake_tokens` non-null
  /// the embeddings are summed from its token vectors; either way the
  /// values embedded anew are counted into `*embedded` (when
  /// non-null).
  Status SignTable(const Table& t, const LakeTokens* lake_tokens,
                   const CancelToken* cancel, TableSignature* out,
                   uint64_t* embedded) const;
  /// Fills the empty `*out` for lake table `id` (`t` itself) from the
  /// lake's `tokens`: each column's sorted ids viewed as strings, and its
  /// lake embedding; polls `cancel` once per column.
  Status BorrowLakeColumns(const Table& t, const LakeTokens& tokens,
                           TableId id, const CancelToken* cancel,
                           TableSignature* out) const;
  /// Appends the signature of `t`'s column `column`, given its tokens'
  /// range in the signature's token list and its embedding; derives its
  /// headers and type flags.
  void AddColumn(const Table& t, size_t column, size_t first_token,
                 size_t end_token, const float* embedding,
                 TableSignature* out) const;
  /// Similarity of column `ca` of `ta` and column `cb` of `tb`.
  /// `jaro_flags`: JaroWinklerScratch's scratch, at least as many bytes as
  /// the two columns' normalized headers together.
  double PairSimilarity(const TableSignature& ta, size_t ca,
                        const TableSignature& tb, size_t cb,
                        uint8_t* jaro_flags) const;

  const Params params_;
  /// Floats per embedding: ColumnEmbedder().dim().
  const size_t dim_;
};

/// Baseline matcher: columns align iff their normalized headers are equal
/// and non-empty. The strawman ALITE's holistic matching is measured
/// against (collapses as soon as headers are perturbed).
class NameMatcher : public SchemaMatcher {
 public:
  std::string name() const override { return "name_equality"; }
  using SchemaMatcher::Align;
  Result<Alignment> Align(const std::vector<const Table*>& tables,
                          const CancelToken* cancel) const override;
};

/// User-specified alignment: the caller lists clusters of column refs;
/// unlisted columns become singletons.
class ManualAlignment : public SchemaMatcher {
 public:
  explicit ManualAlignment(std::vector<std::vector<ColumnRef>> clusters)
      : clusters_(std::move(clusters)) {}

  std::string name() const override { return "manual"; }
  using SchemaMatcher::Align;
  Result<Alignment> Align(const std::vector<const Table*>& tables,
                          const CancelToken* cancel) const override;

 private:
  std::vector<std::vector<ColumnRef>> clusters_;
};

}  // namespace dialite

#endif  // DIALITE_ALIGN_ALITE_MATCHER_H_
