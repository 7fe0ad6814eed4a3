#ifndef DIALITE_ALIGN_ALITE_MATCHER_H_
#define DIALITE_ALIGN_ALITE_MATCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "align/alignment.h"
#include "common/sync.h"
#include "kb/embedding.h"
#include "kb/knowledge_base.h"

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
/// Column signatures (sorted tokens, embedding, headers, type flags) of a
/// table resident in set_lake()'s lake are computed on the first Align that
/// touches the table and reused by every later one; other tables are signed
/// on every call. The cache holds at most one entry per lake table and
/// lives as long as the matcher (DESIGN.md "Signature residency").
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

  AliteMatcher() : AliteMatcher(Params(), &KnowledgeBase::BuiltIn()) {}
  explicit AliteMatcher(const KnowledgeBase* kb)
      : AliteMatcher(Params(), kb) {}
  AliteMatcher(Params params, const KnowledgeBase* kb);

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
  /// tokens [first_token, end_token) of the owning TableSignature, which
  /// also holds its embedding.
  struct ColumnSignature {
    size_t first_token = 0;
    size_t end_token = 0;
    std::string norm_header;
    std::string raw_header;
    bool numeric = false;
    bool all_null = true;

    size_t num_tokens() const { return end_token - first_token; }
  };

  /// Every column signature of one table. The tokens of all columns share
  /// one buffer: token i is token_bytes[token_ends[i - 1], token_ends[i]);
  /// so do the embeddings: column c's are embeddings[c * dim, (c + 1) * dim).
  struct TableSignature {
    std::string token_bytes;
    std::vector<size_t> token_ends;
    std::vector<float> embeddings;
    std::vector<ColumnSignature> columns;

    std::string_view token(size_t i) const {
      const size_t begin = i == 0 ? 0 : token_ends[i - 1];
      return std::string_view(token_bytes).substr(begin,
                                                  token_ends[i] - begin);
    }
  };

  /// Appends the signature of `t`'s column `column` to `*out`.
  void MakeSignature(const Table& t, size_t column, TableSignature* out) const;
  /// Signs every column of `t`, polling `cancel` once per column.
  Result<TableSignature> SignTable(const Table& t,
                                   const CancelToken* cancel) const;
  /// The signature of `t` if it is resident in lake_ (filled on a miss,
  /// first writer wins), else null. `*computed` counts columns signed here.
  Result<const TableSignature*> ResidentSignature(const Table& t,
                                                  const CancelToken* cancel,
                                                  uint64_t* computed) const
      DIALITE_EXCLUDES(cache_mu_);
  /// Similarity of column `ca` of `ta` and column `cb` of `tb`.
  /// `jaro_flags`: JaroWinklerScratch's scratch, at least as many bytes as
  /// the two columns' normalized headers together.
  double PairSimilarity(const TableSignature& ta, size_t ca,
                        const TableSignature& tb, size_t cb,
                        uint8_t* jaro_flags) const;

  const Params params_;
  const HashEmbedder embedder_;
  /// Residency cache: lake table -> its signature, never evicted (lake
  /// tables are never removed, so it is bounded by the lake's size).
  mutable SharedMutex cache_mu_{"AliteMatcher::cache_mu_"};
  mutable std::unordered_map<const Table*,
                             std::unique_ptr<const TableSignature>>
      cache_ DIALITE_GUARDED_BY(cache_mu_);
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
