#ifndef DIALITE_ALIGN_ALITE_MATCHER_H_
#define DIALITE_ALIGN_ALITE_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "align/alignment.h"
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
  struct ColumnSignature {
    size_t table_idx;
    size_t column;
    std::vector<std::string> tokens;  ///< ColumnTokens, sorted
    Embedding embedding;
    std::string norm_header;
    std::string raw_header;
    bool numeric;
    bool all_null;
  };

  ColumnSignature MakeSignature(const std::vector<const Table*>& tables,
                                size_t table_idx, size_t column) const;
  /// `jaro_flags`: JaroWinklerScratch's scratch, at least
  /// a.norm_header.size() + b.norm_header.size() bytes.
  double PairSimilarity(const ColumnSignature& a, const ColumnSignature& b,
                        uint8_t* jaro_flags) const;

  Params params_;
  HashEmbedder embedder_;
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
