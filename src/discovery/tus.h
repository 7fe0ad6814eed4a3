#ifndef DIALITE_DISCOVERY_TUS_H_
#define DIALITE_DISCOVERY_TUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "discovery/cascade.h"
#include "discovery/discovery.h"
#include "kb/annotator.h"
#include "kb/embedding.h"
#include "kb/knowledge_base.h"

namespace dialite {

/// Table Union Search in the spirit of TUS (Nargesian et al., VLDB 2018),
/// the original unionability ensemble and the third unionable-search
/// family DIALITE can host (besides SANTOS' relationship semantics and
/// Starmie's contextual embeddings).
///
/// TUS scores a column pair by an ENSEMBLE of unionability measures and
/// takes the strongest:
///   - set unionability  — value-set overlap coefficient
///     |A ∩ B| / min(|A|, |B|), over the lake's token ids;
///   - semantic unionability — cosine of KB type-annotation vectors;
///   - natural-language unionability — embedding cosine of the value sets.
/// A candidate table's score is the mean over query columns of its best
/// one-to-one column unionability (requiring the intent column to match),
/// i.e. the table aligns with the query schema column-for-column but —
/// unlike SANTOS — without any relationship evidence.
class TusSearch : public DiscoveryAlgorithm, public PersistentIndex {
 public:
  struct Params {
    double min_column_unionability = 0.5;
    size_t max_types_per_column = 3;
  };

  TusSearch() : TusSearch(Params()) {}
  explicit TusSearch(Params params);

  std::string name() const override { return "tus"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Offline-index persistence: the payload (version 3) carries each
  /// table's column KB types in sorted table order; column token sets and
  /// embeddings are the lake's tokens, and the flat layout, type ids and
  /// type postings are rebuilt on load, so Search() needs no profiling pass
  /// over the lake. A table listed twice or with a column count other than
  /// the lake's, or types out of label order, fail with kParseError.
  Status SavePayload(BinaryWriter* w) const override;
  Status LoadPayload(BinaryReader* r, const DataLake& lake) override;

  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound on the TUS table score: an index-accelerated
  /// rescoring of every column pair. The lake's token postings walked
  /// during candidate generation yield the EXACT intersection |A ∩ B| per
  /// (query column, table column)
  /// pair, so u_set is computed with the exact scorer's own arithmetic and
  /// u_sem mirrors the exact type cosine; u_nl takes CosineUpperBound
  /// instead of the exact embedding cosine. The other relaxations are the
  /// matching one — each query column takes its best pair instead of a
  /// one-to-one assignment — and the kFpMargin headroom, so the bound sits
  /// close to the true score and prunes nearly everything below the
  /// running top-k bar. Pairs below min_column_unionability contribute 0,
  /// an intent column that cannot pair zeroes the whole table, and the sum
  /// is capped by the matching size min(|Q cols|, tokenized table cols).
  /// Profiles the query table per call — Search()'s cascade shares one
  /// profiling pass.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

 private:
  /// KB types as (label, confidence), in label order.
  using LabeledTypes = std::vector<std::pair<std::string, double>>;
  /// A KB type of a lake column: (type id, confidence).
  using TypeWeight = std::pair<uint32_t, double>;

  /// A query column as a search compares it with lake columns: the
  /// embedding of its value set (summed from the lake's token vectors) and
  /// its EmbeddingNorm, its token count |A| and the ids of those of its
  /// tokens the lake's dictionary holds (ascending), its types under the
  /// epoch's type ids (a type no lake column carries matches nothing and is
  /// left out), and the squared norm over all of its types.
  struct QueryColumn {
    Embedding embedding;
    double norm = 0.0;
    size_t num_tokens = 0;
    std::vector<uint32_t> ids;
    std::vector<TypeWeight> types;
    double type_sqnorm = 0.0;
  };

  /// Per-search stage-0 evidence of one candidate: hits[q * ncols + c]
  /// counts how many of query column q's (distinct) tokens candidate column
  /// c contains. Because the per-column postings are deduplicated, this IS
  /// the exact intersection |A_q ∩ B_c|.
  struct Evidence {
    const uint32_t* hits = nullptr;
    size_t ncols = 0;
  };

  /// KB types of a column given its ColumnDistinctCsv values.
  LabeledTypes ColumnTypes(
      const std::vector<std::string>& distinct_values) const;

  /// The query's columns, with their types mapped to this epoch's ids. One
  /// dictionary lookup per token gives both the ids and the embedding;
  /// adds the count of tokens the dictionary lacks (embedded anew)
  /// to `*embedded` when non-null.
  std::vector<QueryColumn> ProfileQuery(const Table& query,
                                        uint64_t* embedded) const;

  /// Lays the per-table column types (by lake table id; `indexed[t]` marks
  /// the tables the index covers, each with the lake's column count) out
  /// flat by the lake column ids of `tokens` and derives the type ids and
  /// the type postings. BuildIndex and LoadPayload both end here, so a
  /// loaded index equals a built one.
  void Install(const DataLake& lake, std::shared_ptr<const LakeTokens> tokens,
               std::vector<std::vector<LabeledTypes>> tables,
               std::vector<uint8_t> indexed);

  /// Lake column ids of table `t`: [FirstColumn(t), FirstColumn(t) +
  /// NumColumns(t)), the numbering of the lake's tokens.
  uint32_t FirstColumn(TableId t) const { return tokens_->FirstColumn(t); }
  size_t NumColumns(TableId t) const { return tokens_->NumColumns(t); }

  /// The semantic measure between query column `q` and lake column `g`.
  double TypeCosineTo(const QueryColumn& q, size_t g) const;
  /// The natural-language measure: CosineSimilarity of the embeddings.
  double NlCosineTo(const QueryColumn& q, size_t g) const;

  /// One pair of tokenized columns as stage 0 sees it: `exact` is
  /// max(u_set, u_sem) with ScoreCandidate's arithmetic, `nl_bound` bounds
  /// u_nl by CosineUpperBound (0 once `exact` is already 1).
  struct PairBound {
    double exact = 0.0;
    double nl_bound = 0.0;
  };
  /// `inter` is |q tokens ∩ g tokens|, the stage-0 hit count.
  PairBound BoundPair(const QueryColumn& q, size_t g, uint32_t inter) const;

  /// The reference table score (kExhaustive): every column pair's
  /// unionability — the strongest of u_set, u_sem and u_nl, 0 for a column
  /// without tokens — then GreedyMatchMean. Returns 0 when nothing pairs or
  /// the intent column stays unmatched.
  double ScoreCandidate(const std::vector<QueryColumn>& qcols,
                        size_t query_column, TableId t) const;

  /// The cascade's exact scorer, bit-identical to ScoreCandidate: each
  /// pair's u_set and u_sem come from BoundPair, and the exact embedding
  /// cosine runs only where u_nl's bound beats them and clears the
  /// threshold. Adds the cosines it runs to `*exact_cosines`.
  double ScoreWithEvidence(const std::vector<QueryColumn>& qcols,
                           size_t query_column, const Evidence& ev, TableId t,
                           MatchScratch* scratch,
                           uint64_t* exact_cosines) const;

  /// Stage-0 table bound from the per-pair hit counts + the candidate's
  /// columns (see ScoreUpperBound and DESIGN.md "Tiered discovery
  /// cascade").
  double CandidateUpperBound(const std::vector<QueryColumn>& qcols,
                             size_t query_column, const Evidence& ev,
                             TableId t) const;

  Params params_;
  ColumnAnnotator annotator_;
  const DataLake* lake_ = nullptr;
  /// The lake's tokens the index was built or loaded on: the column token
  /// sets, their postings (candidate generation and exact stage-0
  /// intersection counts), the column embeddings and norms, and the column
  /// numbering.
  std::shared_ptr<const LakeTokens> tokens_;
  /// Per lake table id: 1 when the index covers the table.
  std::vector<uint8_t> indexed_;
  /// Per lake column id g: its types at [type_begin_[g],
  /// type_begin_[g + 1]) of type_weights_, ascending type id, and their
  /// squared norm.
  std::vector<size_t> type_begin_;
  std::vector<TypeWeight> type_weights_;
  std::vector<double> type_sqnorm_;
  /// Type id -> KB type label, ascending: ids follow label order, so a
  /// merge over type ids visits types in the order a label-keyed map does.
  std::vector<std::string> type_labels_;
  /// Type id -> ids of the tables carrying it (candidate generation).
  std::vector<std::vector<TableId>> type_tables_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_TUS_H_
