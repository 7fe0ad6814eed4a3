#ifndef DIALITE_DISCOVERY_TUS_H_
#define DIALITE_DISCOVERY_TUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
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
///   - set unionability  — value-set overlap coefficient;
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

  TusSearch() : TusSearch(Params(), &KnowledgeBase::BuiltIn()) {}
  explicit TusSearch(const KnowledgeBase* kb) : TusSearch(Params(), kb) {}
  TusSearch(Params params, const KnowledgeBase* kb);

  std::string name() const override { return "tus"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Offline-index persistence: the payload carries the per-table column
  /// profiles (tokens, KB types, embeddings) in sorted table order; the
  /// token and type inverted indexes are rebuilt on load, so Search()
  /// needs no profiling pass over the lake.
  Status SavePayload(BinaryWriter* w) const override;
  Status LoadPayload(BinaryReader* r, const DataLake& lake) override;

  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound on the TUS table score: an index-accelerated
  /// rescoring of every column pair that never materializes token sets.
  /// The per-column token postings walked during candidate generation
  /// yield the EXACT intersection |A ∩ B| per (query column, table column)
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

  /// The ensemble unionability of two prepared columns (for tests).
  struct ColumnProfile {
    std::vector<std::string> tokens;
    std::map<std::string, double> types;
    Embedding embedding;
    /// EmbeddingNorm(embedding), for CosineUpperBound. Derived when the
    /// profile is built or loaded; not persisted.
    double norm = 0.0;
  };
  ColumnProfile ProfileColumn(const Table& table, size_t column) const;
  double Unionability(const ColumnProfile& a, const ColumnProfile& b) const;

 private:
  /// Per-candidate stage-0 evidence gathered during candidate generation:
  /// hits[q * ncols + c] counts how many of query column q's (distinct)
  /// tokens candidate column c contains. Because the per-column postings
  /// are deduplicated, this IS the exact intersection |A_q ∩ B_c|.
  struct CandidateEvidence {
    std::vector<uint32_t> hits;
    size_t ncols = 0;
  };

  /// Profile built from precomputed token / distinct value sets (the lake
  /// sketch-cache path; ProfileColumn derives both and delegates here).
  ColumnProfile ProfileFromSets(
      const std::vector<std::string>& tokens,
      const std::vector<std::string>& distinct_values) const;

  /// One pair of tokenized columns as stage 0 sees it: `exact` is
  /// max(u_set, u_sem) with Unionability's arithmetic, `nl_bound` bounds
  /// u_nl by CosineUpperBound (0 once `exact` is already 1).
  struct PairBound {
    double exact = 0.0;
    double nl_bound = 0.0;
  };
  /// `inter` is |a.tokens ∩ b.tokens|, the stage-0 hit count.
  PairBound BoundPair(const ColumnProfile& a, const ColumnProfile& b,
                      uint32_t inter) const;

  /// The reference table score (kExhaustive): Unionability for every
  /// column pair, then GreedyMatchMean. Returns 0 when nothing pairs or
  /// the intent column stays unmatched.
  double ScoreCandidate(const std::vector<ColumnProfile>& qcols,
                        size_t query_column,
                        const std::vector<ColumnProfile>& ccols) const;

  /// The cascade's exact scorer, bit-identical to ScoreCandidate: each
  /// pair's u_set and u_sem come from BoundPair, and the exact embedding
  /// cosine runs only where u_nl's bound beats them and clears the
  /// threshold. Adds the cosines it runs to `*exact_cosines`.
  double ScoreWithEvidence(const std::vector<ColumnProfile>& qcols,
                           size_t query_column, const CandidateEvidence& ev,
                           const std::vector<ColumnProfile>& ccols,
                           MatchScratch* scratch,
                           uint64_t* exact_cosines) const;

  /// Stage-0 table bound from the per-pair hit counts + the candidate's
  /// column profiles (see ScoreUpperBound and DESIGN.md "Tiered discovery
  /// cascade").
  double CandidateUpperBound(const std::vector<ColumnProfile>& qcols,
                             size_t query_column, const CandidateEvidence& ev,
                             const std::vector<ColumnProfile>& ccols) const;

  Params params_;
  const KnowledgeBase* kb_;
  ColumnAnnotator annotator_;
  HashEmbedder embedder_;
  const DataLake* lake_ = nullptr;
  std::unordered_map<std::string, std::vector<ColumnProfile>> profiles_;
  /// token -> (table name, column) postings, deduplicated per column
  /// (candidate generation + exact stage-0 intersection counts).
  std::unordered_map<std::string,
                     std::vector<std::pair<std::string, uint32_t>>>
      token_index_;
  /// KB type -> table names (candidate generation).
  std::unordered_map<std::string, std::vector<std::string>> type_index_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_TUS_H_
