#ifndef DIALITE_DISCOVERY_SANTOS_H_
#define DIALITE_DISCOVERY_SANTOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/discovery.h"
#include "kb/annotator.h"
#include "kb/knowledge_base.h"

namespace dialite {

/// Semantic table-union search in the spirit of SANTOS (Khatiwada et al.,
/// SIGMOD 2023): a candidate is unionable with the query if its columns
/// carry the same knowledge-base *semantics* — column types and
/// relationship labels between column pairs — not merely overlapping
/// values or headers.
///
/// Offline (BuildIndex): every lake column is annotated with KB types and
/// every column pair with KB relationship labels; an inverted index maps
/// each type to the tables exhibiting it.
///
/// Online (Search): the query's intent column (DiscoveryQuery::query_column)
/// anchors matching. Candidates come from the inverted index on the intent
/// column's types; each is scored
///
///   score = intent_type_match · (1 + w_rel · relationship_overlap
///                                  + w_col · other_column_type_overlap)
///
/// so a table can only match if its semantics connect to the intent column,
/// and relationship evidence (e.g. City —locatedIn→ Country in both tables)
/// dominates incidental type co-occurrence. Headers are never consulted.
class SantosSearch : public DiscoveryAlgorithm, public PersistentIndex {
 public:
  struct Params {
    double relationship_weight = 1.0;
    double column_weight = 0.25;
    size_t max_types_per_column = 3;
    /// Columns with KB coverage below this are left unannotated.
    double min_coverage = 0.3;
  };

  /// `kb` must outlive the search object; defaults to the built-in KB.
  SantosSearch() : SantosSearch(Params(), &KnowledgeBase::BuiltIn()) {}
  explicit SantosSearch(const KnowledgeBase* kb) : SantosSearch(Params(), kb) {}
  SantosSearch(Params params, const KnowledgeBase* kb);

  std::string name() const override { return "santos"; }
  Status BuildIndex(const DataLake& lake) override;

  /// Offline-index persistence: the payload carries the per-table semantic
  /// annotations (in sorted table order); the inverted type index and the
  /// bound profiles are rebuilt on load, so Search() needs no KB
  /// re-annotation pass over the lake. A table listed twice fails with
  /// kParseError.
  Status SavePayload(BinaryWriter* w) const override;
  Status LoadPayload(BinaryReader* r, const DataLake& lake) override;
  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery& query) const override;

  /// Admissible stage-0 bound from the per-table bound profile:
  ///   ub_intent · (1 + w_rel · ub_rel + w_col · ub_col)
  /// where ub_intent/ub_col replace each per-column type confidence with the
  /// table-wide maximum for that type, and ub_rel replaces each relation
  /// confidence with the table-wide maximum. Annotates the query table per
  /// call — Search()'s cascade path shares one annotation across all
  /// candidates instead.
  Result<double> ScoreUpperBound(const DiscoveryQuery& query,
                                 const std::string& table_name) const override;

 private:
  /// Per-column type labels with confidences; per-table relation labels.
  struct ColumnSemantics {
    std::map<std::string, double> types;
  };
  struct TableSemantics {
    std::vector<ColumnSemantics> columns;
    /// relation label -> best confidence over any column pair.
    std::map<std::string, double> relations;
    /// relation label -> confidence, restricted to pairs anchored at a
    /// given column; keyed per column index.
    std::vector<std::map<std::string, double>> anchored_relations;
  };

  /// Cheap per-table aggregates the cascade's stage-0 bound is computed
  /// from, derived once from TableSemantics at BuildIndex/LoadPayload time.
  struct BoundProfile {
    /// type label -> max confidence over the table's columns.
    std::map<std::string, double> type_max_conf;
    /// max relation confidence over all labels (0 when the table has none).
    double max_rel_conf = 0.0;
  };

  /// Annotates one table from its columns' distinct raw values
  /// (ColumnDistinctCsv).
  TableSemantics Annotate(const Table& table) const;

  static BoundProfile MakeBoundProfile(const TableSemantics& sem);

  /// Installs per-table semantics (by lake table id; `indexed[t]` marks the
  /// tables the index covers) and derives the type postings and bound
  /// profiles. BuildIndex and LoadPayload both end here.
  void Install(const DataLake& lake, std::vector<TableSemantics> sems,
               std::vector<uint8_t> indexed);

  /// The exact per-candidate score — the single scoring loop both the
  /// exhaustive and cascade paths run, so their scores are bit-identical.
  /// Returns 0 when the intent column finds no semantic match.
  double ScoreCandidate(const TableSemantics& qsem, size_t query_column,
                        const TableSemantics& csem) const;

  /// Stage-0 bound against one table's profile; term-by-term >= the exact
  /// score ScoreCandidate computes (each sum iterates the same ordered type
  /// sets with per-term-larger operands, so the inequality survives fp
  /// rounding — see DESIGN.md "Tiered discovery cascade").
  double CandidateUpperBound(const TableSemantics& qsem, size_t query_column,
                             const BoundProfile& prof) const;

  Params params_;
  const KnowledgeBase* kb_;
  ColumnAnnotator annotator_;
  const DataLake* lake_ = nullptr;
  /// Per lake table id: 1 when the index covers the table.
  std::vector<uint8_t> indexed_;
  /// Per lake table id: its semantics and its stage-0 bound profile.
  std::vector<TableSemantics> semantics_;
  std::vector<BoundProfile> bounds_;
  /// type label -> ids of the tables exhibiting it in some column.
  std::unordered_map<std::string, std::vector<TableId>> type_index_;
};

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_SANTOS_H_
