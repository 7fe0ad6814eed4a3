#ifndef DIALITE_LAKE_LAKE_TOKENS_H_
#define DIALITE_LAKE_LAKE_TOKENS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "kb/embedding.h"
#include "lake/data_lake.h"
#include "table/table.h"

namespace dialite {

/// Columns with fewer distinct tokens than this are not indexed for joins
/// by JOSIE, LSH Ensemble and COCOA: a single-value column joins with
/// everything vacuously.
inline constexpr size_t kMinJoinDistinct = 2;

/// "Not in the dictionary" (LakeTokens::Find). Equal to kNoValueRow, so
/// Find's ids serve as EmbedValueSet's rows of the token vectors.
inline constexpr uint32_t kNoToken = kNoValueRow;

/// Every column's ColumnTokens, in order: the token sets of a query table.
std::vector<std::vector<std::string>> TableTokens(const Table& table);

/// One lake's token dictionary, column token sets and embeddings: the
/// substrate that TUS, JOSIE, COCOA and LSH Ensemble search, that keyword,
/// Starmie and LSH Ensemble build from, and whose embeddings TUS, Starmie
/// and ALITE read for lake columns and sum query and body columns from.
///
/// Layout (flat, in the spirit of a doc-id / shingle-set / xref table):
///  - the dictionary: every distinct token of the lake, ids assigned in
///    byte order, so comparing two ids compares their strings;
///  - lake columns, numbered by table id, then by column: table t's
///    columns are [FirstColumn(t), FirstColumn(t) + NumColumns(t));
///  - each column's distinct tokens as ids in one uint32 array with
///    offsets, in ColumnTokens' first-occurrence order (keyword's
///    per-column cap and the embeddings' float sums depend on that order).
///
/// Those arrays are what a snapshot persists. Everything else is derived
/// from them, on build (on the build's workers) and on decode:
///  - each token's value vector, ColumnEmbedder().EmbedValue of its
///    string, as one row-major float matrix of dim() floats per token;
///  - each column's content embedding, ColumnEmbedder().EmbedValueSet of
///    its tokens in that order, summed from the token vectors as one
///    row-major float matrix of dim() floats per column, and each row's
///    EmbeddingNorm;
///  - token -> column postings, ascending, and each column's ids in
///    ascending order.
///
/// Immutable once made; shared by every index built over one lake state
/// (DataLake::tokens). Accessors return a pointer and a size rather than
/// a span: views stay out of this layer's return types.
class LakeTokens {
 public:
  /// Tokenizes every column of `lake`, embeds every distinct token and
  /// sums every column's embedding from those vectors, on `num_threads`
  /// workers (0 = hardware concurrency). The result is identical for every
  /// count.
  static std::shared_ptr<const LakeTokens> Build(const DataLake& lake,
                                                 size_t num_threads);

  /// Assembles decoded arrays for `lake`: `token_offsets` (dictionary size
  /// + 1 entries) delimit the tokens in `chars`, and `column_offsets` (lake
  /// column count + 1 entries) delimit each column's ids in `ids`; the
  /// rest is derived on one thread. Fails with kParseError when the
  /// offsets are not ascending or overrun their arrays, the dictionary is
  /// not strictly ascending, the column count differs from the lake's, an
  /// id is past the dictionary, or a column repeats an id.
  static Result<std::shared_ptr<const LakeTokens>> FromParts(
      const DataLake& lake, std::string chars,
      std::vector<uint32_t> token_offsets,
      std::vector<uint32_t> column_offsets, std::vector<uint32_t> ids);

  // ---------------------------------------------------------- dictionary

  size_t num_tokens() const { return token_offsets_.size() - 1; }
  std::string_view token(uint32_t id) const {
    return std::string_view(chars_.data() + token_offsets_[id],
                            token_offsets_[id + 1] - token_offsets_[id]);
  }
  /// The id of `token` (binary search), or kNoToken.
  uint32_t Find(std::string_view token) const;
  /// The ids of `tokens` found in the dictionary, ascending. Tokens that
  /// are absent are dropped; callers keep tokens.size() as |Q|.
  std::vector<uint32_t> SortedIds(const std::vector<std::string>& tokens) const;

  // -------------------------------------------------------------- columns

  size_t num_tables() const { return table_offsets_.size() - 1; }
  size_t num_columns() const { return column_offsets_.size() - 1; }
  uint32_t FirstColumn(TableId t) const { return table_offsets_[t]; }
  size_t NumColumns(TableId t) const {
    return table_offsets_[t + 1] - table_offsets_[t];
  }
  TableId TableOf(size_t col) const { return column_tables_[col]; }

  /// Column `col`'s distinct token ids, ColumnSize(col) of them, in
  /// first-occurrence order.
  const uint32_t* ColumnIds(size_t col) const {
    return ids_.data() + column_offsets_[col];
  }
  /// The same ids in ascending order: the column's tokens sorted as
  /// strings, since ids number the dictionary in byte order.
  const uint32_t* SortedColumnIds(size_t col) const {
    return sorted_ids_.data() + column_offsets_[col];
  }
  size_t ColumnSize(size_t col) const {
    return column_offsets_[col + 1] - column_offsets_[col];
  }
  /// Whether JOSIE, LSH Ensemble and COCOA index column `col`.
  bool JoinIndexed(size_t col) const {
    return ColumnSize(col) >= kMinJoinDistinct;
  }
  /// |column col ∩ Q| for Q given as ascending ids (SortedIds).
  size_t Overlap(size_t col, const std::vector<uint32_t>& sorted) const;
  /// Column `col`'s tokens as strings, in first-occurrence order: exactly
  /// ColumnTokens of the lake column.
  std::vector<std::string> ColumnStrings(size_t col) const;
  /// ColumnStrings of every column of table `t`.
  std::vector<std::vector<std::string>> TableStrings(TableId t) const;

  // ----------------------------------------------------------- embeddings

  /// Floats per embedding: ColumnEmbedder().dim().
  size_t dim() const { return dim_; }
  /// Column `col`'s content embedding, dim() floats: exactly
  /// ColumnEmbedder().EmbedValueSet(ColumnStrings(col)).
  const float* ColumnEmbedding(size_t col) const {
    return embeddings_.data() + col * dim_;
  }
  /// EmbeddingNorm of ColumnEmbedding(col).
  double ColumnNorm(size_t col) const { return norms_[col]; }
  /// Token `id`'s value vector, dim() floats: exactly
  /// ColumnEmbedder().EmbedValue(token(id)).
  const float* TokenVector(uint32_t id) const {
    return token_vectors_.data() + size_t{id} * dim_;
  }
  /// ColumnEmbedder().EmbedValueSet(tokens), bit for bit, summed from the
  /// token vectors: only the tokens the dictionary lacks are embedded, and
  /// their count is added to `*embedded` (when non-null). `*ids` receives
  /// Find of each token, in order, kNoToken for those.
  Embedding EmbedColumn(const std::vector<std::string>& tokens,
                        std::vector<uint32_t>* ids,
                        uint64_t* embedded) const;

  // ------------------------------------------------------------- postings

  /// The columns containing token `id`, PostingCount(id) of them,
  /// ascending.
  const uint32_t* Postings(uint32_t id) const {
    return postings_.data() + posting_offsets_[id];
  }
  size_t PostingCount(uint32_t id) const {
    return posting_offsets_[id + 1] - posting_offsets_[id];
  }

  // ------------------------------------------------- the persisted arrays

  const std::string& chars() const { return chars_; }
  const std::vector<uint32_t>& token_offsets() const { return token_offsets_; }
  const std::vector<uint32_t>& column_offsets() const {
    return column_offsets_;
  }
  const std::vector<uint32_t>& ids() const { return ids_; }

 private:
  LakeTokens() = default;

  /// Derives everything that is not persisted from the persisted arrays,
  /// on `num_threads` workers: the token vectors from the dictionary, the
  /// column embeddings and norms from those vectors, column_tables_ from
  /// table_offsets_, and the postings and sorted ids from the column sets.
  void Derive(size_t num_threads);

  std::string chars_;
  std::vector<uint32_t> token_offsets_;
  std::vector<uint32_t> column_offsets_;
  std::vector<uint32_t> ids_;
  size_t dim_ = 0;
  /// Derived: from the lake's widths, and by Derive().
  std::vector<uint32_t> table_offsets_;
  std::vector<TableId> column_tables_;
  std::vector<float> token_vectors_;
  std::vector<float> embeddings_;
  std::vector<double> norms_;
  std::vector<uint32_t> sorted_ids_;
  std::vector<uint32_t> posting_offsets_;
  std::vector<uint32_t> postings_;
};

}  // namespace dialite

#endif  // DIALITE_LAKE_LAKE_TOKENS_H_
