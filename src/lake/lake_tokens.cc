#include "lake/lake_tokens.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "kb/embedding.h"
#include "table/column_view.h"

namespace dialite {

namespace {

/// Each table's first lake column id, by table id, then the lake's column
/// count.
std::vector<uint32_t> TableOffsets(const DataLake& lake) {
  std::vector<uint32_t> out(1, 0);
  out.reserve(lake.size() + 1);
  for (TableId t = 0; t < lake.size(); ++t) {
    out.push_back(out.back() +
                  static_cast<uint32_t>(lake.table(t).num_columns()));
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::string>> TableTokens(const Table& table) {
  std::vector<std::vector<std::string>> out(table.num_columns());
  for (size_t c = 0; c < out.size(); ++c) out[c] = ColumnTokens(table.column(c));
  return out;
}

std::shared_ptr<const LakeTokens> LakeTokens::Build(const DataLake& lake,
                                                    size_t num_threads) {
  const size_t n = lake.size();
  std::shared_ptr<LakeTokens> out(new LakeTokens());
  out->table_offsets_ = TableOffsets(lake);
  out->dim_ = ColumnEmbedder().dim();
  // Compute phase: every table's column token sets.
  std::vector<std::vector<std::vector<std::string>>> tables(n);
  ForEachTableIndex(num_threads, n, [&](size_t t) {
    tables[t] = TableTokens(lake.table(static_cast<TableId>(t)));
  });
  // Merge phase, serial in lake order: ids in first-seen order, then
  // renumbered in byte order.
  std::unordered_map<std::string_view, uint32_t> first_seen;
  std::vector<std::string_view> dict;
  out->column_offsets_.push_back(0);
  for (const auto& cols : tables) {
    for (const std::vector<std::string>& toks : cols) {
      for (const std::string& tok : toks) {
        auto [it, added] =
            first_seen.emplace(tok, static_cast<uint32_t>(dict.size()));
        if (added) dict.push_back(tok);
        out->ids_.push_back(it->second);
      }
      out->column_offsets_.push_back(static_cast<uint32_t>(out->ids_.size()));
    }
  }
  std::vector<uint32_t> order(dict.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return dict[a] < dict[b]; });
  // rank[first-seen id] = byte-order id.
  std::vector<uint32_t> rank(dict.size());
  out->token_offsets_.reserve(dict.size() + 1);
  out->token_offsets_.push_back(0);
  for (uint32_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = i;
    out->chars_.append(dict[order[i]]);
    out->token_offsets_.push_back(static_cast<uint32_t>(out->chars_.size()));
  }
  for (uint32_t& id : out->ids_) id = rank[id];
  out->Derive(num_threads);
  return out;
}

Result<std::shared_ptr<const LakeTokens>> LakeTokens::FromParts(
    const DataLake& lake, std::string chars,
    std::vector<uint32_t> token_offsets, std::vector<uint32_t> column_offsets,
    std::vector<uint32_t> ids) {
  // Offsets start at 0, never fall, and end at their array's size.
  auto valid_offsets = [](const std::vector<uint32_t>& offsets, size_t size) {
    if (offsets.empty() || offsets.front() != 0 || offsets.back() != size) {
      return false;
    }
    return std::is_sorted(offsets.begin(), offsets.end());
  };
  if (!valid_offsets(token_offsets, chars.size())) {
    return Status::ParseError("lake token offsets overrun the dictionary");
  }
  if (!valid_offsets(column_offsets, ids.size())) {
    return Status::ParseError("lake column offsets overrun the token ids");
  }
  std::vector<uint32_t> table_offsets = TableOffsets(lake);
  const size_t lake_columns = table_offsets.back();
  if (column_offsets.size() - 1 != lake_columns) {
    return Status::ParseError(
        "lake tokens list " + std::to_string(column_offsets.size() - 1) +
        " columns; the lake has " + std::to_string(lake_columns));
  }
  std::shared_ptr<LakeTokens> out(new LakeTokens());
  out->chars_ = std::move(chars);
  out->token_offsets_ = std::move(token_offsets);
  out->column_offsets_ = std::move(column_offsets);
  out->ids_ = std::move(ids);
  out->dim_ = ColumnEmbedder().dim();
  out->table_offsets_ = std::move(table_offsets);
  for (uint32_t id = 1; id < out->num_tokens(); ++id) {
    if (!(out->token(id - 1) < out->token(id))) {
      return Status::ParseError("lake token dictionary is not ascending");
    }
  }
  // Per token, the last column that held it: a repeat within one column
  // would let an intersection count past the column's size.
  std::vector<uint32_t> last(out->num_tokens(), kNoToken);
  for (uint32_t col = 0; col < out->num_columns(); ++col) {
    const uint32_t* ids_of = out->ColumnIds(col);
    for (size_t i = 0; i < out->ColumnSize(col); ++i) {
      const uint32_t id = ids_of[i];
      if (id >= out->num_tokens()) {
        return Status::ParseError("lake token id past the dictionary");
      }
      if (last[id] == col) {
        return Status::ParseError("lake column repeats a token id");
      }
      last[id] = col;
    }
  }
  out->Derive(1);
  return std::shared_ptr<const LakeTokens>(std::move(out));
}

void LakeTokens::Derive(size_t num_threads) {
  // Each distinct token embedded once, then each column's row summed from
  // those vectors in first-occurrence order: every id has a vector, so
  // EmbedValueSet embeds nothing itself.
  token_vectors_.resize(num_tokens() * dim_);
  ForEachTableIndex(num_threads, num_tokens(), [&](size_t id) {
    const Embedding e =
        ColumnEmbedder().EmbedValue(token(static_cast<uint32_t>(id)));
    std::copy(e.begin(), e.end(),
              token_vectors_.begin() + static_cast<std::ptrdiff_t>(id * dim_));
  });
  embeddings_.resize(num_columns() * dim_);
  norms_.resize(num_columns());
  ForEachTableIndex(num_threads, num_columns(), [&](size_t col) {
    const Embedding e = ColumnEmbedder().EmbedValueSet(
        ColumnSize(col), token_vectors_.data(), ColumnIds(col));
    std::copy(e.begin(), e.end(),
              embeddings_.begin() + static_cast<std::ptrdiff_t>(col * dim_));
    norms_[col] = EmbeddingNorm(ColumnEmbedding(col), dim_);
  });
  column_tables_.clear();
  column_tables_.reserve(num_columns());
  for (TableId t = 0; t < num_tables(); ++t) {
    column_tables_.insert(column_tables_.end(), NumColumns(t), t);
  }
  // Postings by counting sort: columns are visited in id order, so each
  // token's list comes out ascending.
  posting_offsets_.assign(num_tokens() + 1, 0);
  for (uint32_t id : ids_) ++posting_offsets_[id + 1];
  for (size_t i = 1; i < posting_offsets_.size(); ++i) {
    posting_offsets_[i] += posting_offsets_[i - 1];
  }
  postings_.resize(ids_.size());
  std::vector<uint32_t> cursor(posting_offsets_.begin(),
                               posting_offsets_.end() - 1);
  for (uint32_t col = 0; col < num_columns(); ++col) {
    const uint32_t* ids_of = ColumnIds(col);
    for (size_t i = 0; i < ColumnSize(col); ++i) {
      postings_[cursor[ids_of[i]]++] = col;
    }
  }
  // Sorted ids by the reverse walk: tokens in id order, each appended to
  // the columns of its postings.
  sorted_ids_.resize(ids_.size());
  cursor.assign(column_offsets_.begin(), column_offsets_.end() - 1);
  for (uint32_t id = 0; id < num_tokens(); ++id) {
    for (size_t i = 0; i < PostingCount(id); ++i) {
      sorted_ids_[cursor[Postings(id)[i]]++] = id;
    }
  }
}

uint32_t LakeTokens::Find(std::string_view tok) const {
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(num_tokens());
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (token(mid) < tok) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < num_tokens() && token(lo) == tok ? lo : kNoToken;
}

std::vector<uint32_t> LakeTokens::SortedIds(
    const std::vector<std::string>& tokens) const {
  std::vector<uint32_t> out;
  out.reserve(tokens.size());
  for (const std::string& tok : tokens) {
    const uint32_t id = Find(tok);
    if (id != kNoToken) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Embedding LakeTokens::EmbedColumn(const std::vector<std::string>& tokens,
                                  std::vector<uint32_t>* ids,
                                  uint64_t* embedded) const {
  ids->clear();
  for (const std::string& tok : tokens) ids->push_back(Find(tok));
  if (embedded != nullptr) {
    *embedded += static_cast<uint64_t>(
        std::count(ids->begin(), ids->end(), kNoToken));
  }
  return ColumnEmbedder().EmbedValueSet(tokens, token_vectors_.data(),
                                        ids->data());
}

size_t LakeTokens::Overlap(size_t col,
                           const std::vector<uint32_t>& sorted) const {
  const uint32_t* ids_of = ColumnIds(col);
  size_t n = 0;
  for (size_t i = 0; i < ColumnSize(col); ++i) {
    if (std::binary_search(sorted.begin(), sorted.end(), ids_of[i])) ++n;
  }
  return n;
}

std::vector<std::string> LakeTokens::ColumnStrings(size_t col) const {
  std::vector<std::string> out;
  out.reserve(ColumnSize(col));
  const uint32_t* ids_of = ColumnIds(col);
  for (size_t i = 0; i < ColumnSize(col); ++i) {
    out.emplace_back(token(ids_of[i]));
  }
  return out;
}

std::vector<std::vector<std::string>> LakeTokens::TableStrings(
    TableId t) const {
  std::vector<std::vector<std::string>> out(NumColumns(t));
  for (size_t c = 0; c < out.size(); ++c) {
    out[c] = ColumnStrings(FirstColumn(t) + c);
  }
  return out;
}

}  // namespace dialite
