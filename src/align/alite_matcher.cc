#include "align/alite_matcher.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "kb/embedding.h"
#include "lake/data_lake.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace dialite {

AliteMatcher::AliteMatcher(Params params)
    : params_(params), dim_(ColumnEmbedder().dim()) {}

void AliteMatcher::AddColumn(const Table& t, size_t column, size_t first_token,
                             size_t end_token, const float* embedding,
                             TableSignature* out) const {
  ColumnSignature sig;
  const ColumnView col = t.column(column);
  sig.first_token = first_token;
  sig.end_token = end_token;
  sig.embedding = embedding;
  sig.raw_header = t.schema().column(column).name;
  sig.norm_header = NormalizeText(sig.raw_header);
  sig.all_null = first_token == end_token;
  // A column is "numeric" if every distinct value parses as a number.
  // Int/double cells are numeric by construction; only distinct string
  // cells (deduped by dictionary id) need parsing.
  sig.numeric = !sig.all_null;
  std::vector<uint8_t> seen_ids(t.dictionary().size(), 0);
  for (size_t r = 0; r < col.size() && sig.numeric; ++r) {
    if (col.is_null(r) || col.kind(r) != CellKind::kString) continue;
    const uint32_t id = col.string_id(r);
    if (seen_ids[id]) continue;
    seen_ids[id] = 1;
    double d;
    if (!col.AsNumericAt(r, &d)) sig.numeric = false;
  }
  out->columns.push_back(std::move(sig));
}

double AliteMatcher::PairSimilarity(const TableSignature& ta, size_t ca,
                                    const TableSignature& tb, size_t cb,
                                    uint8_t* jaro_flags) const {
  const ColumnSignature& a = ta.columns[ca];
  const ColumnSignature& b = tb.columns[cb];
  if (params_.type_gate && !a.all_null && !b.all_null &&
      a.numeric != b.numeric) {
    return 0.0;
  }
  double s = 0.0;
  if (!a.all_null && !b.all_null) {
    // |A ∩ B| by one merge of the sorted token ranges, then Containment(a,
    // b) and Containment(b, a) with the same divisions: signature tokens
    // are distinct, so each set's size is its range's.
    size_t overlap = 0;
    for (size_t i = a.first_token, j = b.first_token;
         i != a.end_token && j != b.end_token;) {
      const int c = ta.tokens[i].compare(tb.tokens[j]);
      if (c <= 0) ++i;
      if (c >= 0) ++j;
      if (c == 0) ++overlap;
    }
    const double inter = static_cast<double>(overlap);
    double cont = std::max(inter / static_cast<double>(a.num_tokens()),
                           inter / static_cast<double>(b.num_tokens()));
    s += params_.value_weight * cont;
    s += params_.embedding_weight *
         CosineSimilarity(a.embedding, b.embedding, dim_);
  }
  if (!a.norm_header.empty() && !b.norm_header.empty()) {
    if (a.norm_header == b.norm_header) {
      s += params_.header_exact_bonus;
    } else {
      s += params_.header_fuzzy_weight *
           JaroWinklerScratch(a.norm_header, b.norm_header, jaro_flags);
    }
  }
  return s;
}

double AliteMatcher::ColumnSimilarity(const Table& ta, size_t ca,
                                      const Table& tb, size_t cb) const {
  TableSignature sa;
  TableSignature sb;
  (void)SignTable(ta, nullptr, nullptr, &sa, nullptr);
  (void)SignTable(tb, nullptr, nullptr, &sb, nullptr);
  std::vector<uint8_t> jaro_flags(sa.columns[ca].norm_header.size() +
                                  sb.columns[cb].norm_header.size());
  return PairSimilarity(sa, ca, sb, cb, jaro_flags.data());
}

namespace {

// Deadline checks below read the clock once per signature; the matrix and
// merge loops poll through a CancelPoller, which reads it once per stride
// of pair evaluations. A request that expires mid-alignment aborts within
// one signature or one stride.
bool AlignCancelled(const CancelToken* cancel) {
  return cancel != nullptr && cancel->Cancelled();
}

Status AlignDeadline(const char* stage) {
  return Status::DeadlineExceeded(std::string("alite alignment cancelled ") +
                                  stage);
}

}  // namespace

Status AliteMatcher::SignTable(const Table& t, const LakeTokens* lake_tokens,
                               const CancelToken* cancel, TableSignature* out,
                               uint64_t* embedded) const {
  const HashEmbedder& embedder = ColumnEmbedder();
  out->columns.reserve(t.num_columns());
  out->embeddings.reserve(t.num_columns() * dim_);  // rows stay put
  std::vector<size_t> token_ends;  // token i's bytes end at token_ends[i]
  std::vector<uint32_t> ids;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (AlignCancelled(cancel)) return AlignDeadline("building signatures");
    std::vector<std::string> tokens = ColumnTokens(t.column(c));
    // The embedding sums value vectors in first-occurrence order, so sort
    // only after it: PairSimilarity merges the sorted lists.
    Embedding embedding;
    if (lake_tokens != nullptr) {
      embedding = lake_tokens->EmbedColumn(tokens, &ids, embedded);
    } else {
      embedding = embedder.EmbedValueSet(tokens);
      if (embedded != nullptr) *embedded += tokens.size();
    }
    out->embeddings.insert(out->embeddings.end(), embedding.begin(),
                           embedding.end());
    std::sort(tokens.begin(), tokens.end());
    const size_t first_token = token_ends.size();
    for (const std::string& token : tokens) {
      out->token_bytes += token;
      token_ends.push_back(out->token_bytes.size());
    }
    AddColumn(t, c, first_token, token_ends.size(),
              out->embeddings.data() + c * dim_, out);
  }
  // The views last, once token_bytes no longer moves.
  out->tokens.reserve(token_ends.size());
  size_t from = 0;
  for (size_t to : token_ends) {
    out->tokens.emplace_back(out->token_bytes.data() + from, to - from);
    from = to;
  }
  return Status::OK();
}

Status AliteMatcher::BorrowLakeColumns(const Table& t,
                                       const LakeTokens& tokens, TableId id,
                                       const CancelToken* cancel,
                                       TableSignature* out) const {
  const size_t first_column = tokens.FirstColumn(id);
  out->columns.reserve(t.num_columns());
  out->tokens.reserve(tokens.column_offsets()[first_column + t.num_columns()] -
                      tokens.column_offsets()[first_column]);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (AlignCancelled(cancel)) return AlignDeadline("building signatures");
    const size_t col = first_column + c;
    // Ids number the dictionary in byte order, so the sorted ids view the
    // column's tokens sorted as strings.
    const uint32_t* ids = tokens.SortedColumnIds(col);
    const size_t first_token = out->tokens.size();
    for (size_t i = 0; i < tokens.ColumnSize(col); ++i) {
      out->tokens.push_back(tokens.token(ids[i]));
    }
    AddColumn(t, c, first_token, out->tokens.size(),
              tokens.ColumnEmbedding(col), out);
  }
  return Status::OK();
}

Result<Alignment> AliteMatcher::Align(const std::vector<const Table*>& tables,
                                      const CancelToken* cancel) const {
  for (const Table* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table in set");
  }
  ObsSpan align_span(obs_, "align.alite_holistic");
  // Signatures: lake tables' columns borrow the lake's tokens and
  // embeddings, the others' are signed here. Both poll `cancel` per column
  // and the matrix loop polls on its first pair, so an expired request
  // stops before any pair evaluation.
  std::vector<TableSignature> table_sigs(tables.size());
  // Taken only when the set holds a lake table, and held for the call: the
  // views and embeddings borrowed from it stay valid until Align returns.
  std::shared_ptr<const LakeTokens> lake_tokens;
  uint64_t computed = 0;
  uint64_t embedded = 0;
  {
    ObsSpan span(obs_, "align.signatures");
    std::vector<TableId> lake_ids(tables.size(), kNoTable);
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      const Table& t = *tables[ti];
      const TableId id = lake_ == nullptr ? kNoTable : lake_->IdOf(t.name());
      if (id != kNoTable && &lake_->table(id) == &t) {
        lake_ids[ti] = id;
        if (lake_tokens == nullptr) lake_tokens = lake_->tokens();
      }
    }
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      const Table& t = *tables[ti];
      if (lake_ids[ti] != kNoTable) {
        DIALITE_RETURN_IF_ERROR(BorrowLakeColumns(
            t, *lake_tokens, lake_ids[ti], cancel, &table_sigs[ti]));
        continue;
      }
      DIALITE_RETURN_IF_ERROR(SignTable(t, lake_tokens.get(), cancel,
                                        &table_sigs[ti], &embedded));
      computed += t.num_columns();
    }
  }
  // Per-request column arrays: every column of the set, table by table.
  std::vector<size_t> table_of;
  std::vector<size_t> column_of;
  for (size_t ti = 0; ti < tables.size(); ++ti) {
    for (size_t c = 0; c < tables[ti]->num_columns(); ++c) {
      table_of.push_back(ti);
      column_of.push_back(c);
    }
  }
  auto sig = [&](size_t i) -> const ColumnSignature& {
    return table_sigs[table_of[i]].columns[column_of[i]];
  };
  const size_t n = table_of.size();
  ObsAdd(obs_, "align.tables", tables.size());
  ObsAdd(obs_, "align.columns", n);
  ObsAdd(obs_, "align.signatures.computed", computed);
  ObsAdd(obs_, "align.signatures.reused", n - computed);
  ObsAdd(obs_, "align.work.embedded_values", embedded);

  // Pairwise similarity matrix. One Jaro-Winkler scratch, sized for the
  // widest header pair, serves every pair.
  size_t widest_header = 0;
  for (size_t i = 0; i < n; ++i) {
    widest_header = std::max(widest_header, sig(i).norm_header.size());
  }
  std::vector<uint8_t> jaro_flags(2 * widest_header);
  // A pair evaluation or linkage is too short to pay a clock read each.
  CancelPoller poll(cancel);
  uint64_t pair_evals = 0;
  std::vector<std::vector<double>> sim(n, std::vector<double>(n, 0.0));
  {
    ObsSpan span(obs_, "align.similarity_matrix");
    for (size_t i = 0; i < n; ++i) {
      if (poll.Cancelled()) return AlignDeadline("in similarity matrix");
      for (size_t j = i + 1; j < n; ++j) {
        if (poll.Cancelled()) return AlignDeadline("in similarity matrix");
        if (table_of[i] == table_of[j]) continue;  // cannot-link
        sim[i][j] = sim[j][i] =
            PairSimilarity(table_sigs[table_of[i]], column_of[i],
                           table_sigs[table_of[j]], column_of[j],
                           jaro_flags.data());
        ++pair_evals;
      }
    }
  }
  ObsAdd(obs_, "align.pair_evals", pair_evals);
  ObsSpan cluster_span(obs_, "align.cluster");

  // Average-linkage agglomerative clustering with cannot-link constraints.
  std::vector<std::vector<size_t>> clusters;
  clusters.reserve(n);
  for (size_t i = 0; i < n; ++i) clusters.push_back({i});

  auto cluster_tables = [&table_of](const std::vector<size_t>& cl) {
    std::unordered_set<size_t> ts;
    for (size_t i : cl) ts.insert(table_of[i]);
    return ts;
  };
  auto admissible = [&](const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
    std::unordered_set<size_t> ta = cluster_tables(a);
    for (size_t i : b) {
      if (ta.count(table_of[i])) return false;
    }
    return true;
  };
  auto avg_linkage = [&](const std::vector<size_t>& a,
                         const std::vector<size_t>& b) {
    double sum = 0.0;
    for (size_t i : a) {
      for (size_t j : b) sum += sim[i][j];
    }
    return sum / static_cast<double>(a.size() * b.size());
  };

  for (;;) {
    if (poll.Cancelled()) return AlignDeadline("mid-merge");
    double best = params_.threshold;
    size_t bi = Alignment::npos;
    size_t bj = Alignment::npos;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (poll.Cancelled()) return AlignDeadline("mid-merge");
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        if (poll.Cancelled()) return AlignDeadline("mid-merge");
        if (!admissible(clusters[i], clusters[j])) continue;
        double s = avg_linkage(clusters[i], clusters[j]);
        if (s >= best) {
          // Strict ">" would starve exact-threshold merges; ties pick the
          // lexicographically first (i, j) for determinism.
          if (s > best || bi == Alignment::npos) {
            best = s;
            bi = i;
            bj = j;
          }
        }
      }
    }
    if (bi == Alignment::npos) break;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + static_cast<long>(bj));
    ObsAdd(obs_, "align.merges");
  }
  ObsAdd(obs_, "align.clusters", clusters.size());

  // Order clusters by first appearance (table order, then column order) so
  // integrated outputs read like the paper's figures.
  auto first_pos = [&](const std::vector<size_t>& cl) {
    size_t best = static_cast<size_t>(-1);
    for (size_t i : cl) {
      size_t pos = table_of[i] * 10000 + column_of[i];
      best = std::min(best, pos);
    }
    return best;
  };
  std::sort(clusters.begin(), clusters.end(),
            [&](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return first_pos(a) < first_pos(b);
            });

  Alignment out;
  for (const std::vector<size_t>& cl : clusters) {
    std::vector<ColumnRef> members;
    // Majority raw header as the display name (ties by first appearance).
    std::map<std::string, size_t> header_votes;
    std::vector<size_t> sorted = cl;
    std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      if (table_of[a] != table_of[b]) return table_of[a] < table_of[b];
      return column_of[a] < column_of[b];
    });
    for (size_t i : sorted) {
      members.push_back({tables[table_of[i]]->name(), column_of[i]});
      if (!sig(i).raw_header.empty()) ++header_votes[sig(i).raw_header];
    }
    std::string display;
    size_t best_votes = 0;
    for (size_t i : sorted) {
      const std::string& h = sig(i).raw_header;
      if (!h.empty() && header_votes[h] > best_votes) {
        best_votes = header_votes[h];
        display = h;
      }
    }
    out.AddCluster(std::move(members), std::move(display));
  }
  DIALITE_RETURN_IF_ERROR(out.Validate(tables));
  return out;
}

// ------------------------------------------------------------ NameMatcher

Result<Alignment> NameMatcher::Align(const std::vector<const Table*>& tables,
                                     const CancelToken* cancel) const {
  for (const Table* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table in set");
  }
  // Header grouping is linear in the column count; one up-front poll is
  // enough for this baseline.
  if (AlignCancelled(cancel)) return AlignDeadline("before header grouping");
  // Group by normalized header; a second column of the SAME table with an
  // already-seen header starts a fresh cluster (the same-table constraint
  // must hold even for this baseline). Unnamed columns stay singletons.
  struct Cluster {
    std::vector<ColumnRef> members;
    std::unordered_set<std::string> tables_seen;
    std::string display;
  };
  std::vector<Cluster> clusters;  // creation order == first appearance
  std::unordered_map<std::string, std::vector<size_t>> by_header;

  for (const Table* t : tables) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      std::string h = NormalizeText(t->schema().column(c).name);
      size_t target = static_cast<size_t>(-1);
      if (!h.empty()) {
        for (size_t idx : by_header[h]) {
          if (!clusters[idx].tables_seen.count(t->name())) {
            target = idx;
            break;
          }
        }
      }
      if (target == static_cast<size_t>(-1)) {
        target = clusters.size();
        clusters.push_back({{}, {}, t->schema().column(c).name});
        if (!h.empty()) by_header[h].push_back(target);
      }
      clusters[target].members.push_back({t->name(), c});
      clusters[target].tables_seen.insert(t->name());
    }
  }

  Alignment out;
  for (Cluster& cl : clusters) {
    out.AddCluster(std::move(cl.members), std::move(cl.display));
  }
  DIALITE_RETURN_IF_ERROR(out.Validate(tables));
  return out;
}

// ---------------------------------------------------------------- Manual

Result<Alignment> ManualAlignment::Align(
    const std::vector<const Table*>& tables, const CancelToken* cancel) const {
  if (AlignCancelled(cancel)) return AlignDeadline("before manual expansion");
  Alignment out;
  std::unordered_set<std::string> assigned;
  for (const std::vector<ColumnRef>& cl : clusters_) {
    std::string display;
    for (const ColumnRef& m : cl) {
      bool found = false;
      for (const Table* t : tables) {
        if (t->name() == m.table) {
          if (m.column >= t->num_columns()) {
            return Status::OutOfRange("manual cluster references " + m.table +
                                      "." + std::to_string(m.column));
          }
          if (display.empty()) display = t->schema().column(m.column).name;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotFound("manual cluster references unknown table " +
                                m.table);
      }
      assigned.insert(m.table + "\x1f" + std::to_string(m.column));
    }
    out.AddCluster(cl, std::move(display));
  }
  // Singletons for unassigned columns.
  for (const Table* t : tables) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      if (!assigned.count(t->name() + "\x1f" + std::to_string(c))) {
        out.AddCluster({{t->name(), c}}, t->schema().column(c).name);
      }
    }
  }
  DIALITE_RETURN_IF_ERROR(out.Validate(tables));
  return out;
}

}  // namespace dialite
