#include "align/alite_matcher.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace dialite {

AliteMatcher::AliteMatcher(Params params, const KnowledgeBase* kb)
    : params_(params), embedder_(kb) {}

AliteMatcher::ColumnSignature AliteMatcher::MakeSignature(
    const std::vector<const Table*>& tables, size_t table_idx,
    size_t column) const {
  const Table& t = *tables[table_idx];
  ColumnSignature sig;
  sig.table_idx = table_idx;
  sig.column = column;
  const ColumnView col = t.column(column);
  sig.tokens = ColumnTokens(col);
  // The embedding sums value vectors in first-occurrence order, so sort
  // only after it: PairSimilarity merges the sorted lists.
  sig.embedding = embedder_.EmbedValueSet(sig.tokens);
  std::sort(sig.tokens.begin(), sig.tokens.end());
  sig.raw_header = t.schema().column(column).name;
  sig.norm_header = NormalizeText(sig.raw_header);
  sig.all_null = sig.tokens.empty();
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
  return sig;
}

namespace {

/// |A ∩ B| of two sorted, duplicate-free token lists, by one merge.
size_t SortedOverlap(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  size_t n = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    const int c = ia->compare(*ib);
    if (c < 0) {
      ++ia;
    } else if (c > 0) {
      ++ib;
    } else {
      ++n;
      ++ia;
      ++ib;
    }
  }
  return n;
}

}  // namespace

double AliteMatcher::PairSimilarity(const ColumnSignature& a,
                                    const ColumnSignature& b,
                                    uint8_t* jaro_flags) const {
  if (params_.type_gate && !a.all_null && !b.all_null &&
      a.numeric != b.numeric) {
    return 0.0;
  }
  double s = 0.0;
  if (!a.all_null && !b.all_null) {
    // Containment(a, b) and Containment(b, a), with the same divisions:
    // signature tokens are distinct, so each set's size is its list's.
    const double inter = static_cast<double>(SortedOverlap(a.tokens, b.tokens));
    double cont = std::max(inter / static_cast<double>(a.tokens.size()),
                           inter / static_cast<double>(b.tokens.size()));
    s += params_.value_weight * cont;
    s += params_.embedding_weight * CosineSimilarity(a.embedding, b.embedding);
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
  std::vector<const Table*> tables = {&ta, &tb};
  const ColumnSignature a = MakeSignature(tables, 0, ca);
  const ColumnSignature b = MakeSignature(tables, 1, cb);
  std::vector<uint8_t> jaro_flags(a.norm_header.size() +
                                  b.norm_header.size());
  return PairSimilarity(a, b, jaro_flags.data());
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

Result<Alignment> AliteMatcher::Align(const std::vector<const Table*>& tables,
                                      const CancelToken* cancel) const {
  for (const Table* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table in set");
  }
  if (AlignCancelled(cancel)) return AlignDeadline("before signatures");
  ObsSpan align_span(obs_, "align.alite_holistic");
  // Collect all columns.
  std::vector<ColumnSignature> cols;
  {
    ObsSpan span(obs_, "align.signatures");
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      for (size_t c = 0; c < tables[ti]->num_columns(); ++c) {
        if (AlignCancelled(cancel)) return AlignDeadline("building signatures");
        cols.push_back(MakeSignature(tables, ti, c));
      }
    }
  }
  const size_t n = cols.size();
  ObsAdd(obs_, "align.tables", tables.size());
  ObsAdd(obs_, "align.columns", n);

  // Pairwise similarity matrix. One Jaro-Winkler scratch, sized for the
  // widest header pair, serves every pair.
  size_t widest_header = 0;
  for (const ColumnSignature& c : cols) {
    widest_header = std::max(widest_header, c.norm_header.size());
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
        if (cols[i].table_idx == cols[j].table_idx) continue;  // cannot-link
        sim[i][j] = sim[j][i] =
            PairSimilarity(cols[i], cols[j], jaro_flags.data());
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

  auto cluster_tables = [&cols](const std::vector<size_t>& cl) {
    std::unordered_set<size_t> ts;
    for (size_t i : cl) ts.insert(cols[i].table_idx);
    return ts;
  };
  auto admissible = [&](const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
    std::unordered_set<size_t> ta = cluster_tables(a);
    for (size_t i : b) {
      if (ta.count(cols[i].table_idx)) return false;
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
  auto first_pos = [&cols](const std::vector<size_t>& cl) {
    size_t best = static_cast<size_t>(-1);
    for (size_t i : cl) {
      size_t pos = cols[i].table_idx * 10000 + cols[i].column;
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
      if (cols[a].table_idx != cols[b].table_idx) {
        return cols[a].table_idx < cols[b].table_idx;
      }
      return cols[a].column < cols[b].column;
    });
    for (size_t i : sorted) {
      members.push_back(
          {tables[cols[i].table_idx]->name(), cols[i].column});
      if (!cols[i].raw_header.empty()) ++header_votes[cols[i].raw_header];
    }
    std::string display;
    size_t best_votes = 0;
    for (size_t i : sorted) {
      const std::string& h = cols[i].raw_header;
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
