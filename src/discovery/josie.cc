#include "discovery/josie.h"

#include <algorithm>
#include <functional>

#include "discovery/cascade.h"

namespace dialite {

Status JosieSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  tokens_ = lake.tokens(num_threads_);
  const LakeTokens& tokens = *tokens_;
  indexed_postings_.assign(tokens.num_tokens(), 0);
  size_t listed = 0;
  for (uint32_t id = 0; id < tokens.num_tokens(); ++id) {
    const uint32_t* cols = tokens.Postings(id);
    for (size_t i = 0; i < tokens.PostingCount(id); ++i) {
      if (tokens.JoinIndexed(cols[i])) ++indexed_postings_[id];
    }
    if (indexed_postings_[id] > 0) ++listed;
  }
  size_t columns = 0;
  for (uint32_t col = 0; col < tokens.num_columns(); ++col) {
    if (tokens.JoinIndexed(col)) ++columns;
  }
  ObsAdd(obs_, "discover.josie.build.tables", lake.size());
  ObsSet(obs_, "discover.josie.index.columns", columns);
  ObsSet(obs_, "discover.josie.index.tokens", listed);
  return Status::OK();
}

double JosieSearch::ScoreTableExact(const std::vector<uint32_t>& qids,
                                    TableId t) const {
  size_t best = 0;
  const uint32_t first = tokens_->FirstColumn(t);
  for (uint32_t col = first; col < first + tokens_->NumColumns(t); ++col) {
    if (!tokens_->JoinIndexed(col)) continue;
    const size_t n = tokens_->Overlap(col, qids);
    if (n < params_.min_overlap) continue;
    best = std::max(best, n);
  }
  return static_cast<double>(best);
}

Result<double> JosieSearch::ScoreUpperBound(
    const DiscoveryQuery& query, const std::string& table_name) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  std::vector<std::string> qtokens =
      ColumnTokens(query.table->column(query.query_column));
  if (qtokens.empty()) return 0.0;
  const TableId t = lake_->IdOf(table_name);
  // Not indexed (kNoTable included): cannot score.
  if (t >= tokens_->num_tables()) return 0.0;
  size_t ub = 0;
  const uint32_t first = tokens_->FirstColumn(t);
  for (uint32_t col = first; col < first + tokens_->NumColumns(t); ++col) {
    if (!tokens_->JoinIndexed(col)) continue;
    ub = std::max(ub, std::min(qtokens.size(), tokens_->ColumnSize(col)));
  }
  if (ub < params_.min_overlap) return 0.0;
  return static_cast<double>(ub);
}

Result<std::vector<DiscoveryHit>> JosieSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  std::vector<std::string> qtokens =
      ColumnTokens(query.table->column(query.query_column));
  if (qtokens.empty()) return std::vector<DiscoveryHit>{};

  const LakeTokens& tokens = *tokens_;
  // The query's posting lists: its tokens that some indexed column holds.
  std::vector<uint32_t> lists;
  lists.reserve(qtokens.size());
  for (const std::string& tok : qtokens) {
    const uint32_t id = tokens.Find(tok);
    if (id != kNoToken && indexed_postings_[id] > 0) lists.push_back(id);
  }
  const TableId self_id = lake_->IdOf(query.table->name());

  if (search_mode_ == SearchMode::kExhaustive) {
    // Merge every posting list, accumulating per-column overlap counts.
    std::vector<uint32_t> overlap(tokens.num_columns(), 0);
    CancelPoller poller(query.cancel);
    for (uint32_t id : lists) {
      if (poller.Cancelled()) {
        return Status::DeadlineExceeded("josie exhaustive scan cancelled");
      }
      const uint32_t* cols = tokens.Postings(id);
      for (size_t i = 0; i < tokens.PostingCount(id); ++i) {
        if (tokens.JoinIndexed(cols[i])) ++overlap[cols[i]];
      }
    }
    // Per-table best column overlap; a table enters `touched` with its
    // first counted column.
    size_t counted = 0;
    std::vector<size_t> best(lake_->size(), 0);
    std::vector<TableId> touched;
    for (uint32_t col = 0; col < overlap.size(); ++col) {
      const size_t n = overlap[col];
      if (n == 0) continue;
      ++counted;
      if (n < params_.min_overlap) continue;
      const TableId t = tokens.TableOf(col);
      if (t == self_id) continue;
      if (best[t] == 0) touched.push_back(t);
      best[t] = std::max(best[t], n);
    }
    std::vector<DiscoveryHit> hits;
    hits.reserve(touched.size());
    for (TableId t : touched) {
      hits.push_back({lake_->table_names()[t], static_cast<double>(best[t])});
    }
    CascadeStats stats;
    stats.candidates_total = counted;
    stats.scored_exact = counted;
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: merge posting lists rarest-first, ties by token (ids follow
  // token order). After j lists, an unseen column's final overlap is at
  // most the number of unread lists, so the merge stops once that
  // remainder drops strictly below the k-th best per-table partial count —
  // no unseen table can then reach the top-k.
  std::sort(lists.begin(), lists.end(), [&](uint32_t a, uint32_t b) {
    if (indexed_postings_[a] != indexed_postings_[b]) {
      return indexed_postings_[a] < indexed_postings_[b];
    }
    return a < b;
  });

  // Dense per-column partial counts and per-table bests: the merge's inner
  // loop touches flat arrays only — no string hashing per posting entry.
  std::vector<size_t> partial(tokens.num_columns(), 0);
  std::vector<size_t> table_best(lake_->size(), 0);
  std::vector<TableId> touched;  // ids of tables seen so far
  size_t processed = 0;
  size_t next_check = 0;
  for (; processed < lists.size(); ++processed) {
    const size_t unread = lists.size() - processed;
    if (query.k > 0 && touched.size() >= query.k && processed >= next_check) {
      std::vector<size_t> bests;
      bests.reserve(touched.size());
      for (uint32_t t : touched) bests.push_back(table_best[t]);
      std::nth_element(bests.begin(), bests.begin() + (query.k - 1),
                       bests.end(), std::greater<size_t>());
      const size_t kth = bests[query.k - 1];
      if (unread < kth) break;
      // The k-th best only grows while unread falls by one per list, so
      // the stop condition cannot hold before unread reaches kth - 1 —
      // skip the scan until then instead of re-ranking per list.
      next_check = processed + (unread - kth) + 1;
    }
    const uint32_t id = lists[processed];
    const uint32_t* cols = tokens.Postings(id);
    for (size_t i = 0; i < tokens.PostingCount(id); ++i) {
      if (!tokens.JoinIndexed(cols[i])) continue;
      const size_t n = ++partial[cols[i]];
      const TableId tid = tokens.TableOf(cols[i]);
      if (tid == self_id) continue;
      if (table_best[tid] == 0) touched.push_back(tid);
      table_best[tid] = std::max(table_best[tid], n);
    }
  }
  const size_t remaining = lists.size() - processed;
  ObsAdd(obs_, "discover.josie.cascade.lists_total", lists.size());
  ObsAdd(obs_, "discover.josie.cascade.lists_skipped", remaining);

  // Stage-0 bounds: best partial + unread lists, admissible for every
  // column of a seen table (unseen columns are capped by `remaining` and
  // any seen column has partial >= 1).
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(touched.size());
  for (uint32_t t : touched) {
    const size_t ub = table_best[t] + remaining;
    bounded.push_back({lake_->table_names()[t],
                       ub < params_.min_overlap ? 0.0
                                                : static_cast<double>(ub),
                       t});
  }
  std::vector<uint32_t> qids;
  ExactScorer scorer;
  if (remaining == 0) {
    // The merge ran to completion, so each table's best partial count IS
    // its exact best column overlap — same integer the exhaustive merge
    // aggregates. No need to re-probe the candidate's token sets.
    scorer = [&](const BoundedCandidate& cand) {
      const size_t n = table_best[cand.table];
      return n < params_.min_overlap ? 0.0 : static_cast<double>(n);
    };
  } else {
    // Early termination left some lists unread: partial counts undercount,
    // so survivors are verified against the data. A query token no indexed
    // column holds cannot count, so the listed ids are the whole probe.
    qids.assign(lists.begin(), lists.end());
    std::sort(qids.begin(), qids.end());
    scorer = [&](const BoundedCandidate& cand) {
      return ScoreTableExact(qids, cand.table);
    };
  }
  CascadeStats stats;
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("josie search cancelled mid-cascade");
  }
  return top;
}

}  // namespace dialite
