#include "discovery/josie.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>

#include "discovery/cascade.h"
#include "snapshot/bytes.h"

namespace dialite {

Status JosieSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  index_.Build(lake, params_.min_distinct, num_threads_, obs_);
  DeriveTableIds();
  ObsAdd(obs_, "discover.josie.build.tables", lake.size());
  ObsSet(obs_, "discover.josie.index.columns", index_.columns().size());
  ObsSet(obs_, "discover.josie.index.tokens", index_.num_tokens());
  return Status::OK();
}

void JosieSearch::DeriveTableIds() {
  const std::vector<ColumnPostings::ColumnRef>& columns = index_.columns();
  col_table_ids_.assign(columns.size(), 0);
  table_names_.clear();
  table_columns_.clear();
  std::unordered_map<std::string, uint32_t> ids;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string& tname = columns[i].first;
    auto [it, inserted] =
        ids.emplace(tname, static_cast<uint32_t>(table_names_.size()));
    if (inserted) table_names_.push_back(tname);
    col_table_ids_[i] = it->second;
    table_columns_[tname].push_back(static_cast<uint32_t>(i));
  }
}

namespace {
constexpr uint32_t kJosiePayloadVersion = 1;
}  // namespace

Status JosieSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kJosiePayloadVersion);
  index_.Save(w);
  return Status::OK();
}

Status JosieSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kJosiePayloadVersion) {
    return Status::ParseError("not a josie v1 index payload");
  }
  DIALITE_RETURN_IF_ERROR(index_.Load(r, lake));
  DeriveTableIds();
  lake_ = &lake;
  return Status::OK();
}

std::vector<DiscoveryHit> JosieSearch::AggregateOverlaps(
    const std::unordered_map<uint32_t, size_t>& overlap,
    const std::string& self_name, size_t k) const {
  // Per-table best column overlap.
  std::unordered_map<std::string, size_t> best;
  for (const auto& [id, n] : overlap) {
    if (n < params_.min_overlap) continue;
    const std::string& table_name = index_.columns()[id].first;
    if (table_name == self_name) continue;
    size_t& cur = best[table_name];
    cur = std::max(cur, n);
  }
  std::vector<DiscoveryHit> hits;
  hits.reserve(best.size());
  for (const auto& [name, n] : best) {
    hits.push_back({name, static_cast<double>(n)});
  }
  return RankHits(std::move(hits), k);
}

double JosieSearch::ScoreTableExact(
    const std::unordered_set<std::string_view>& qset,
    const std::string& table_name) const {
  const Table* cand = lake_->Get(table_name);
  if (cand == nullptr) return 0.0;
  auto tc = table_columns_.find(table_name);
  if (tc == table_columns_.end()) return 0.0;
  std::shared_ptr<const ColumnTokenSets> ctokens =
      lake_->sketch_cache().TokenSets(*cand);
  size_t best = 0;
  for (uint32_t id : tc->second) {
    const std::vector<std::string>& xtoks =
        (*ctokens)[index_.columns()[id].second];
    size_t n = 0;
    for (const std::string& tok : xtoks) {
      if (qset.count(tok) != 0) ++n;
    }
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
  auto tc = table_columns_.find(table_name);
  if (tc == table_columns_.end()) return 0.0;  // not indexed: cannot score
  const Table* cand = lake_->Get(table_name);
  if (cand == nullptr) return 0.0;
  size_t ub = 0;
  for (uint32_t id : tc->second) {
    size_t x = lake_->sketch_cache().DistinctCount(
        *cand, index_.columns()[id].second);
    ub = std::max(ub, std::min(qtokens.size(), x));
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

  if (search_mode_ == SearchMode::kExhaustive) {
    // Merge every posting list, accumulating per-column overlap counts.
    std::unordered_map<uint32_t, size_t> overlap;
    CascadeStats stats;
    std::vector<const std::vector<uint32_t>*> lists;
    for (const std::string& tok : qtokens) {
      const std::vector<uint32_t>* ids = index_.Find(tok);
      if (ids != nullptr) lists.push_back(ids);
    }
    CancelPoller poller(query.cancel);
    for (const auto* ids : lists) {
      if (poller.Cancelled()) {
        return Status::DeadlineExceeded("josie exhaustive scan cancelled");
      }
      for (uint32_t id : *ids) ++overlap[id];
    }
    std::vector<DiscoveryHit> hits =
        AggregateOverlaps(overlap, query.table->name(), query.k);
    stats.candidates_total = overlap.size();
    stats.scored_exact = overlap.size();
    PublishCascadeStats(obs_, name(), stats);
    return hits;
  }

  // Cascade: merge posting lists rarest-first. After j lists, an unseen
  // column's final overlap is at most the number of unread lists, so the
  // merge stops once that remainder drops strictly below the k-th best
  // per-table partial count — no unseen table can then reach the top-k.
  struct ListRef {
    const std::string* token;
    const std::vector<uint32_t>* ids;
  };
  std::vector<ListRef> lists;
  lists.reserve(qtokens.size());
  for (const std::string& tok : qtokens) {
    const std::vector<uint32_t>* ids = index_.Find(tok);
    if (ids == nullptr) continue;
    lists.push_back({&tok, ids});
  }
  std::sort(lists.begin(), lists.end(), [](const ListRef& a, const ListRef& b) {
    if (a.ids->size() != b.ids->size()) return a.ids->size() < b.ids->size();
    return *a.token < *b.token;
  });

  // Dense per-column partial counts and per-table bests: the merge's inner
  // loop touches flat arrays only — no string hashing per posting entry.
  std::vector<size_t> partial(index_.columns().size(), 0);
  std::vector<size_t> table_best(table_names_.size(), 0);
  std::vector<uint32_t> touched;  // dense ids of tables seen so far
  uint32_t self_id = std::numeric_limits<uint32_t>::max();
  if (auto sit = table_columns_.find(query.table->name());
      sit != table_columns_.end() && !sit->second.empty()) {
    self_id = col_table_ids_[sit->second.front()];
  }
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
    for (uint32_t id : *lists[processed].ids) {
      const size_t n = ++partial[id];
      const uint32_t tid = col_table_ids_[id];
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
    bounded.push_back({table_names_[t],
                       ub < params_.min_overlap ? 0.0
                                                : static_cast<double>(ub)});
  }
  std::unordered_set<std::string_view> qset;
  std::unordered_map<std::string_view, size_t> best_by_name;
  ExactScorer scorer;
  if (remaining == 0) {
    // The merge ran to completion, so each table's best partial count IS
    // its exact best column overlap — same integer the exhaustive merge
    // aggregates. No need to re-probe the candidate's token sets.
    best_by_name.reserve(touched.size());
    for (uint32_t t : touched) best_by_name.emplace(table_names_[t],
                                                    table_best[t]);
    scorer = [&](const BoundedCandidate& cand) {
      auto it = best_by_name.find(cand.table_name);
      const size_t n = it == best_by_name.end() ? 0 : it->second;
      return n < params_.min_overlap ? 0.0 : static_cast<double>(n);
    };
  } else {
    // Early termination left some lists unread: partial counts undercount,
    // so survivors are verified against the data.
    qset.insert(qtokens.begin(), qtokens.end());
    scorer = [&](const BoundedCandidate& cand) {
      return ScoreTableExact(qset, cand.table_name);
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

Result<std::vector<std::vector<DiscoveryHit>>> JosieSearch::SearchBatch(
    const std::vector<DiscoveryQuery>& queries) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  std::vector<std::vector<std::string>> qtokens(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const DiscoveryQuery& q = queries[qi];
    if (q.table == nullptr) {
      return Status::InvalidArgument("query table is null");
    }
    if (q.query_column >= q.table->num_columns()) {
      return Status::OutOfRange("query column out of range");
    }
    qtokens[qi] = ColumnTokens(q.table->column(q.query_column));
  }

  // One pass over the batch's distinct token universe: each posting list is
  // located in the inverted index once, then scattered to every query that
  // contains the token.
  std::unordered_map<std::string_view, std::vector<size_t>> token_queries;
  size_t lookups_requested = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    lookups_requested += qtokens[qi].size();
    for (const std::string& tok : qtokens[qi]) {
      token_queries[tok].push_back(qi);
    }
  }
  std::vector<std::unordered_map<uint32_t, size_t>> overlap(queries.size());
  for (const auto& [tok, qids] : token_queries) {
    const std::vector<uint32_t>* ids = index_.Find(std::string(tok));
    if (ids == nullptr) continue;
    for (size_t qi : qids) {
      for (uint32_t id : *ids) ++overlap[qi][id];
    }
  }
  ObsAdd(obs_, "discover.josie.batch.queries", queries.size());
  ObsAdd(obs_, "discover.josie.batch.tokens_requested", lookups_requested);
  ObsAdd(obs_, "discover.josie.batch.lookups_saved",
         lookups_requested - token_queries.size());

  std::vector<std::vector<DiscoveryHit>> results;
  results.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    results.push_back(AggregateOverlaps(overlap[qi], queries[qi].table->name(),
                                        queries[qi].k));
  }
  return results;
}

}  // namespace dialite
