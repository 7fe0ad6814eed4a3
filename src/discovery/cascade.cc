#include "discovery/cascade.h"

#include <algorithm>

namespace dialite {

std::vector<DiscoveryHit> RunBoundedTopK(std::vector<BoundedCandidate> candidates,
                                         size_t k, const ExactScorer& score,
                                         CascadeStats* stats,
                                         const CancelToken* cancel) {
  CascadeStats local;
  local.candidates_total = candidates.size();

  // Descending bound order (ties by name, so the scan order — and with it
  // every counter below — is deterministic).
  std::sort(candidates.begin(), candidates.end(),
            [](const BoundedCandidate& a, const BoundedCandidate& b) {
              if (a.upper_bound != b.upper_bound) {
                return a.upper_bound > b.upper_bound;
              }
              return a.table_name < b.table_name;
            });

  // Top-k heap whose root is the *worst* of the k best hits: std::*_heap
  // keeps the comparator's maximum at the root, and under `better` as the
  // less-than that is the hit every other one beats — the one the next
  // candidate must beat.
  std::vector<DiscoveryHit> heap;
  auto better = [](const DiscoveryHit& a, const DiscoveryHit& b) {
    return HitBetter(a, b);
  };

  for (size_t i = 0; i < candidates.size(); ++i) {
    const BoundedCandidate& cand = candidates[i];
    // RankHits never returns non-positive scores; bounds are sorted, so the
    // first non-positive bound prunes the whole tail.
    if (cand.upper_bound <= 0.0) {
      local.pruned_stage0 += candidates.size() - i;
      local.early_terminated = true;
      break;
    }
    if (heap.size() == k && k > 0) {
      const DiscoveryHit& worst = heap.front();
      if (cand.upper_bound < worst.score) {
        // Strictly below the k-th best: this candidate and every later one
        // (bounds only shrink) is out, even on a score tie.
        local.pruned_stage0 += candidates.size() - i;
        local.early_terminated = true;
        break;
      }
      if (!HitBetter(cand.upper_bound, cand.table_name, worst)) {
        // Even at its bound this candidate ties the k-th best score and
        // loses the name tiebreak — skip it, but keep scanning: a later
        // equal-bound candidate with a smaller name could still enter.
        ++local.pruned_stage0;
        continue;
      }
    }
    // Cooperative deadline check at exact-scoring granularity: scoring is
    // the expensive unit (µs–ms per candidate), the poll is a relaxed load
    // plus at most one clock read.
    if (cancel != nullptr && cancel->Cancelled()) {
      local.cancelled = true;
      break;
    }
    double s = score(cand);
    ++local.scored_exact;
    if (s <= 0.0) continue;  // RankHits drops non-positive scores
    if (heap.size() < k) {
      heap.push_back({});
    } else if (k > 0 && HitBetter(s, cand.table_name, heap.front())) {
      // Beats the weakest kept hit; a candidate that loses is never copied.
      std::pop_heap(heap.begin(), heap.end(), better);
    } else {
      continue;
    }
    heap.back().table_name.assign(cand.table_name);
    heap.back().score = s;
    std::push_heap(heap.begin(), heap.end(), better);
  }

  std::sort(heap.begin(), heap.end(), better);
  if (stats != nullptr) *stats = local;
  return heap;
}

double GreedyMatchMean(std::span<const ColumnPair> pairs,
                       size_t num_query_cols, size_t num_table_cols,
                       size_t intent, std::vector<uint8_t>* used) {
  used->assign(num_query_cols + num_table_cols, 0);
  uint8_t* q_used = used->data();
  uint8_t* c_used = q_used + num_query_cols;
  double total = 0.0;
  size_t matched = 0;
  bool intent_matched = false;
  for (const ColumnPair& p : pairs) {
    if (q_used[p.q] || c_used[p.c]) continue;
    q_used[p.q] = 1;
    c_used[p.c] = 1;
    total += p.score;
    ++matched;
    if (p.q == intent) intent_matched = true;
  }
  if (matched == 0 || !intent_matched) return 0.0;
  // Unmatched query columns contribute 0: tables that union the whole
  // query schema outrank partial ones.
  return total / static_cast<double>(num_query_cols);
}

void PublishCascadeStats(ObservabilityContext* obs, const std::string& algo,
                         const CascadeStats& stats) {
  if (obs == nullptr) return;
  const std::string prefix = "discover." + algo + ".cascade.";
  ObsAdd(obs, prefix + "candidates_total", stats.candidates_total);
  ObsAdd(obs, prefix + "pruned_stage0", stats.pruned_stage0);
  ObsAdd(obs, prefix + "scored_exact", stats.scored_exact);
  ObsAdd(obs, prefix + "early_terminated", stats.early_terminated ? 1 : 0);
}

}  // namespace dialite
