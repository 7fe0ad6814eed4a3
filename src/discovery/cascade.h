#ifndef DIALITE_DISCOVERY_CASCADE_H_
#define DIALITE_DISCOVERY_CASCADE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "discovery/discovery.h"
#include "obs/observability.h"

namespace dialite {

/// Tiered top-k discovery cascade (ROADMAP item 3, in the spirit of
/// EcoTable-style cost-based pruning).
///
/// Stage 0: every candidate table arrives with a *provable upper bound* on
/// the algorithm's exact score — computed from cheap per-table sketch-layer
/// aggregates (set cardinalities, per-type max confidences, embedding
/// coordinate maxima), never from the full per-candidate scoring loop.
///
/// Stage 1: candidates are exactly scored in descending bound order while a
/// top-k heap tracks the k best (score, name) pairs seen so far. Scoring
/// stops as soon as the next bound can no longer beat the k-th best —
/// every remaining candidate's exact score is <= its bound, so the result
/// is the *same top-k as exhaustive scoring, by construction* (the
/// equivalence suite in tests/cascade_test.cc proves it per algorithm).

/// One stage-0 candidate: a lake table plus an admissible upper bound on
/// the discovery algorithm's exact score for it (bound >= exact score).
/// `table_name` views a name that outlives the search (the lake's own
/// copy); the scan order and the top-k heap break ties on it. `table` is
/// the lake's dense id, which the exact scorer indexes its arrays by.
struct BoundedCandidate {
  std::string_view table_name;
  double upper_bound = 0.0;
  TableId table = kNoTable;
};

/// Per-search cascade instrumentation, published through the obs layer as
/// discover.<algo>.cascade.* counters (see PublishCascadeStats).
struct CascadeStats {
  /// Stage-0 candidates considered (before any pruning).
  uint64_t candidates_total = 0;
  /// Candidates never exactly scored (bound could not reach the top-k).
  uint64_t pruned_stage0 = 0;
  /// Candidates that went through the exact scorer.
  uint64_t scored_exact = 0;
  /// True when the descending-bound scan stopped before its end.
  bool early_terminated = false;
  /// True when the scan was abandoned because the caller's CancelToken
  /// fired (deadline/cancel). The returned hits are partial — callers must
  /// surface kDeadlineExceeded instead of using them.
  bool cancelled = false;
};

/// Exact scorer callback: the algorithm's full-precision score for one
/// candidate table (the same arithmetic the exhaustive path runs, so
/// cascade and exhaustive scores are bit-identical).
using ExactScorer = std::function<double(const BoundedCandidate&)>;

/// Runs stage 1 of the cascade: exact-scores `candidates` in descending
/// (upper_bound, name) order into a bounded top-k heap, early-terminating
/// once no remaining bound can beat the k-th best hit.
///
/// Returns exactly RankHits(exhaustive_scores, k), provided every
/// candidate's bound is admissible (upper_bound >= score(candidate)) and
/// `candidates` contains every table that can score > 0. Exactness
/// argument, kept in sync with the implementation:
///  - a candidate is skipped without scoring only when even its *bound*
///    loses to the current k-th best under HitBetter; since its exact
///    score <= bound and the k-th best only improves, the skipped
///    candidate loses to k distinct others — it is not in the true top-k;
///  - the scan stops entirely only when the next bound is strictly below
///    the k-th best score; all later candidates have equal-or-smaller
///    bounds, so the same argument applies to each of them.
///
/// `stats` (optional) receives the stage counters for this run.
///
/// `cancel` (optional) is polled before every exact scoring call — the
/// expensive unit of work, so a fired per-request deadline stops the search
/// within one candidate's scoring time. On cancellation the function
/// returns immediately with stats->cancelled set; the partial heap is
/// returned only for diagnostics and must not be served.
std::vector<DiscoveryHit> RunBoundedTopK(std::vector<BoundedCandidate> candidates,
                                         size_t k, const ExactScorer& score,
                                         CascadeStats* stats = nullptr,
                                         const CancelToken* cancel = nullptr);

/// One scored (query column, table column) pairing for GreedyMatchMean.
struct ColumnPair {
  uint32_t q = 0;
  uint32_t c = 0;
  double score = 0.0;
};

/// The greedy one-to-one column matching TUS and Starmie score tables by,
/// shared by both search modes so their scores are bit-identical. Walks
/// `pairs` in the caller's priority order, keeps each pair whose query and
/// table columns are both still free, and returns the kept scores' sum
/// (in walk order) over `num_query_cols`. Returns 0 when nothing pairs or
/// the `intent` query column stays unmatched. `used` is caller scratch,
/// reused across calls.
double GreedyMatchMean(std::span<const ColumnPair> pairs,
                       size_t num_query_cols, size_t num_table_cols,
                       size_t intent, std::vector<uint8_t>* used);

/// Headroom multiplier for RelaxedMatchBound: absorbs fp reassociation
/// between a bound's sum and the exact matching's, and pair scores an ulp
/// past 1 under the matching cap — orders of magnitude above the ~1e-14
/// worst case, far below any pruning threshold.
inline constexpr double kFpMargin = 1.0 + 1e-9;

/// What a RelaxedMatchBound `best_pair` callback returns for a query
/// column none of whose pairs can clear the matching's threshold.
inline constexpr double kNoPair = -std::numeric_limits<double>::infinity();

/// Admissible stage-0 bound on GreedyMatchMean, shared by TUS and Starmie.
/// Relaxes the one-to-one matching to each query column's best pair:
/// `best_pair(q)` bounds the score of query column q's best pair among
/// those that can clear the threshold, or returns kNoPair. The intent
/// column is bounded first; a table whose intent column cannot pair
/// scores 0. Every column adds max(bound, 0), summed in column order; the
/// sum is capped at `max_pairs` matched pairs (each scores at most 1),
/// scaled by kFpMargin and divided by `num_query_cols`.
template <typename BestPair>
double RelaxedMatchBound(size_t num_query_cols, size_t intent,
                         size_t max_pairs, const BestPair& best_pair) {
  const double intent_best = best_pair(intent);
  if (intent_best == kNoPair) return 0.0;
  double sum = 0.0;
  for (size_t q = 0; q < num_query_cols; ++q) {
    sum += std::max(q == intent ? intent_best : best_pair(q), 0.0);
  }
  return std::min(sum, static_cast<double>(max_pairs)) * kFpMargin /
         static_cast<double>(num_query_cols);
}

/// Per-search scratch for a GreedyMatchMean scorer: one copy serves every
/// candidate, so scoring allocates only while the buffers first grow.
struct MatchScratch {
  std::vector<ColumnPair> pairs;
  std::vector<uint8_t> used;
};

/// Publishes one search's cascade counters as
/// discover.<algo>.cascade.{candidates_total,pruned_stage0,scored_exact,
/// early_terminated} (Add semantics: counters accumulate across searches).
/// No-op on a null context.
void PublishCascadeStats(ObservabilityContext* obs, const std::string& algo,
                         const CascadeStats& stats);

}  // namespace dialite

#endif  // DIALITE_DISCOVERY_CASCADE_H_
