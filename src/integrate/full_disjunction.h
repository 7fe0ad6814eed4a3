#ifndef DIALITE_INTEGRATE_FULL_DISJUNCTION_H_
#define DIALITE_INTEGRATE_FULL_DISJUNCTION_H_

#include <string>
#include <vector>

#include "integrate/integration.h"

namespace dialite {

/// ALITE's Full Disjunction (Khatiwada et al., VLDB 2023): the associative
/// integration operator that maximally connects partial facts.
///
/// Algorithm (complement/subsume formulation):
///  1. *Outer union*: stack every tuple over the union of integration IDs,
///     padding absent IDs with produced nulls (⊥).
///  2. *Complementation fix-point*: whenever two tuples agree on every ID
///     where both are non-null and share at least one such ID, add their
///     merge (non-null values win). New tuples go back on the worklist, so
///     chains assemble transitively (t1⊕t2 can then absorb t3). Candidate
///     partners are found through a (column, value) inverted index rather
///     than an O(n²) scan; exact duplicates are suppressed by a tuple hash.
///  3. *Subsumption removal*: drop every tuple subsumed by another (the
///     input tuples that got merged, and partial merges), keeping the
///     ⊑-maximal ones.
///
/// The output provenance unions the source tuple labels, reproducing the
/// paper's TIDs sets (f1 = {t1, t7} in Fig. 3). Unlike outer join the
/// result is independent of the order of the input tables.
///
/// One pipeline runs every FD-family operator (this one, its parallel
/// variant, minimum union): it splits the outer union into parts
/// and runs steps 2 (skipped by minimum union) and 3 on each. At one thread
/// the whole union is the single part; with more, the parts are the
/// connected components of the "shares a (column, value) cell" graph —
/// tuples in different components can never complement — run on a thread
/// pool. The relation computed does not depend on the thread count; only
/// the row order does.
class FullDisjunction : public IntegrationOperator {
 public:
  struct Params {
    /// Safety valve: fail with kOutOfRange once the run holds this many
    /// tuples across all its parts (FD output can be exponential in
    /// pathological inputs).
    size_t max_tuples = 2000000;
    /// Worker threads; 0 = hardware concurrency. Any value but 1 splits
    /// the outer union into components.
    size_t num_threads = 1;
  };

  FullDisjunction() : FullDisjunction(Params()) {}
  explicit FullDisjunction(Params params) : params_(params) {}

  std::string name() const override { return "alite_fd"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;

 private:
  Params params_;
};

/// Parallel Full Disjunction (in the spirit of Paganelli et al., BDR 2019):
/// FullDisjunction with its components solved on `num_threads` workers
/// (0 = hardware concurrency).
class ParallelFullDisjunction : public FullDisjunction {
 public:
  explicit ParallelFullDisjunction(size_t num_threads = 0)
      : FullDisjunction(Params{.num_threads = num_threads}) {}

  std::string name() const override { return "parallel_fd"; }
};

/// Minimum union (Galindo-Legaria, SIGMOD 1994 — the paper's reference
/// [6]): outer union followed by subsumption removal, WITHOUT the
/// complementation fix-point. The classic middle ground between plain
/// union and FD — duplicates and dominated partial tuples vanish, but
/// partial facts are never connected (no tuple combines t1 and t7).
class MinimumUnionIntegration : public IntegrationOperator {
 public:
  std::string name() const override { return "minimum_union"; }
  using IntegrationOperator::Integrate;
  Result<Table> Integrate(const std::vector<const Table*>& tables,
                          const Alignment& alignment,
                          const CancelToken* cancel) const override;
};

}  // namespace dialite

#endif  // DIALITE_INTEGRATE_FULL_DISJUNCTION_H_
