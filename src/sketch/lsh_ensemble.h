#ifndef DIALITE_SKETCH_LSH_ENSEMBLE_H_
#define DIALITE_SKETCH_LSH_ENSEMBLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sketch/lsh_index.h"
#include "sketch/minhash.h"

namespace dialite {

/// LSH Ensemble (Zhu et al., VLDB 2016): internet-scale *containment* search.
///
/// Joinability search asks for indexed sets X with containment
/// |Q ∩ X| / |Q| >= t. Jaccard-based LSH alone handles this badly because
/// the containment→Jaccard conversion depends on |X|. The ensemble fixes
/// this by partitioning indexed sets by cardinality (equi-depth); within a
/// partition the upper size bound u makes the conversion
///     j(t) = t·|Q| / (|Q| + u − t·|Q|)
/// tight, and each partition tunes its own banding (b, r) to the converted
/// threshold at query time.
///
/// Usage: Add() every domain, Build(), then Query().
class LshEnsemble {
 public:
  struct Params {
    size_t num_perm = 128;     ///< MinHash signature length.
    size_t num_partitions = 8; ///< Equi-depth size partitions.
    uint64_t seed = 7;
  };

  LshEnsemble() : LshEnsemble(Params()) {}
  explicit LshEnsemble(Params params);

  /// Registers a domain (a column's distinct-token set) under `id`.
  /// All Add() calls must precede Build().
  Status Add(uint64_t id, const std::vector<std::string>& tokens);

  /// Registers a domain from a precomputed MinHash signature plus the true
  /// distinct-set size. The signature must have been built with this
  /// ensemble's (num_perm, seed) over the domain's distinct token set —
  /// then the result is identical to Add(id, tokens). Lets callers sketch
  /// domains in parallel (MinHash minima are order-insensitive) and from
  /// per-token remixes (MinHash::UpdateRemixed).
  Status AddSketch(uint64_t id, size_t set_size, MinHash mh);

  /// Partitions by size and builds per-partition band tables.
  Status Build();

  /// Ids of indexed domains whose estimated containment of `query_tokens`
  /// meets `containment_threshold` (in [0,1]). Candidates are post-filtered
  /// by MinHash containment estimate to trim band-collision noise; exact
  /// verification is the caller's job (the discovery layer has the data).
  std::vector<uint64_t> Query(const std::vector<std::string>& query_tokens,
                              double containment_threshold) const;

  /// Same, from a precomputed query signature plus the true distinct-set
  /// size. The signature must have been built with this ensemble's
  /// (num_perm, seed) over the query's distinct token set — then the
  /// result is identical to the token overload. Lets a query over an
  /// indexed domain reuse that domain's sketch() instead of re-sketching.
  std::vector<uint64_t> Query(const MinHash& qmh, size_t qsize,
                              double containment_threshold) const;

  size_t size() const { return entries_.size(); }
  [[nodiscard]] bool built() const { return built_; }

  /// The i-th registered domain, in Add()/AddSketch() order: its true
  /// distinct-set size and its MinHash sketch. The ensemble is the one
  /// owner of the sketches, so callers reuse them as query signatures
  /// instead of keeping a copy.
  size_t set_size(size_t i) const { return entries_[i].set_size; }
  const MinHash& sketch(size_t i) const { return entries_[i].mh; }

  /// Exposed for testing: the Jaccard threshold a containment threshold
  /// translates to inside a partition with upper size bound u.
  static double ContainmentToJaccard(double containment, size_t query_size,
                                     size_t upper_bound);

 private:
  struct Entry {
    uint64_t id;
    size_t set_size;
    MinHash mh;
  };
  /// A partition's band tables for one candidate r (bands = num_perm / r),
  /// flat: every member hashes to one key per band, so band b is the
  /// `members` (key, entry index) pairs at [b * members, (b + 1) * members)
  /// of keys / entries, sorted by key (then entry), and probed by binary
  /// search.
  struct BandTables {
    size_t r = 0;
    std::vector<uint64_t> keys;
    std::vector<uint32_t> entries;
  };
  struct Partition {
    size_t lower = 0;  ///< min set size in partition
    size_t upper = 0;  ///< max set size in partition
    size_t members = 0;
    /// One per candidate r no larger than num_perm, in CandidateRows()
    /// order.
    std::vector<BandTables> tables;
  };

  static const std::vector<size_t>& CandidateRows();

  Params params_;
  std::vector<Entry> entries_;
  std::vector<Partition> partitions_;
  bool built_ = false;
};

}  // namespace dialite

#endif  // DIALITE_SKETCH_LSH_ENSEMBLE_H_
