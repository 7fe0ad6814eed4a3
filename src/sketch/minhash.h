#ifndef DIALITE_SKETCH_MINHASH_H_
#define DIALITE_SKETCH_MINHASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"

namespace dialite {

/// A MinHash signature: componentwise minima of k independent 64-bit hash
/// functions over a token set. E[fraction of equal components] equals the
/// Jaccard similarity of the underlying sets.
class MinHash {
 public:
  /// Builds an empty signature (all components 2^64-1) with k components
  /// drawn from the seeded family.
  explicit MinHash(size_t num_perm = 128, uint64_t seed = 1);

  /// Builds directly from a token set.
  static MinHash FromTokens(const std::vector<std::string>& tokens,
                            size_t num_perm = 128, uint64_t seed = 1);

  /// Component i's hash of a token whose base hash is `base` =
  /// HashString(token, seed): one cheap independent remix per component.
  static uint64_t Remix(uint64_t base, uint64_t seed, size_t i) {
    return HashUint64(base, seed + 0x9e3779b9ULL * (i + 1));
  }

  /// Folds one token into the signature.
  void Update(const std::string& token);

  /// Folds one token given by its num_perm() remixes (Remix of its base
  /// hash under seed(), component by component): exactly Update(token).
  /// Sketching many sets over one dictionary remixes each token once.
  void UpdateRemixed(const uint64_t* remixes);

  /// Estimated Jaccard similarity with another signature (must share
  /// num_perm and seed).
  double EstimateJaccard(const MinHash& other) const;

  /// Estimated containment of THIS set in OTHER, given both true set sizes:
  ///   c = j (|A| + |B|) / ((1 + j) |A|),  clamped to [0,1].
  double EstimateContainment(const MinHash& other, size_t this_size,
                             size_t other_size) const;

  size_t num_perm() const { return sig_.size(); }
  uint64_t seed() const { return seed_; }
  const std::vector<uint64_t>& signature() const { return sig_; }

  /// 64-bit hash of components [begin, end) — a band key for LSH banding.
  uint64_t BandHash(size_t begin, size_t end) const;

 private:
  std::vector<uint64_t> sig_;
  uint64_t seed_;
};

}  // namespace dialite

#endif  // DIALITE_SKETCH_MINHASH_H_
