#ifndef DIALITE_SKETCH_SIMHASH_H_
#define DIALITE_SKETCH_SIMHASH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace dialite {

/// Random-hyperplane (SimHash) signatures for dense vectors: bit i is the
/// sign of the dot product with pseudo-random hyperplane i. The expected
/// fraction of differing bits equals θ/π for angle θ, so Hamming distance
/// estimates cosine similarity. Used to prune candidate columns in
/// embedding-based (Starmie-style) discovery.
class SimHash {
 public:
  /// `bits` signature length (multiples of 64 are natural); `dim` is the
  /// input vector dimensionality; `seed` fixes the hyperplanes.
  SimHash(size_t bits, size_t dim, uint64_t seed = 23);

  size_t bits() const { return bits_; }

  /// Signs of hyperplane projections, packed little-endian into words.
  std::vector<uint64_t> Signature(std::span<const float> vec) const;

  /// Hamming distance between signatures of equal length.
  static size_t Hamming(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b);

  /// cos(π · hamming / bits): the cosine estimate implied by a distance.
  double EstimateCosine(size_t hamming) const;

 private:
  size_t bits_;
  size_t dim_;
  /// hyperplanes_[b * dim_ + d]: component d of hyperplane b, in {-1, +1}
  /// (Rademacher hyperplanes are as accurate as Gaussian and cacheable).
  std::vector<int8_t> hyperplanes_;
};

/// A banded index over SimHash signatures: signatures are cut into bands
/// of `band_bits` bits; vectors colliding in any band are candidates.
class SimHashIndex {
 public:
  SimHashIndex(size_t bits, size_t dim, size_t band_bits = 8,
               uint64_t seed = 23);

  const SimHash& hasher() const { return hasher_; }

  Status Insert(uint64_t id, std::span<const float> vec);

  /// Ids sharing at least one band with the query vector, ascending.
  std::vector<uint64_t> Query(std::span<const float> vec) const;

  size_t size() const { return count_; }

 private:
  std::vector<uint64_t> BandKeys(const std::vector<uint64_t>& sig) const;

  SimHash hasher_;
  size_t band_bits_;
  size_t num_bands_;
  size_t count_ = 0;
  std::vector<std::unordered_map<uint64_t, std::vector<uint64_t>>> tables_;
};

}  // namespace dialite

#endif  // DIALITE_SKETCH_SIMHASH_H_
