#include "sketch/minhash.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/hash.h"

namespace dialite {

MinHash::MinHash(size_t num_perm, uint64_t seed)
    : sig_(num_perm, std::numeric_limits<uint64_t>::max()), seed_(seed) {}

MinHash MinHash::FromTokens(const std::vector<std::string>& tokens,
                            size_t num_perm, uint64_t seed) {
  MinHash mh(num_perm, seed);
  for (const std::string& t : tokens) mh.Update(t);
  return mh;
}

void MinHash::Update(const std::string& token) {
  // One strong base hash, then k cheap independent remixes — the standard
  // "one permutation per remix" trick keeps Update O(k) with one string pass.
  const uint64_t base = HashString(token, seed_);
  for (size_t i = 0; i < sig_.size(); ++i) {
    sig_[i] = std::min(sig_[i], Remix(base, seed_, i));
  }
}

void MinHash::UpdateRemixed(const uint64_t* remixes) {
  for (size_t i = 0; i < sig_.size(); ++i) {
    sig_[i] = std::min(sig_[i], remixes[i]);
  }
}

double MinHash::EstimateJaccard(const MinHash& other) const {
  assert(sig_.size() == other.sig_.size() && seed_ == other.seed_);
  if (sig_.empty()) return 0.0;
  size_t eq = 0;
  for (size_t i = 0; i < sig_.size(); ++i) {
    if (sig_[i] == other.sig_[i]) ++eq;
  }
  return static_cast<double>(eq) / static_cast<double>(sig_.size());
}

double MinHash::EstimateContainment(const MinHash& other, size_t this_size,
                                    size_t other_size) const {
  if (this_size == 0) return 0.0;
  double j = EstimateJaccard(other);
  double c = j * static_cast<double>(this_size + other_size) /
             ((1.0 + j) * static_cast<double>(this_size));
  return std::clamp(c, 0.0, 1.0);
}

uint64_t MinHash::BandHash(size_t begin, size_t end) const {
  uint64_t h = 0x811c9dc5ULL ^ Mix64(begin * 0x100000001b3ULL + end);
  for (size_t i = begin; i < end && i < sig_.size(); ++i) {
    h = HashCombine(h, sig_[i]);
  }
  return h;
}

}  // namespace dialite
