#include "sketch/simhash.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/hash.h"

namespace dialite {

SimHash::SimHash(size_t bits, size_t dim, uint64_t seed)
    : bits_(bits), dim_(dim), hyperplanes_(bits * dim) {
  for (size_t b = 0; b < bits; ++b) {
    for (size_t d = 0; d < dim; ++d) {
      hyperplanes_[b * dim + d] =
          (HashUint64(b * 0x9e3779b9ULL + d, seed) & 1ULL) ? 1 : -1;
    }
  }
}

std::vector<uint64_t> SimHash::Signature(std::span<const float> vec) const {
  std::vector<uint64_t> sig((bits_ + 63) / 64, 0);
  const size_t n = std::min(dim_, vec.size());
  for (size_t b = 0; b < bits_; ++b) {
    double dot = 0.0;
    const int8_t* plane = &hyperplanes_[b * dim_];
    for (size_t d = 0; d < n; ++d) {
      dot += plane[d] * static_cast<double>(vec[d]);
    }
    if (dot >= 0.0) sig[b / 64] |= (1ULL << (b % 64));
  }
  return sig;
}

size_t SimHash::Hamming(const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
  size_t dist = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dist += static_cast<size_t>(__builtin_popcountll(a[i] ^ b[i]));
  }
  return dist;
}

double SimHash::EstimateCosine(size_t hamming) const {
  double theta = std::numbers::pi * static_cast<double>(hamming) /
                 static_cast<double>(bits_);
  return std::cos(theta);
}

SimHashIndex::SimHashIndex(size_t bits, size_t dim, size_t band_bits,
                           uint64_t seed)
    : hasher_(bits, dim, seed),
      band_bits_(band_bits == 0 ? 8 : band_bits),
      num_bands_(bits / (band_bits == 0 ? 8 : band_bits)),
      tables_(num_bands_) {}

std::vector<uint64_t> SimHashIndex::BandKeys(
    const std::vector<uint64_t>& sig) const {
  std::vector<uint64_t> keys;
  keys.reserve(num_bands_);
  for (size_t band = 0; band < num_bands_; ++band) {
    uint64_t key = Mix64(band + 1);
    for (size_t bit = band * band_bits_; bit < (band + 1) * band_bits_;
         ++bit) {
      uint64_t v = (sig[bit / 64] >> (bit % 64)) & 1ULL;
      key = HashCombine(key, v + 2);
    }
    keys.push_back(key);
  }
  return keys;
}

Status SimHashIndex::Insert(uint64_t id, std::span<const float> vec) {
  std::vector<uint64_t> keys = BandKeys(hasher_.Signature(vec));
  for (size_t band = 0; band < num_bands_; ++band) {
    tables_[band][keys[band]].push_back(id);
  }
  ++count_;
  return Status::OK();
}

std::vector<uint64_t> SimHashIndex::Query(std::span<const float> vec) const {
  std::vector<uint64_t> keys = BandKeys(hasher_.Signature(vec));
  // Every band's bucket, then sort and dedupe: no node per id.
  std::vector<uint64_t> out;
  for (size_t band = 0; band < num_bands_; ++band) {
    auto it = tables_[band].find(keys[band]);
    if (it == tables_[band].end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dialite
