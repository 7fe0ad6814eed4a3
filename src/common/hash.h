#ifndef DIALITE_COMMON_HASH_H_
#define DIALITE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace dialite {

/// Deterministic, seedable 64-bit hashing used throughout the library
/// (MinHash, inverted indexes, embeddings). All functions are pure and
/// platform-independent so that indexes, sketches, and generated lakes are
/// reproducible across runs and machines.

/// SplitMix64 finalizer — a strong 64-bit mixer.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes (boost::hash_combine-style, 64-bit variant).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

/// FNV-1a–seeded 64-bit string hash, finalized with Mix64. `seed` selects an
/// independent hash function family member (used by MinHash permutations).
uint64_t HashString(std::string_view s, uint64_t seed = 0);

/// HashString in steps, for keys that arrive in pieces: starting from
/// HashStringInit(seed), fold every byte with HashStringByte, then Mix64 the
/// state. The result equals HashString of the concatenated bytes, without
/// building that string.
constexpr uint64_t HashStringInit(uint64_t seed) {
  return 0xcbf29ce484222325ULL ^ Mix64(seed);
}
constexpr uint64_t HashStringByte(uint64_t state, unsigned char c) {
  return (state ^ c) * 0x100000001b3ULL;
}

/// The mask HashUint64 applies under `seed`:
/// HashUint64(v, seed) == Mix64(v ^ HashUint64Salt(seed)). A caller hashing
/// many values under the same few seeds can tabulate it.
constexpr uint64_t HashUint64Salt(uint64_t seed) {
  return Mix64(seed ^ 0x51afd7ed558ccd6dULL);
}

/// Hashes a 64-bit integer under a seeded family.
constexpr uint64_t HashUint64(uint64_t v, uint64_t seed = 0) {
  return Mix64(v ^ HashUint64Salt(seed));
}

}  // namespace dialite

#endif  // DIALITE_COMMON_HASH_H_
