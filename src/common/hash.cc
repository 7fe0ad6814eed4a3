#include "common/hash.h"

namespace dialite {

uint64_t HashString(std::string_view s, uint64_t seed) {
  // FNV-1a over the bytes, offset perturbed by the seed, then finalized.
  uint64_t h = HashStringInit(seed);
  for (unsigned char c : s) h = HashStringByte(h, c);
  return Mix64(h);
}

}  // namespace dialite
