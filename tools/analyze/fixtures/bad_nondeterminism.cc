// Known-bad fixture for the nondeterminism check: unseeded randomness
// outside src/common/rng breaks the reproducibility guarantee
// (bit-identical lakes, sketches and indexes across runs).
#include <cstdlib>
#include <ctime>
#include <random>

namespace dialite {

int Roll() {
  std::srand(static_cast<unsigned>(std::time(nullptr)));  // nondeterminism
  std::random_device rd;                                  // nondeterminism
  return rand() % 6 + static_cast<int>(rd() % 2);         // nondeterminism
}

}  // namespace dialite
