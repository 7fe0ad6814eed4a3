// Known-good fixture for the raw-sync-primitive and nondeterminism checks:
// std::once_flag / std::call_once are allowed, and identifiers that merely
// contain "rand" or name a seeded engine are not unseeded randomness.
#include <mutex>
#include <random>

namespace dialite {

std::once_flag init_once;

int Operand(int x) { return x; }

int Seeded(unsigned seed) {
  int brand = 0;
  std::call_once(init_once, [&] { brand = 1; });
  std::mt19937 engine(seed);
  return Operand(brand) + static_cast<int>(engine() % 2);
}

}  // namespace dialite
