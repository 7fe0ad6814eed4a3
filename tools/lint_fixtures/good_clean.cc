// Known-good fixture: mentions every forbidden construct ONLY inside comments
// and string literals, which the linter must ignore:
//   std::thread t; using namespace std; rand(); std::random_device rd;
#include <string>

namespace dialite {

const char* Banner() {
  return "std::thread rand() using namespace std";
}

}  // namespace dialite
