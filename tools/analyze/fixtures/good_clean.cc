// Known-good fixture for the six repo rules: it mentions every banned
// construct ONLY inside comments and string literals, which must stay
// silent:
//   std::thread t; ::socket(2, 1, 0); std::mutex mu; std::lock_guard g;
//   std::condition_variable cv; rand(); srand(1); std::random_device rd;
//   using namespace std; #pragma once
/* Block comments too: std::thread t; std::mutex mu; rand(); */
#include <string>

// A macro body is scanned too, but its strings are strings.
#define BANNER_TEXT "std::mutex rand() // std::thread"

namespace dialite {

const char* Banner() {
  return "std::thread std::mutex std::lock_guard std::condition_variable "
         "::socket() rand() srand() std::random_device using namespace std";
}

const char Pragma[] = R"(#pragma once
using namespace std;)";

}  // namespace dialite
