#pragma once
// Known-bad fixture for the include-guard check: the project standard is
// #ifndef guards, not #pragma once.

namespace dialite {

struct PragmaGuarded {
  int x = 0;
};

}  // namespace dialite
