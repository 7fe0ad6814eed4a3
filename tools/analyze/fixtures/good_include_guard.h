#ifndef DIALITE_TOOLS_ANALYZE_FIXTURES_GOOD_INCLUDE_GUARD_H_
#define DIALITE_TOOLS_ANALYZE_FIXTURES_GOOD_INCLUDE_GUARD_H_

// Known-good fixture for the include-guard and using-namespace-header
// checks: a correctly guarded header whose only using-declaration names
// one symbol, and whose #pragma once sits in this comment.
#include <string>

namespace dialite {

using std::string;

inline string Greeting() { return "hello"; }

}  // namespace dialite

#endif  // DIALITE_TOOLS_ANALYZE_FIXTURES_GOOD_INCLUDE_GUARD_H_
