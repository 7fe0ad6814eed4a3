#ifndef DIALITE_TOOLS_ANALYZE_FIXTURES_BAD_USING_NAMESPACE_H_
#define DIALITE_TOOLS_ANALYZE_FIXTURES_BAD_USING_NAMESPACE_H_

// Known-bad fixture for the using-namespace-header check: a
// using-directive in a header leaks into every includer.
#include <string>

using namespace std;  // check: using-namespace-header

#endif  // DIALITE_TOOLS_ANALYZE_FIXTURES_BAD_USING_NAMESPACE_H_
