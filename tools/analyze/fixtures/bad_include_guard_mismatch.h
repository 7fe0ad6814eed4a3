#ifndef DIALITE_TOOLS_ANALYZE_FIXTURES_BAD_INCLUDE_GUARD_MISMATCH_H_
#define DIALITE_TOOLS_ANALYZE_FIXTURES_SOME_OTHER_HEADER_H_

// Known-bad fixture for the include-guard check: the #define names a
// different macro than the #ifndef tests, so the guard never closes over a
// second include (check: include-guard).

namespace dialite {

struct MisGuarded {
  int x = 0;
};

}  // namespace dialite

#endif  // DIALITE_TOOLS_ANALYZE_FIXTURES_BAD_INCLUDE_GUARD_MISMATCH_H_
