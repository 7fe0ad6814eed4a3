// Known-bad fixture for the include-guard check: a header with no include
// guard at all.

namespace dialite {

struct Unguarded {
  int x = 0;
};

}  // namespace dialite
