// Known-bad fixture for the nondeterminism check: the unseeded call hides
// in a macro's replacement list, which the check scans too.
#include <cstdlib>

#define ROLL_DIE() (rand() % 6 + 1)  // check: nondeterminism

int Roll() { return ROLL_DIE(); }
