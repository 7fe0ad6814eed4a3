// Known-good fixture for the using-namespace-header check: a
// using-directive in a .cc file leaks nowhere.
#include <string>

using namespace std;

string Echo(const string& s) { return s; }
