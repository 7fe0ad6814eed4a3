// Known-good fixture for the hot-alloc check: the allocation is hoisted
// out of the cancel-polled loop, so each iteration only reuses the scratch
// buffer — exactly the rewrite the arena work list asks for. The string
// built in the cancel branch's return runs at most once per call.
bool Cancelled();
int Fail(const string& why);

int Handle(int n) {
  string scratch(16, 'x');  // one-time setup cost, outside the loop
  int total = 0;
  for (int i = 0; i < n; ++i) {
    if (Cancelled()) return Fail(string("cancelled"));
    total += scratch.size();
  }
  return total;
}
