// Known-bad fixture for the hot-alloc check: Handle is a request entry
// point (policy seed) and its loops poll cancellation, marking them
// request-hot — yet each constructs a `string` (policy alloc-type) every
// iteration: the first directly, the second inside a lambda's return,
// which runs on every call of the lambda. Reported as notes: the arena-PR
// inventory, not a hard error.
bool Cancelled();

int Handle(int n) {
  int total = 0;
  for (int i = 0; i < n; ++i) {  // check: hot-alloc
    if (Cancelled()) return total;
    string row(16, 'x');
    total += row.size();
  }
  for (int i = 0; i < n; ++i) {  // check: hot-alloc
    if (Cancelled()) return total;
    total += [&] { return string(16, 'y'); }().size();
  }
  return total;
}
