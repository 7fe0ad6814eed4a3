// Known-good fixture: a real naked-thread violation carrying an explicit
// analyze waiver comment, so it must stay silent (and the waiver counts as
// used, so no stale-waiver warning either).
#include <thread>

namespace dialite {

void Bootstrap() {
  std::thread t([] {});  // analyze: allow-thread(fixture: waived spawn)
  t.join();
}

}  // namespace dialite
