// Known-bad fixture for the raw-sync-primitive check: raw std locking
// outside common/sync.h must be flagged (only the annotated wrappers may
// touch the std primitives).
#include <condition_variable>
#include <mutex>

namespace dialite {

std::mutex bad_mu;                 // check: raw-sync-primitive
std::condition_variable bad_cv;    // check: raw-sync-primitive

int LockedAdd(int a, int b) {
  std::lock_guard<std::mutex> lock(bad_mu);  // check: raw-sync-primitive
  bad_cv.notify_one();
  return a + b;
}

}  // namespace dialite
