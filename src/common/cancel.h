#ifndef DIALITE_COMMON_CANCEL_H_
#define DIALITE_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace dialite {

/// Cooperative cancellation: one token per request, polled at safe points
/// inside long-running loops (the discovery cascade's exact-scoring loop,
/// the server's handler stages). A token fires either explicitly (Cancel(),
/// e.g. on client disconnect) or implicitly when its deadline passes.
///
/// Thread-safety: Cancel()/Cancelled() may race freely — both sides are
/// relaxed atomics on one flag. The deadline is set once before the token
/// is shared (SetDeadlineAfter from the request thread, then handed by
/// const pointer into the discovery stack), so it needs no ordering.
///
/// Polling cost: one relaxed load when no deadline is set; one extra
/// steady_clock read when one is. Poll at per-candidate granularity (µs+ of
/// scoring work), not per element.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms a deadline `timeout` from now (steady clock). Call before sharing
  /// the token; a zero/negative timeout makes the token fire immediately,
  /// and one past the clock's range saturates instead of wrapping.
  void SetDeadlineAfter(std::chrono::nanoseconds timeout) {
    const int64_t now = NowNs();
    const int64_t headroom = std::numeric_limits<int64_t>::max() - now;
    deadline_ns_ = timeout.count() > headroom
                       ? std::numeric_limits<int64_t>::max()
                       : now + timeout.count();
    has_deadline_ = true;
  }

  /// True once Cancel() was called or the deadline passed. A fired token
  /// stays fired (the deadline check latches into the flag).
  [[nodiscard]] bool Cancelled() const {
    if (CancelRequested()) return true;
    if (has_deadline_ && NowNs() >= deadline_ns_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The flag alone: true once Cancel() was called or an earlier
  /// Cancelled() saw the deadline pass. No clock read.
  [[nodiscard]] bool CancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::atomic<bool> cancelled_{false};
  int64_t deadline_ns_ = 0;   ///< steady-clock ns; valid iff has_deadline_
  bool has_deadline_ = false;
};

/// Polls a CancelToken from a loop whose iterations are too short to pay a
/// clock read each (the FD fix-point visits one bucket candidate per
/// iteration). Every poll reads the Cancel() flag; the deadline clock is
/// read on the first poll and then once per kClockStride polls, so a
/// pre-expired token still fires on the first poll. The stride count lives
/// in the poller, on the polling thread's stack: a token shared by several
/// workers gains no mutable state. A null token never fires.
class CancelPoller {
 public:
  static constexpr uint32_t kClockStride = 64;

  explicit CancelPoller(const CancelToken* token) : token_(token) {}

  [[nodiscard]] bool Cancelled() {
    if (token_ == nullptr) return false;
    if (token_->CancelRequested()) return true;
    if (polls_to_clock_ > 0) {
      --polls_to_clock_;
      return false;
    }
    polls_to_clock_ = kClockStride - 1;
    return token_->Cancelled();
  }

 private:
  const CancelToken* token_;
  uint32_t polls_to_clock_ = 0;  ///< polls left before the next clock read
};

}  // namespace dialite

#endif  // DIALITE_COMMON_CANCEL_H_
