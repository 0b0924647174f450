// First-exception capture for thread teams. The threadcomm World and
// the work-stealing pool each carried their own mutex + exception_ptr +
// atomic-failed triple; this is that pattern once, with the locking
// discipline enforced by the Clang thread-safety analysis instead of by
// convention.
//
// Usage: workers call record() from their catch(...) blocks; the owner
// calls rethrow_if_any() (or take()) after joining.
#pragma once

#include <atomic>
#include <exception>

#include "util/thread_annotations.hpp"

namespace picprk::util {

class FirstError {
 public:
  /// Records `error` if none is held yet (first one wins). Thread-safe.
  void record(std::exception_ptr error) {
    LockGuard lock(mutex_);
    if (!error_) error_ = std::move(error);
    failed_.store(true, std::memory_order_release);
  }

  /// Convenience: record the in-flight exception of a catch(...) block.
  void record_current() { record(std::current_exception()); }

  /// Lock-free check: whether an error is held.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Removes and returns the stored error (null if none), resetting the
  /// failed flag so the owner can be reused for the next batch.
  std::exception_ptr take() {
    LockGuard lock(mutex_);
    std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    failed_.store(false, std::memory_order_release);
    return error;
  }

  /// Rethrows the stored error, if any, clearing it first.
  void rethrow_if_any() {
    if (!failed()) return;
    if (std::exception_ptr error = take()) std::rethrow_exception(error);
  }

 private:
  mutable Mutex mutex_;
  std::exception_ptr error_ PICPRK_GUARDED_BY(mutex_);
  std::atomic<bool> failed_{false};
};

}  // namespace picprk::util
