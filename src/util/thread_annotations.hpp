// Clang thread-safety annotations (-Wthread-safety) and the annotated
// synchronization wrappers the rest of the tree locks with. The macros
// expand to Clang capability attributes when the compiler supports them
// and to nothing otherwise (GCC builds see plain std synchronization),
// so the analysis is a free compile-time layer: a Clang build with
// -Werror=thread-safety (enabled automatically, see the top-level
// CMakeLists) refuses to compile an access to a PICPRK_GUARDED_BY member
// without its mutex held.
//
// The vocabulary follows the Clang documentation and Abseil's
// thread_annotations.h:
//  * PICPRK_GUARDED_BY(m)   — field may only be touched with m held;
//  * PICPRK_REQUIRES(m)     — function may only be called with m held;
//  * PICPRK_ACQUIRE/RELEASE — function takes / drops the capability;
//  * util::Mutex            — std::mutex wearing the capability attribute;
//  * util::LockGuard        — scoped acquisition the analysis understands;
//  * util::CondVar          — condition variable whose waits REQUIRE the
//                             annotated mutex (std::condition_variable's
//                             unique_lock interface is opaque to the
//                             analysis; this wrapper is not).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define PICPRK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PICPRK_THREAD_ANNOTATION(x)  // no-op on GCC and others
#endif

#define PICPRK_CAPABILITY(name) PICPRK_THREAD_ANNOTATION(capability(name))
#define PICPRK_SCOPED_CAPABILITY PICPRK_THREAD_ANNOTATION(scoped_lockable)
#define PICPRK_GUARDED_BY(x) PICPRK_THREAD_ANNOTATION(guarded_by(x))
#define PICPRK_PT_GUARDED_BY(x) PICPRK_THREAD_ANNOTATION(pt_guarded_by(x))
#define PICPRK_REQUIRES(...) \
  PICPRK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PICPRK_ACQUIRE(...) \
  PICPRK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PICPRK_RELEASE(...) \
  PICPRK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PICPRK_EXCLUDES(...) PICPRK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PICPRK_RETURN_CAPABILITY(x) PICPRK_THREAD_ANNOTATION(lock_returned(x))
#define PICPRK_NO_THREAD_SAFETY_ANALYSIS \
  PICPRK_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace picprk::util {

/// std::mutex with the capability attribute, so PICPRK_GUARDED_BY fields
/// and PICPRK_REQUIRES functions can name it. Same cost as a bare
/// std::mutex; `native()` exists only for CondVar's wait plumbing.
class PICPRK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PICPRK_ACQUIRE() { mutex_.lock(); }
  void unlock() PICPRK_RELEASE() { mutex_.unlock(); }

  /// The underlying std::mutex — needed by CondVar to interoperate with
  /// std::condition_variable. Do not lock/unlock through it directly;
  /// that would bypass the analysis.
  std::mutex& native() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// Scoped lock over a util::Mutex that the thread-safety analysis tracks
/// (std::scoped_lock/unique_lock are opaque to it). Non-movable; always
/// holds its mutex from construction to destruction.
class PICPRK_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mutex) PICPRK_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~LockGuard() PICPRK_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over util::Mutex. Waits require the mutex held (and
/// are annotated so), matching how a std::condition_variable requires a
/// locked unique_lock; internally the held lock is adopted, waited on and
/// released back to the caller, so the caller's LockGuard stays valid.
class CondVar {
 public:
  /// Blocks until notified (spurious wakeups possible, as with the std
  /// type — callers re-check their predicate in a loop).
  void wait(Mutex& mutex) PICPRK_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's guard
  }

  /// Predicate wait: returns with the predicate true and the mutex held.
  template <typename Predicate>
  void wait(Mutex& mutex, Predicate pred) PICPRK_REQUIRES(mutex) {
    while (!pred()) wait(mutex);
  }

  /// Deadline wait; std::cv_status::timeout when `deadline` passed first.
  template <typename Clock, typename Duration>
  std::cv_status wait_until(Mutex& mutex,
                            const std::chrono::time_point<Clock, Duration>& deadline)
      PICPRK_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace picprk::util
