#include "ws/pool.hpp"

#include <atomic>
#include <deque>
#include <optional>
#include <string>
#include <thread>

#include "util/assert.hpp"
#include "util/first_error.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace picprk::ws {

namespace {

/// Mutex-guarded deque: owner takes from the back, thieves from the
/// front. A lock per operation is fine at the task granularities the
/// PIC drivers use (hundreds of cells per task).
class TaskDeque {
 public:
  void push(std::size_t task) {
    util::LockGuard lock(mutex_);
    deque_.push_back(task);
  }

  std::optional<std::size_t> pop_back() {
    util::LockGuard lock(mutex_);
    if (deque_.empty()) return std::nullopt;
    const std::size_t t = deque_.back();
    deque_.pop_back();
    return t;
  }

  std::optional<std::size_t> pop_front() {
    util::LockGuard lock(mutex_);
    if (deque_.empty()) return std::nullopt;
    const std::size_t t = deque_.front();
    deque_.pop_front();
    return t;
  }

  bool empty() {
    util::LockGuard lock(mutex_);
    return deque_.empty();
  }

 private:
  util::Mutex mutex_;
  std::deque<std::size_t> deque_ PICPRK_GUARDED_BY(mutex_);
};

}  // namespace

/// Persistent worker threads plus the per-run dispatch state. The
/// dispatching thread is worker 0, so a W-worker pool spawns W-1
/// threads, once at pool construction; they park on `cv` between run()
/// calls (a generation ticket tells a new batch from a spurious
/// wake-up). Each run publishes its task function, wakes the crew, runs
/// worker 0's share itself and waits for the others to report done.
/// With a dispatcher that only slept while W threads ran, one woken
/// worker was seen to queue behind another on one core for a whole
/// batch: on a 4-vCPU host a batch of 16 equal 0.5 ms tasks on 4
/// workers took 1.7-1.9x its ideal time, and 1.02-1.12x with the
/// dispatcher as worker 0. The deques are members — not run-locals —
/// precisely so reuse is auditable: every dispatch ends by proving "all
/// deques empty", the failed batches included.
struct WorkStealingPool::Shared {
  explicit Shared(WorkStealingPool& p) : pool(p) {
    const auto n = static_cast<std::size_t>(pool.workers_);
    deques = std::deque<TaskDeque>(n);
    initial_owner.clear();
    executed_per_worker.assign(n, 0);
    steals_per_worker.assign(n, 0);
    threads.reserve(n - 1);
    for (int w = 1; w < pool.workers_; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Shared() {
    {
      util::LockGuard lock(mutex);
      shutdown = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
  }

  /// One batch: tasks already dealt into the deques by the caller, who
  /// then works as worker 0.
  void dispatch(const std::function<void(std::size_t, int)>& fn_ref, bool steal) {
    {
      util::LockGuard lock(mutex);
      fn = &fn_ref;
      allow_steal = steal;
      done_count = 0;
      ++generation;
    }
    cv.notify_all();
    run_tasks(0, fn_ref, steal);
    {
      util::LockGuard lock(mutex);
      while (done_count != pool.workers_ - 1) done_cv.wait(mutex);
      fn = nullptr;
    }
  }

  void worker_loop(int w) {
    std::uint64_t my_generation = 0;
    for (;;) {
      const std::function<void(std::size_t, int)>* body = nullptr;
      bool steal = true;
      {
        util::LockGuard lock(mutex);
        while (!shutdown && generation <= my_generation) cv.wait(mutex);
        if (shutdown) return;
        my_generation = generation;
        body = fn;
        steal = allow_steal;
      }
      run_tasks(w, *body, steal);
      {
        util::LockGuard lock(mutex);
        ++done_count;
      }
      done_cv.notify_all();
    }
  }

  /// The task loop one worker executes for one run.
  void run_tasks(int w, const std::function<void(std::size_t, int)>& body, bool steal) {
    util::SplitMix64 rng(0xA11C0DEull + static_cast<std::uint64_t>(w));
    std::uint64_t executed = 0;
    // Each worker tallies its own steals into its stats slot — no
    // shared atomic on the task path (summed once after the batch).
    std::uint64_t stolen = 0;
    obs::Phase phase("tasks", nullptr,
                     pool.worker_lanes_.empty()
                         ? nullptr
                         : pool.worker_lanes_[static_cast<std::size_t>(w)],
                     pool.run_hist_);
    while (remaining.load(std::memory_order_acquire) > 0) {
      std::optional<std::size_t> task = deques[static_cast<std::size_t>(w)].pop_back();
      if (!task && steal && pool.workers_ > 1) {
        // Steal attempt from a random victim; a couple of tries, then
        // re-check the termination condition.
        for (int attempt = 0; attempt < 2 * pool.workers_ && !task; ++attempt) {
          const int victim = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(pool.workers_)));
          if (victim == w) continue;
          task = deques[static_cast<std::size_t>(victim)].pop_front();
        }
      }
      if (!task) {
        if (!steal) break;  // static schedule: own deque drained
        std::this_thread::yield();
        continue;
      }
      if (initial_owner[*task] != w) ++stolen;
      // A throw does not end the batch: every dealt task runs, so which
      // tasks ran never depends on when the first error happened.
      try {
        body(*task, w);
      } catch (...) {
        error.record_current();
      }
      ++executed;
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
    executed_per_worker[static_cast<std::size_t>(w)] = executed;
    steals_per_worker[static_cast<std::size_t>(w)] = stolen;
  }

  WorkStealingPool& pool;
  std::vector<std::thread> threads;

  // Task queues and per-run bookkeeping. The deques are written by the
  // dispatching client before workers wake and drained to empty before
  // dispatch() returns; the per-worker tally slots are each written by
  // exactly one worker during a run and read after the batch completes.
  std::deque<TaskDeque> deques;
  std::vector<int> initial_owner;
  std::atomic<std::size_t> remaining{0};
  util::FirstError error;
  std::vector<std::uint64_t> executed_per_worker;
  std::vector<std::uint64_t> steals_per_worker;

  util::Mutex mutex;
  util::CondVar cv;       ///< workers wait here for the next batch
  util::CondVar done_cv;  ///< dispatch waits here for batch completion
  bool shutdown PICPRK_GUARDED_BY(mutex) = false;
  std::uint64_t generation PICPRK_GUARDED_BY(mutex) = 0;
  const std::function<void(std::size_t, int)>* fn PICPRK_GUARDED_BY(mutex) = nullptr;
  bool allow_steal PICPRK_GUARDED_BY(mutex) = true;
  int done_count PICPRK_GUARDED_BY(mutex) = 0;
};

WorkStealingPool::WorkStealingPool(int workers, const obs::Hooks& hooks)
    : workers_(workers) {
  PICPRK_EXPECTS(workers >= 1);
  if (hooks.active()) {
    if (hooks.trace != nullptr) {
      worker_lanes_.resize(static_cast<std::size_t>(workers_), nullptr);
      for (int w = 0; w < workers_; ++w) {
        worker_lanes_[static_cast<std::size_t>(w)] =
            &hooks.trace->lane(2, "ws", w, "worker " + std::to_string(w));
      }
    }
    if (hooks.registry != nullptr) {
      tasks_counter_ = &hooks.registry->register_counter("ws/tasks");
      steals_counter_ = &hooks.registry->register_counter("ws/steals");
      run_hist_ = &hooks.registry->register_histogram("ws/run_seconds", 0.0, 0.05, 100);
      steals_per_run_hist_ =
          &hooks.registry->register_histogram("ws/steals_per_run", 0.0, 128.0, 64);
    }
  }
  shared_ = std::make_unique<Shared>(*this);
}

WorkStealingPool::~WorkStealingPool() = default;

PoolStats WorkStealingPool::run_placed(std::size_t count, std::span<const int> owners,
                                       const std::function<void(std::size_t, int)>& fn,
                                       bool allow_steal) {
  PICPRK_EXPECTS(owners.size() == count);
  PoolStats stats;
  stats.tasks = count;
  stats.executed_per_worker.assign(static_cast<std::size_t>(workers_), 0);
  stats.steals_per_worker.assign(static_cast<std::size_t>(workers_), 0);
  if (count == 0) return stats;
  if (tasks_counter_ != nullptr) tasks_counter_->add(count);

  Shared& sh = *shared_;
  // Deal the batch. The previous dispatch left every deque empty (it
  // asserts so below), so this run starts from a clean pool whatever
  // happened before — including a task exception.
  sh.initial_owner.assign(owners.begin(), owners.end());
  for (std::size_t t = 0; t < count; ++t) {
    PICPRK_EXPECTS(owners[t] >= 0 && owners[t] < workers_);
    sh.deques[static_cast<std::size_t>(owners[t])].push(t);
  }
  sh.remaining.store(count, std::memory_order_release);
  std::fill(sh.executed_per_worker.begin(), sh.executed_per_worker.end(), 0);
  std::fill(sh.steals_per_worker.begin(), sh.steals_per_worker.end(), 0);

  sh.dispatch(fn, allow_steal);

  for (int w = 0; w < workers_; ++w) {
    stats.executed_per_worker[static_cast<std::size_t>(w)] =
        sh.executed_per_worker[static_cast<std::size_t>(w)];
    stats.steals_per_worker[static_cast<std::size_t>(w)] =
        sh.steals_per_worker[static_cast<std::size_t>(w)];
    stats.steals += stats.steals_per_worker[static_cast<std::size_t>(w)];
  }

  PICPRK_ASSERT_MSG(sh.remaining.load() == 0, "work-stealing pool lost tasks");
  for (auto& d : sh.deques) {
    PICPRK_ASSERT_MSG(d.empty(), "work-stealing pool left tasks queued");
  }
  // The first task exception propagates once the whole batch has run;
  // rethrowing clears it, so the pool stays reusable.
  sh.error.rethrow_if_any();
  if (steals_counter_ != nullptr) steals_counter_->add(stats.steals);
  // Per-batch observation alongside the pool-lifetime aggregate: the
  // histogram answers "how much did *this* dispatch steal", which the
  // cumulative ws/steals counter cannot.
  if (steals_per_run_hist_ != nullptr) {
    steals_per_run_hist_->observe(static_cast<double>(stats.steals));
  }
  return stats;
}

}  // namespace picprk::ws
