// The annotated sync wrappers (util/thread_annotations.hpp) are drop-in
// replacements for std::mutex / std::lock_guard / std::condition_variable
// — these tests pin down that the wrapping changed nothing observable:
// mutual exclusion, condvar wakeups (including timed waits), and above
// all the Mailbox blocking semantics that every driver depends on.
#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "util/first_error.hpp"
#include "util/thread_annotations.hpp"

namespace picprk {
namespace {

using namespace std::chrono_literals;

comm::Message make_msg(int source, int tag, std::size_t bytes = 8) {
  comm::Message m;
  m.source = source;
  m.tag = tag;
  m.payload.assign(bytes, std::byte{0});
  return m;
}

TEST(MutexWrappers, LockGuardProvidesMutualExclusion) {
  util::Mutex mutex;
  long counter = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        util::LockGuard lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(MutexWrappers, CondVarWaitWakesOnNotify) {
  util::Mutex mutex;
  util::CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    std::this_thread::sleep_for(10ms);
    util::LockGuard lock(mutex);
    ready = true;
    cv.notify_all();
  });
  {
    util::LockGuard lock(mutex);
    while (!ready) cv.wait(mutex);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(MutexWrappers, CondVarWaitUntilTimesOut) {
  util::Mutex mutex;
  util::CondVar cv;
  util::LockGuard lock(mutex);
  const auto deadline = std::chrono::steady_clock::now() + 20ms;
  // Nobody notifies: the wait must return (timeout), not hang.
  while (std::chrono::steady_clock::now() < deadline) {
    cv.wait_until(mutex, deadline);
  }
  SUCCEED();
}

TEST(MutexWrappers, FirstErrorKeepsFirstAndRethrows) {
  util::FirstError err;
  EXPECT_FALSE(err.failed());
  err.record(std::make_exception_ptr(std::runtime_error("first")));
  err.record(std::make_exception_ptr(std::runtime_error("second")));
  EXPECT_TRUE(err.failed());
  try {
    err.rethrow_if_any();
    FAIL() << "must rethrow the stored error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // first recording wins
  }
  // Rethrowing clears the state so the owner can be reused (the ws pool
  // dispatches the next batch through the same FirstError).
  EXPECT_FALSE(err.failed());
  EXPECT_EQ(err.take(), nullptr);
  err.record(std::make_exception_ptr(std::runtime_error("again")));
  EXPECT_TRUE(err.failed());
  EXPECT_NE(err.take(), nullptr);
  EXPECT_FALSE(err.failed());
}

// ----------------------------------------------------- mailbox semantics

TEST(MailboxBlocking, PopBlocksUntilPush) {
  comm::Mailbox box;
  std::atomic<bool> popped{false};
  std::thread receiver([&] {
    const comm::Message m = box.pop(comm::kAnySource, comm::kAnyTag, {});
    EXPECT_EQ(m.source, 3);
    EXPECT_EQ(m.tag, 7);
    popped.store(true);
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(popped.load());  // genuinely blocked, not spinning through
  box.push(make_msg(/*source=*/3, /*tag=*/7));
  receiver.join();
  EXPECT_TRUE(popped.load());
}

TEST(MailboxBlocking, FifoPerSourceAndTag) {
  comm::Mailbox box;
  box.push(make_msg(1, 5, 1));
  box.push(make_msg(2, 5, 2));
  box.push(make_msg(1, 5, 3));
  // Matching (source=1, tag=5) must deliver in push order.
  EXPECT_EQ(box.pop(1, 5, {}).payload.size(), 1u);
  EXPECT_EQ(box.pop(1, 5, {}).payload.size(), 3u);
  // The source=2 message is untouched and still probe-able.
  const auto st = box.probe(comm::kAnySource, comm::kAnyTag);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->source, 2);
  EXPECT_EQ(st->bytes, 2u);
}

TEST(MailboxBlocking, DeadlineBecomesCommTimeoutWithEnvelope) {
  comm::Mailbox box;
  comm::Mailbox::WaitParams wait;
  wait.deadline = 30ms;
  try {
    box.pop(/*source=*/4, /*tag=*/9, wait);
    FAIL() << "pop must time out";
  } catch (const comm::CommTimeout& e) {
    EXPECT_EQ(e.source(), 4);
    EXPECT_EQ(e.tag(), 9);
  }
}

TEST(MailboxBlocking, AbortWakesBlockedWaiter) {
  comm::Mailbox box;
  std::atomic<bool> abort{false};
  comm::Mailbox::WaitParams wait;
  wait.abort = &abort;
  std::atomic<bool> threw{false};
  std::thread receiver([&] {
    try {
      box.pop(comm::kAnySource, comm::kAnyTag, wait);
    } catch (const comm::WorldAborted&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(20ms);
  abort.store(true);
  box.notify_abort();
  receiver.join();
  EXPECT_TRUE(threw.load());
}

TEST(MailboxBlocking, ProbeWaitSeesLateMessage) {
  comm::Mailbox box;
  std::thread sender([&] {
    std::this_thread::sleep_for(15ms);
    box.push(make_msg(/*source=*/6, /*tag=*/11, /*bytes=*/24));
  });
  const comm::Status st = box.probe_wait(6, 11, {});
  EXPECT_EQ(st.source, 6);
  EXPECT_EQ(st.tag, 11);
  EXPECT_EQ(st.bytes, 24u);
  EXPECT_EQ(box.queued(), 1u);  // probe is non-destructive
  sender.join();
}

}  // namespace
}  // namespace picprk
