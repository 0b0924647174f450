// Abort semantics: when one rank throws, ranks blocked anywhere — p2p
// receives or inside collectives — must be woken so the world can shut
// down cleanly and rethrow, instead of deadlocking the process.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/comm.hpp"
#include "comm/world.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::World;
using picprk::comm::WorldAborted;

TEST(Abort, WakesRankBlockedInBarrier) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("rank 0 died");
    comm.barrier();  // ranks 1, 2 would block forever without the abort
  }),
               std::runtime_error);
}

TEST(Abort, WakesRankBlockedInAllreduce) {
  World world(4);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 2) throw std::logic_error("rank 2 died");
    (void)comm.allreduce_value<int>(1, [](int a, int b) { return a + b; });
  }),
               std::logic_error);
}

TEST(Abort, WakesRankBlockedInProbe) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("boom");
    (void)comm.probe(0, 42);
  }),
               std::runtime_error);
}

TEST(Abort, FirstExceptionWins) {
  // Both ranks throw; run() must report exactly one of them (the first)
  // and not crash.
  World world(2);
  try {
    world.run([](Comm&) { throw std::runtime_error("either"); });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "either");
  }
}

TEST(Abort, WorldIsReusableAfterAbort) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::runtime_error("once");
    (void)comm.recv_value<int>(0, 0);
  }),
               std::runtime_error);
  // A fresh run on the same world works (abort flag cleared). Note: a
  // correct program consumed all its messages; after an abort the ranks
  // use fresh tags, so leftovers from the aborted run cannot match.
  world.run([](Comm& comm) {
    const int sum = comm.allreduce_value<int>(1, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, 2);
  });
}

TEST(Abort, ResidualMessagesAreDrainedAndReported) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(7, 1, 5);  // never consumed: rank 1 dies first
      comm.send_value<int>(8, 1, 5);
      comm.barrier();
    } else {
      throw std::runtime_error("rank 1 died with mail pending");
    }
  }),
               std::runtime_error);
  EXPECT_GE(world.residual_messages(), 2u);
  // The drain means the next run starts from clean mailboxes.
  world.run([](Comm& comm) {
    const int sum = comm.allreduce_value<int>(1, [](int a, int b) { return a + b; });
    EXPECT_EQ(sum, 2);
  });
  EXPECT_EQ(world.residual_messages(), 0u);
}

TEST(Timeout, BlockedRecvThrowsCommTimeout) {
  picprk::comm::WorldOptions options;
  options.timeout_ms = 100;
  World world(2, options);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 1) {
      (void)comm.recv_value<int>(0, 9);  // rank 0 never sends
    }
  }),
               picprk::comm::CommTimeout);
}

TEST(Timeout, DuringCollectiveThrowsCommTimeout) {
  // One rank never enters the allreduce: the others' internal receives
  // must hit the per-call deadline instead of hanging.
  picprk::comm::WorldOptions options;
  options.timeout_ms = 100;
  World world(3, options);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 2) return;  // absent from the collective
    (void)comm.allreduce_value<int>(1, [](int a, int b) { return a + b; });
  }),
               picprk::comm::CommTimeout);
}

TEST(Timeout, CarriesBlockedEnvelopeInMessage) {
  picprk::comm::WorldOptions options;
  options.timeout_ms = 50;
  World world(2, options);
  try {
    world.run([](Comm& comm) {
      if (comm.rank() == 0) (void)comm.recv_value<int>(1, 77);
    });
    FAIL() << "expected CommTimeout";
  } catch (const picprk::comm::CommTimeout& e) {
    EXPECT_NE(std::string(e.what()).find("tag 77"), std::string::npos);
    EXPECT_EQ(e.tag(), 77);
    EXPECT_EQ(e.source(), 1);
  }
}

TEST(Deadlock, DetectorReportsAllBlockedRanks) {
  // A classic cycle: every rank receives from its left neighbor and no
  // one ever sends. With the detector on, the world must abort with a
  // DeadlockDetected naming each rank's blocked location.
  picprk::comm::WorldOptions options;
  options.deadlock_ms = 150;
  World world(3, options);
  try {
    world.run([](Comm& comm) {
      const int left = (comm.rank() + comm.size() - 1) % comm.size();
      (void)comm.recv_value<int>(left, 4);
    });
    FAIL() << "expected DeadlockDetected";
  } catch (const picprk::comm::DeadlockDetected& e) {
    const std::string report = e.what();
    EXPECT_NE(report.find("rank 0"), std::string::npos);
    EXPECT_NE(report.find("rank 1"), std::string::npos);
    EXPECT_NE(report.find("rank 2"), std::string::npos);
    EXPECT_NE(report.find("tag=4"), std::string::npos);
  }
}

TEST(Deadlock, DetectorIgnoresFinishedRanks) {
  // Ranks that returned cleanly must not count as "blocked": a world
  // where some ranks are done and the rest make progress is healthy.
  picprk::comm::WorldOptions options;
  options.deadlock_ms = 100;
  World world(3, options);
  world.run([](Comm& comm) {
    if (comm.rank() == 2) return;  // finishes immediately
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      comm.send_value<int>(1, 1, 3);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 3), 1);
    }
  });
}

}  // namespace
