#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "comm/comm.hpp"
#include "comm/world.hpp"

namespace {

using picprk::comm::Comm;
using picprk::comm::kAnySource;
using picprk::comm::kAnyTag;
using picprk::comm::Status;
using picprk::comm::World;

TEST(P2P, SendRecvRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{1, 2, 3, 4};
      comm.send(data, 1, 7);
    } else {
      auto got = comm.recv<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(P2P, SendValueRecvValue) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(3.14, 1, 0);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 0), 3.14);
    }
  });
}

TEST(P2P, TagMatchingSelectsRightMessage) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(10, 1, 1);
      comm.send_value(20, 1, 2);
    } else {
      // Receive in reverse tag order: matching must be by tag, not FIFO.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 20);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 10);
    }
  });
}

TEST(P2P, FifoOrderPerSourceAndTag) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value(i, 1, 3);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(comm.recv_value<int>(0, 3), i);
    }
  });
}

TEST(P2P, AnySourceReceivesFromAll) {
  const int p = 4;
  World world(p);
  world.run([p](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(static_cast<std::size_t>(p), false);
      for (int i = 1; i < p; ++i) {
        Status st;
        const int v = comm.recv_value<int>(kAnySource, 5, &st);
        EXPECT_EQ(v, st.source * 100);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
      for (int r = 1; r < p; ++r) EXPECT_TRUE(seen[static_cast<std::size_t>(r)]);
    } else {
      comm.send_value(comm.rank() * 100, 0, 5);
    }
  });
}

TEST(P2P, AnyTagReceives) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(99, 1, 42);
    } else {
      Status st;
      EXPECT_EQ(comm.recv_value<int>(0, kAnyTag, &st), 99);
      EXPECT_EQ(st.tag, 42);
    }
  });
}

TEST(P2P, ProbeReportsSizeWithoutConsuming) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(10, 1.5);
      comm.send(data, 1, 9);
    } else {
      Status st = comm.probe(0, 9);
      EXPECT_EQ(st.bytes, 10 * sizeof(double));
      EXPECT_EQ(st.source, 0);
      auto got = comm.recv<double>(0, 9);
      EXPECT_EQ(got.size(), 10u);
    }
  });
}

TEST(P2P, IprobeReturnsNulloptWhenEmpty) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 1) {
      EXPECT_FALSE(comm.iprobe(0, 1234).has_value());
    }
    comm.barrier();
    if (comm.rank() == 0) comm.send_value(1, 1, 1234);
    comm.barrier();
    if (comm.rank() == 1) {
      EXPECT_TRUE(comm.iprobe(0, 1234).has_value());
      (void)comm.recv_value<int>(0, 1234);
    }
  });
}

TEST(P2P, EmptyMessageDelivered) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::vector<int>{}, 1, 8);
    } else {
      auto got = comm.recv<int>(0, 8);
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(P2P, RecvIntoReusesCapacity) {
  World world(3);
  world.run([](Comm& comm) {
    if (comm.rank() == 2) {
      std::vector<int> full(8);
      std::iota(full.begin(), full.end(), 1);
      comm.send(full, 1, 21);
      comm.send(std::vector<int>{9, 10, 11}, 1, 21);
      comm.send(std::vector<int>{}, 1, 21);
    } else if (comm.rank() == 1) {
      std::vector<int> buf;
      buf.reserve(8);
      const int* storage = buf.data();
      Status st;

      EXPECT_EQ(comm.recv_into(buf, 2, 21, &st), 8u);
      EXPECT_EQ(buf, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
      EXPECT_EQ(buf.data(), storage);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(st.tag, 21);
      EXPECT_EQ(st.bytes, 8 * sizeof(int));

      EXPECT_EQ(comm.recv_into(buf, kAnySource, 21, &st), 3u);
      EXPECT_EQ(buf, (std::vector<int>{9, 10, 11}));
      EXPECT_EQ(buf.data(), storage);
      EXPECT_EQ(st.source, 2);
      EXPECT_EQ(st.bytes, 3 * sizeof(int));

      EXPECT_EQ(comm.recv_into(buf, 2, kAnyTag, &st), 0u);
      EXPECT_TRUE(buf.empty());
      EXPECT_GE(buf.capacity(), 8u);
      EXPECT_EQ(st.tag, 21);
      EXPECT_EQ(st.bytes, 0u);
    }
  });
}

TEST(P2P, ThrowingRankAbortsWorld) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      throw std::runtime_error("boom");
    }
    // Rank 1 blocks forever unless the abort wakes it.
    (void)comm.recv_value<int>(0, 0);
  }),
               std::runtime_error);
}

TEST(P2P, ByteAccountingGrows) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<char> payload(1000, 'x');
      comm.send(payload, 1, 0);
    } else {
      (void)comm.recv<char>(0, 0);
    }
  });
  EXPECT_GE(world.bytes_sent(), 1000u);
  EXPECT_GE(world.messages_sent(), 1u);
}

TEST(P2P, SelfSendWorks) {
  World world(1);
  world.run([](Comm& comm) {
    comm.send_value(5, 0, 0);
    EXPECT_EQ(comm.recv_value<int>(0, 0), 5);
  });
}

struct PodTriple {
  double a;
  int b;
  char c;
};

TEST(P2P, TriviallyCopyableStructsTravel) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      PodTriple t{1.5, 2, 'z'};
      comm.send_value(t, 1, 0);
    } else {
      auto t = comm.recv_value<PodTriple>(0, 0);
      EXPECT_DOUBLE_EQ(t.a, 1.5);
      EXPECT_EQ(t.b, 2);
      EXPECT_EQ(t.c, 'z');
    }
  });
}

}  // namespace
