#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vpr/pup.hpp"

namespace {

using picprk::vpr::Pup;
using picprk::vpr::pup_pack;
using picprk::vpr::pup_unpack;

struct Simple {
  int a = 0;
  double b = 0.0;
  std::vector<std::uint64_t> v;
  std::string name;

  void pup(Pup& p) {
    p(a);
    p(b);
    p(v);
    p(name);
  }
};

struct Nested {
  Simple inner;
  std::int64_t tag = 0;

  void pup(Pup& p) {
    p(inner);
    p(tag);
  }
};

TEST(PupTest, RoundTripSimple) {
  Simple s{42, -1.25, {10, 20, 30, 40}, "pic-prk"};
  auto buffer = pup_pack(s);
  Simple t;
  pup_unpack(t, std::move(buffer));
  EXPECT_EQ(t.a, 42);
  EXPECT_DOUBLE_EQ(t.b, -1.25);
  EXPECT_EQ(t.v, (std::vector<std::uint64_t>{10, 20, 30, 40}));
  EXPECT_EQ(t.name, "pic-prk");
}

TEST(PupTest, RoundTripNested) {
  Nested n{{1, 2.0, {5}, "x"}, 99};
  Nested m;
  pup_unpack(m, pup_pack(n));
  EXPECT_EQ(m.inner.a, 1);
  EXPECT_EQ(m.inner.v, std::vector<std::uint64_t>{5});
  EXPECT_EQ(m.tag, 99);
}

TEST(PupTest, EmptyVectorsAndStrings) {
  Simple s{0, 0.0, {}, ""};
  Simple t{9, 9.0, {1}, "junk"};
  pup_unpack(t, pup_pack(s));
  EXPECT_TRUE(t.v.empty());
  EXPECT_TRUE(t.name.empty());
}

TEST(PupTest, UnpackDetectsTrailingBytes) {
  Simple s{1, 1.0, {}, ""};
  auto buffer = pup_pack(s);
  buffer.push_back(std::byte{0});
  Simple t;
  EXPECT_THROW(pup_unpack(t, std::move(buffer)), picprk::ContractViolation);
}

TEST(PupTest, UnpackDetectsTruncation) {
  Simple s{1, 1.0, {1, 2, 3}, "abc"};
  auto buffer = pup_pack(s);
  buffer.resize(buffer.size() - 2);
  Simple t;
  EXPECT_THROW(pup_unpack(t, std::move(buffer)), picprk::ContractViolation);
}

struct Holder {
  std::vector<Simple> items;
  void pup(Pup& p) { p(items); }
};

TEST(PupTest, VectorOfPupablesRoundTrips) {
  Holder h;
  h.items.push_back(Simple{1, 1.5, {9}, "one"});
  h.items.push_back(Simple{2, 2.5, {8, 7}, "two"});
  Holder out;
  pup_unpack(out, pup_pack(h));
  ASSERT_EQ(out.items.size(), 2u);
  EXPECT_EQ(out.items[0].name, "one");
  EXPECT_EQ(out.items[1].v, (std::vector<std::uint64_t>{8, 7}));
}

TEST(PupTest, EmptyVectorOfPupables) {
  Holder h;
  Holder out;
  out.items.push_back(Simple{});
  pup_unpack(out, pup_pack(h));
  EXPECT_TRUE(out.items.empty());
}

}  // namespace
