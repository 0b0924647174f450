// The SoA particle store: the X-macro single-definition contract
// (columns, pack/unpack and PUP all derive from PICPRK_PARTICLE_FIELDS),
// the row-mutation primitives the exchange and tiling layers build on,
// and the wire-format PUP staging.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "pic/init.hpp"
#include "pic/particle.hpp"
#include "vpr/pup.hpp"

namespace {

using namespace picprk;
using pic::Particle;
using pic::ParticleSoA;

Particle make_particle(std::uint64_t id) {
  Particle p;
  p.x = 0.25 * static_cast<double>(id);
  p.y = 0.50 * static_cast<double>(id);
  p.vx = 1.0 + static_cast<double>(id);
  p.vy = 2.0 + static_cast<double>(id);
  p.q = static_cast<double>(id % 2 == 0 ? 3 : -3);
  p.x0 = p.x;
  p.y0 = p.y;
  p.k = static_cast<std::int32_t>(id % 4);
  p.m = static_cast<std::int32_t>(id % 3);
  p.dir = id % 2 == 0 ? 1 : -1;
  p.birth = static_cast<std::uint32_t>(id % 7);
  p.id = id;
  return p;
}

std::vector<Particle> make_particles(std::size_t n) {
  std::vector<Particle> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(make_particle(i + 1));
  return out;
}

void expect_equal(const Particle& a, const Particle& b) {
#define PICPRK_FIELD(type, name, init) EXPECT_EQ(a.name, b.name) << #name;
  PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
}

TEST(ParticleSoA, WireRecordIs80BytesWithNoPadding) {
  // The exchange and VP-migration buffers assume this layout; the
  // X-macro completeness static_asserts in particle.hpp enforce it at
  // compile time — this test just pins the numbers visibly.
  EXPECT_EQ(sizeof(Particle), 80u);
  EXPECT_TRUE(std::is_trivially_copyable_v<Particle>);
}

TEST(ParticleSoA, RoundTripsEveryFieldThroughBothLayouts) {
  const std::vector<Particle> aos = make_particles(37);
  const ParticleSoA soa = pic::to_soa(aos);
  ASSERT_EQ(soa.size(), aos.size());
  // Columns hold the per-field values in row order.
  for (std::size_t i = 0; i < aos.size(); ++i) {
    EXPECT_EQ(soa.x[i], aos[i].x);
    EXPECT_EQ(soa.id[i], aos[i].id);
    expect_equal(soa.get(i), aos[i]);
  }
  const std::vector<Particle> back = pic::to_aos(soa);
  ASSERT_EQ(back.size(), aos.size());
  for (std::size_t i = 0; i < aos.size(); ++i) expect_equal(back[i], aos[i]);
}

TEST(ParticleSoA, SetOverwritesOneRow) {
  ParticleSoA soa = pic::to_soa(make_particles(5));
  const Particle p = make_particle(99);
  soa.set(2, p);
  expect_equal(soa.get(2), p);
  expect_equal(soa.get(1), make_particle(2));  // neighbours untouched
  expect_equal(soa.get(3), make_particle(4));
}

TEST(ParticleSoA, SwapRemoveKeepsAllColumnsInLockstep) {
  ParticleSoA soa = pic::to_soa(make_particles(6));
  soa.swap_remove(1);  // row 6 moves into slot 1
  ASSERT_EQ(soa.size(), 5u);
  expect_equal(soa.get(1), make_particle(6));
  expect_equal(soa.get(0), make_particle(1));
  expect_equal(soa.get(4), make_particle(5));
}

TEST(ParticleSoA, MoveRowAndTruncateImplementStableCompaction) {
  // Drop the even ids the way the exchange compacts its untiled tail:
  // stable keeper compaction via move_rows + truncate.
  ParticleSoA soa = pic::to_soa(make_particles(10));
  std::size_t w = 0;
  for (std::size_t i = 0; i < soa.size(); ++i) {
    if (soa.id[i] % 2 == 0) continue;
    soa.move_rows(w, i, 1);
    ++w;
  }
  soa.truncate(w);
  ASSERT_EQ(soa.size(), 5u);
  for (std::size_t i = 0; i < soa.size(); ++i) {
    expect_equal(soa.get(i), make_particle(2 * i + 1));  // order preserved
  }
}

TEST(ParticleSoA, AppendAndAssignRebuildFromWireRecords) {
  ParticleSoA soa = pic::to_soa(make_particles(3));
  const std::vector<Particle> extra = {make_particle(50), make_particle(51)};
  soa.append(std::span<const Particle>(extra));
  ASSERT_EQ(soa.size(), 5u);
  expect_equal(soa.get(3), make_particle(50));

  const std::vector<Particle> fresh = make_particles(2);
  soa.assign(std::span<const Particle>(fresh));
  ASSERT_EQ(soa.size(), 2u);
  expect_equal(soa.get(0), make_particle(1));
  expect_equal(soa.get(1), make_particle(2));
}

TEST(ParticleSoA, ReserveRaisesCapacityOfEveryColumn) {
  ParticleSoA soa;
  soa.reserve(128);
  EXPECT_GE(soa.capacity(), 128u);
  EXPECT_GE(soa.vy.capacity(), 128u);
  EXPECT_GE(soa.id.capacity(), 128u);
  EXPECT_TRUE(soa.empty());
}

TEST(ParticleSoA, PupRoundTripsThroughTheAosWireFormat) {
  ParticleSoA original = pic::to_soa(make_particles(21));
  std::vector<std::byte> packed = vpr::pup_pack(original);
  // The payload is the same length-prefixed run of 80-byte records a
  // plain std::vector<Particle> pup produces — layout cannot leak into
  // the migration wire format.
  std::vector<Particle> wire = pic::to_aos(original);
  vpr::Pup sizer(vpr::Pup::Mode::Size);
  sizer(wire);
  EXPECT_EQ(packed.size(), sizer.bytes());

  ParticleSoA restored;
  vpr::pup_unpack(restored, std::move(packed));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    expect_equal(restored.get(i), original.get(i));
  }
}

TEST(ParticleSoA, PupOfEmptyStoreIsJustTheLengthPrefix) {
  ParticleSoA empty;
  std::vector<std::byte> packed = vpr::pup_pack(empty);
  EXPECT_EQ(packed.size(), sizeof(std::uint64_t));
  ParticleSoA restored = pic::to_soa(make_particles(4));
  vpr::pup_unpack(restored, std::move(packed));
  EXPECT_TRUE(restored.empty());
}

}  // namespace
