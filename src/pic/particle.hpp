// The particle record of the PIC PRK. Like the official PRK reference
// code, each particle carries its initial condition and motion parameters
// so that the closed-form verification (paper Eqs. 5–6) is O(1) per
// particle at the end of the run.
//
// Two layouts share ONE field list (the PICPRK_PARTICLE_FIELDS X-macro):
//
//  * Particle — the AoS wire record. Trivially copyable; it is what
//    travels between ranks during particle exchange and VP migration
//    (comm::alltoallv flat buffers, DriverSnapshot, PUP payloads).
//  * ParticleSoA — the structure-of-arrays compute store. The movers,
//    the tiled gather/deposit and the drivers operate on its columns;
//    records are packed to/from the AoS form only at communication
//    boundaries.
//
// Adding a field means editing the X-macro once: struct member, SoA
// column, pack/unpack and PUP all derive from it, and the static_assert
// below fails the build if the list and the struct ever disagree.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace picprk::pic {

// One row per particle attribute: X(type, name, initial value).
//  x, y    position, in [0, L)
//  vx, vy  velocity
//  q       signed charge, ±(2k+1)·q_base (Eq. 3)
//  x0, y0  position at birth (for verification)
//  k       charge multiple: horizontal speed = (2k+1) cells/step
//  m       initial vy = m·h/dt: vertical speed = m cells/step
//  dir     sign of the initial x-acceleration (±1)
//  birth   time step at which the particle entered
//  id      unique id, 1..n for the initial population
#define PICPRK_PARTICLE_FIELDS(X) \
  X(double, x, 0.0)               \
  X(double, y, 0.0)               \
  X(double, vx, 0.0)              \
  X(double, vy, 0.0)              \
  X(double, q, 0.0)               \
  X(double, x0, 0.0)              \
  X(double, y0, 0.0)              \
  X(std::int32_t, k, 0)           \
  X(std::int32_t, m, 0)           \
  X(std::int32_t, dir, 1)         \
  X(std::uint32_t, birth, 0)      \
  X(std::uint64_t, id, 0)

struct Particle {
#define PICPRK_FIELD(type, name, init) type name = init;
  PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
};

static_assert(sizeof(Particle) == 80, "particle exchange buffers assume 80-byte records");

namespace detail {
/// Sum of the field sizes in the X-macro list. Equal to sizeof(Particle)
/// exactly when the list names every member and the struct has no
/// padding — the completeness check for the single-definition contract.
constexpr std::size_t particle_field_bytes() {
  std::size_t total = 0;
#define PICPRK_FIELD(type, name, init) total += sizeof(type);
  PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  return total;
}
}  // namespace detail

static_assert(detail::particle_field_bytes() == sizeof(Particle),
              "PICPRK_PARTICLE_FIELDS is out of sync with struct Particle");

/// Structure-of-arrays particle store: the production layout of the
/// movers and drivers. Columns are generated from the same X-macro as
/// the AoS record, so push_back/get/pup cannot drift from the struct.
/// Element order is significant (tiling sorts by cell); mutating
/// operations keep all twelve columns in lockstep.
struct ParticleSoA {
  // The columns ARE serialized — pup() stages them through the AoS wire
  // form — but the textual pup lint cannot see through to_vector() /
  // assign(), so the declaration carries its opt-out tag.
#define PICPRK_FIELD(type, name, init) std::vector<type> name;  // pup:transient (wire-staged)
  PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD

  std::size_t size() const { return x.size(); }
  bool empty() const { return x.empty(); }
  std::size_t capacity() const { return x.capacity(); }

  void reserve(std::size_t n) {
#define PICPRK_FIELD(type, name, init) name.reserve(n);
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  void resize(std::size_t n) {
#define PICPRK_FIELD(type, name, init) name.resize(n);
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  void clear() {
#define PICPRK_FIELD(type, name, init) name.clear();
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// Unpacks one wire record onto the end of every column.
  void push_back(const Particle& p) {
#define PICPRK_FIELD(type, name, init) name.push_back(p.name);
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// Packs row `i` into a wire record.
  Particle get(std::size_t i) const {
    Particle p;
#define PICPRK_FIELD(type, name, init) p.name = name[i];
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
    return p;
  }

  /// Overwrites row `i` from a wire record.
  void set(std::size_t i, const Particle& p) {
#define PICPRK_FIELD(type, name, init) name[i] = p.name;
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// O(1) unordered removal: moves the last row into slot `i` and pops.
  /// Invalidates any tile index over the store (order changes).
  void swap_remove(std::size_t i) {
    const std::size_t last = size() - 1;
#define PICPRK_FIELD(type, name, init) name[i] = name[last];
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
#define PICPRK_FIELD(type, name, init) name.pop_back();
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// Drops rows [n, size()) — the tail half of a compaction.
  void truncate(std::size_t n) {
#define PICPRK_FIELD(type, name, init) name.resize(n);
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// Stable compaction: moves rows [from, from + count) into
  /// [to, to + count), column by column (to <= from; the ranges may
  /// overlap).
  void move_rows(std::size_t to, std::size_t from, std::size_t count) {
    if (to == from || count == 0) return;
#define PICPRK_FIELD(type, name, init) \
  std::copy(name.data() + from, name.data() + from + count, name.data() + to);
    PICPRK_PARTICLE_FIELDS(PICPRK_FIELD)
#undef PICPRK_FIELD
  }

  /// Appends a block of wire records (exchange/migration unpack side).
  void append(std::span<const Particle> records) {
    reserve(size() + records.size());
    for (const Particle& p : records) push_back(p);
  }

  /// Rebuilds the store from wire records (checkpoint restore).
  void assign(std::span<const Particle> records) {
    clear();
    append(records);
  }

  /// Packs the whole store into wire records (checkpoint/verify side).
  std::vector<Particle> to_vector() const {
    std::vector<Particle> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) out.push_back(get(i));
    return out;
  }

  /// PUP through the AoS wire form: the migration payload is the same
  /// length-prefixed run of 80-byte records regardless of layout, so a
  /// VP can be packed from either store. Templated so pic does not
  /// depend on vpr; any pupper with the vpr::Pup interface works.
  template <typename P>
  void pup(P& p) {
    std::vector<Particle> wire;
    if (!p.unpacking()) wire = to_vector();
    p(wire);
    if (p.unpacking()) assign(wire);
  }
};

/// Converts between layouts at non-hot boundaries (events, checkpoints,
/// verification, benches). Banned inside PICPRK_HOT bodies by the
/// picprk-lint `soa` rule.
inline ParticleSoA to_soa(const std::vector<Particle>& aos) {
  ParticleSoA soa;
  soa.append(std::span<const Particle>(aos));
  return soa;
}

inline std::vector<Particle> to_aos(const ParticleSoA& soa) { return soa.to_vector(); }

}  // namespace picprk::pic
