#pragma once

#include <vector>

namespace fixture {

using Callback = int (*)(int);

class Registry {
 public:
  Registry();
  ~Registry();
  void add(Callback cb);
  int fire(int x) const;

 private:
  /// Named only by the member declaration below: Registry's
  /// constructor builds it, so its constructors count as reached.
  struct Slot {
    int fired = 0;
    Slot() = default;
    Slot(const Slot& other) : fired(other.fired) {}
  };
  std::vector<Callback> callbacks_;
  Slot slot_;
};

int on_tick(int x);
void note(int x);

/// Header code is in scope: an inline helper counts once main() calls it.
inline int twice(int x) { return 2 * x; }

/// Reached only by the namespace-scope static_assert below, which the
/// compiler evaluates wherever this header is included.
constexpr int callback_bytes() { return static_cast<int>(sizeof(Callback)); }
static_assert(callback_bytes() > 0, "callbacks have a size");

}  // namespace fixture
