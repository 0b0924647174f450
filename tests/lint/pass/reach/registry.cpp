#include "registry.hpp"

namespace fixture {

Registry::Registry() { callbacks_.reserve(4); }

Registry::~Registry() = default;

void Registry::add(Callback cb) { callbacks_.push_back(cb); }

int Registry::fire(int x) const {
  int sum = 0;
  for (Callback cb : callbacks_) sum += cb(x);
  return sum;
}

int on_tick(int x) { return x + 1; }

void note(int x) { (void)x; }

// picprk-lint: suppress(reach: reference the tests compare fire() against)
int fire_reference(int x) { return x + 1; }

}  // namespace fixture
