#include "work.hpp"

namespace fixture {

int used(int x) { return x + 1; }

int orphan(int x) { return chained(x) * 2; }

int chained(int x) { return x - 1; }

}  // namespace fixture
