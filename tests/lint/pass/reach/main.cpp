// Fixture: every way the reach rule counts a definition as reached, and
// the definitions it never reports. Its main() makes the rule active;
// lint.pass scopes it to this directory with --include-root.
#include "registry.hpp"

#define NOTE(x) fixture::note(x)

int main() {
  fixture::Registry registry;                 // constructor, named by its type
  registry.add(&fixture::on_tick);            // address taken, never called here
  NOTE(1);                                    // called through a macro
  return registry.fire(2) + fixture::twice(3);  // inline helper below
}
