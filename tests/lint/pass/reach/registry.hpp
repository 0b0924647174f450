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
  std::vector<Callback> callbacks_;
};

int on_tick(int x);
void note(int x);

/// Inline: a header may carry it unused, so it is never reported.
inline int twice(int x) { return 2 * x; }
inline int unused_inline(int x) { return x; }

}  // namespace fixture
