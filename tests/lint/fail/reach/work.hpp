#pragma once

namespace fixture {

int used(int x);
int orphan(int x);
int chained(int x);

/// Header code is in scope: an inline function nothing calls is
/// unreached like any other.
inline int unused_inline(int x) { return x * 3; }

}  // namespace fixture
