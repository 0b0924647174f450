#pragma once

namespace fixture {

int used(int x);
int orphan(int x);
int chained(int x);

}  // namespace fixture
