// Fixture: a function no main() reaches must fail. `orphan` is defined
// and compiled but nothing on the program's path calls it; `chained` is
// called, but only by `orphan`, so it is unreached too; `unused_inline`
// lives in the header, which the rule covers as well.
#include "work.hpp"

int main() { return fixture::used(2); }
