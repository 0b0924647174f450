// Unit suite for the picprk-lint `reach` rule over synthetic in-memory
// trees: which definitions count as reached from a main() (header code
// included), which are exempt (destructors, operators, files outside the
// include roots), and that the rule and its suppression audit stay
// silent when the input holds no main().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/rules.hpp"

namespace lint = picprk::lint;

namespace {

std::vector<lint::Violation> reach(
    std::vector<std::pair<std::string, std::string>> files) {
  std::vector<lint::SourceFile> sf;
  for (auto& [path, text] : files) {
    sf.push_back({std::filesystem::path(path), std::move(text), {}});
  }
  const lint::Index idx = lint::build_index(std::move(sf));
  const lint::CallGraph graph = lint::build_call_graph(idx);
  lint::RuleOptions opts;
  opts.include_roots.emplace_back("src/");
  return lint::run_rules(idx, graph, {"reach"}, opts);
}

std::vector<std::string> messages(const std::vector<lint::Violation>& vs) {
  std::vector<std::string> out;
  for (const lint::Violation& v : vs) out.push_back(v.rule + ": " + v.message);
  return out;
}

const char* const kLib = R"(
#include "lib.hpp"
#define LOG(x) log_line(x)
namespace lib {
void log_line(int) {}
void on_event(int) {}
int called() { return 1; }
void logged() { LOG(2); }
void subscribe(void (*cb)(int)) { cb(3); }
Widget::Widget() {}
Widget::~Widget() {}
int Widget::poll() { return 4; }
bool operator==(const Widget&, const Widget&) { return true; }
int orphan() { return chained(); }
int chained() { return 5; }
}  // namespace lib
)";

const char* const kLibHeader = R"(
#pragma once
namespace lib {
inline int twice(int x) { return 2 * x; }
inline int unused_inline() { return 6; }
template <typename T> T unused_template(T x) { return x; }
struct Widget {
  Widget();
  ~Widget();
  int poll();
  int unused_member() const { return 7; }
};
}  // namespace lib
)";

TEST(Reach, ReportsUnreachedDefinitionsInSourcesAndHeaders) {
  const auto vs = reach({
      {"src/lib.cpp", kLib},
      {"src/lib.hpp", kLibHeader},
      {"tools/main.cpp", R"(
#include "lib.hpp"
int main() {
  lib::Widget w;
  lib::subscribe(&lib::on_event);
  lib::logged();
  return lib::called() + w.poll() + lib::twice(1);
}
int tool_helper_nobody_calls() { return 0; }
)"}});
  ASSERT_EQ(vs.size(), 5u) << ::testing::PrintToString(messages(vs));
  EXPECT_NE(vs[0].message.find("lib::orphan"), std::string::npos);
  EXPECT_NE(vs[1].message.find("lib::chained"), std::string::npos);
  EXPECT_EQ(vs[0].rule, "reach");
  EXPECT_EQ(vs[0].file, "src/lib.cpp");
  // Inline functions, templates and in-class member definitions of a
  // header are in scope too.
  EXPECT_NE(vs[2].message.find("lib::unused_inline"), std::string::npos);
  EXPECT_NE(vs[3].message.find("lib::unused_template"), std::string::npos);
  EXPECT_NE(vs[4].message.find("lib::Widget::unused_member"), std::string::npos);
  EXPECT_EQ(vs[2].file, "src/lib.hpp");
}

TEST(Reach, NamespaceScopeStaticAssertReachesWhatItNames) {
  const auto vs = reach({
      {"src/layout.hpp", R"(
namespace lib {
constexpr int field_bytes() { return 8; }
constexpr int unused_bytes() { return 8; }
static_assert(field_bytes() == 8, "layout");
}  // namespace lib
)"},
      {"src/main.cpp", "int main() { return 0; }\n"}});
  ASSERT_EQ(vs.size(), 1u) << ::testing::PrintToString(messages(vs));
  EXPECT_NE(vs[0].message.find("lib::unused_bytes"), std::string::npos);
}

TEST(Reach, MemberDeclarationReachesNestedTypeConstructors) {
  // Pool::take is reached, so Pool's data member of type Slot is built
  // by Pool's implicit constructor: Slot's constructors are reached.
  // Idle::Part is named only by Idle, none of whose members is reached.
  const auto vs = reach({
      {"src/pool.hpp", R"(
namespace lib {
class Pool {
 public:
  int take() { return slot_.n; }
 private:
  template <typename T> struct Slot {
    T n{};
    Slot() = default;
    Slot(const Slot& other) : n(other.n) {}
  };
  Slot<int> slot_;
};
class Idle {
 public:
  int peek() const { return part_.n; }
 private:
  struct Part {
    int n = 0;
    Part(const Part& other) : n(other.n) {}
  };
  Part part_;
};
}  // namespace lib
)"},
      {"src/main.cpp", "int main() { lib::Pool p; return p.take(); }\n"}});
  ASSERT_EQ(vs.size(), 2u) << ::testing::PrintToString(messages(vs));
  EXPECT_NE(vs[0].message.find("lib::Idle::peek"), std::string::npos);
  EXPECT_NE(vs[1].message.find("lib::Idle::Part::Part"), std::string::npos);
}

TEST(Reach, ReasonedSuppressionSilencesAFinding) {
  const auto vs = reach({
      {"src/lib.cpp", R"(
int used() { return 1; }
// picprk-lint: suppress(reach: reference implementation the tests compare against)
int reference() { return 1; }
)"},
      {"src/main.cpp", "int main() { return used(); }\n"}});
  EXPECT_TRUE(vs.empty()) << ::testing::PrintToString(messages(vs));
}

TEST(Reach, StaleSuppressionIsAudited) {
  const auto vs = reach({
      {"src/lib.cpp", R"(
// picprk-lint: suppress(reach: stale, the function is called now)
int used() { return 1; }
)"},
      {"src/main.cpp", "int main() { return used(); }\n"}});
  ASSERT_EQ(vs.size(), 1u) << ::testing::PrintToString(messages(vs));
  EXPECT_EQ(vs[0].rule, "suppress");
}

TEST(Reach, InactiveWithoutAMain) {
  const auto vs = reach({{"src/lib.cpp", R"(
int nobody() { return 1; }
// picprk-lint: suppress(reach: audited only when a main() is linted)
int also_nobody() { return 2; }
)"}});
  EXPECT_TRUE(vs.empty()) << ::testing::PrintToString(messages(vs));
}

}  // namespace
