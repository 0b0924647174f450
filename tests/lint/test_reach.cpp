// Unit suite for the picprk-lint `reach` rule over synthetic in-memory
// trees: which definitions count as reached from a main(), which are
// exempt (inline, templates, destructors, files outside the include
// roots), and that the rule and its suppression audit stay silent when
// the input holds no main().
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
inline int unused_inline() { return 6; }
template <typename T> T unused_template(T x) { return x; }
}  // namespace lib
)";

TEST(Reach, ReportsOnlyUnreachedNonInlineDefinitions) {
  const auto vs = reach({
      {"src/lib.cpp", kLib},
      {"tools/main.cpp", R"(
#include "lib.hpp"
int main() {
  lib::Widget w;
  lib::subscribe(&lib::on_event);
  lib::logged();
  return lib::called() + w.poll();
}
int tool_helper_nobody_calls() { return 0; }
)"}});
  ASSERT_EQ(vs.size(), 2u) << ::testing::PrintToString(messages(vs));
  EXPECT_NE(vs[0].message.find("lib::orphan"), std::string::npos);
  EXPECT_NE(vs[1].message.find("lib::chained"), std::string::npos);
  EXPECT_EQ(vs[0].rule, "reach");
  EXPECT_EQ(vs[0].file, "src/lib.cpp");
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
