// Unit suite for the picprk-lint v2 symbol indexer and call graph,
// built over a synthetic in-memory fixture tree: function and class
// recognition (inline, out-of-line, attributes), member variables,
// mutex and guard sites, and name-resolved call edges.
#include "lint/index.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lint = picprk::lint;

namespace {

lint::Index index_of(std::vector<std::pair<std::string, std::string>> files) {
  std::vector<lint::SourceFile> sf;
  for (auto& [path, text] : files) {
    sf.push_back({std::filesystem::path(path), std::move(text), {}});
  }
  return lint::build_index(std::move(sf));
}

const lint::FunctionDef* find_fn(const lint::Index& idx, const std::string& q) {
  for (const lint::FunctionDef& f : idx.functions) {
    if (f.qualified == q) return &f;
  }
  return nullptr;
}

TEST(Index, FreeAndMemberFunctions) {
  const lint::Index idx = index_of({{"a.hpp", R"(
#pragma once
namespace ns {
int free_fn(int x) { return x + 1; }
class Widget {
 public:
  void method() { helper(); }
 private:
  void helper() {}
  int state_ = 0;
};
}  // namespace ns
)"}});
  ASSERT_NE(find_fn(idx, "ns::free_fn"), nullptr);
  ASSERT_NE(find_fn(idx, "ns::Widget::method"), nullptr);
  ASSERT_NE(find_fn(idx, "ns::Widget::helper"), nullptr);
  ASSERT_EQ(idx.classes.size(), 1u);
  ASSERT_EQ(idx.classes[0].members.size(), 1u);
  EXPECT_EQ(idx.classes[0].members[0].name, "state_");
}

TEST(Index, OutOfLineDefinitionAndHotAttribute) {
  const lint::Index idx = index_of({{"b.cpp", R"(
#define PICPRK_HOT __attribute__((hot))
namespace ns {
struct Mover { void push(); };
PICPRK_HOT void Mover::push() {}
}  // namespace ns
)"}});
  const lint::FunctionDef* push = find_fn(idx, "ns::Mover::push");
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->class_name, "Mover");
  EXPECT_TRUE(push->is_hot);
}

TEST(Index, MemberVariableWithInitializerAndTransientComment) {
  const lint::Index idx = index_of({{"c.hpp", R"(
#pragma once
struct S {
  int counted = 0;
  double plain;
  int scratch = 0;  // pup:transient
};
)"}});
  ASSERT_EQ(idx.classes.size(), 1u);
  const lint::ClassDef& s = idx.classes[0];
  ASSERT_EQ(s.members.size(), 3u);
  const auto& comments =
      idx.files[0].comments_on_line(s.members[2].line);
  ASSERT_EQ(comments.size(), 1u);
  EXPECT_NE(comments[0]->text.find("pup:transient"), std::string::npos);
}

TEST(Index, PureVirtualPupIsNotADeclaration) {
  const lint::Index idx = index_of({{"d.hpp", R"(
#pragma once
struct Pup;
struct Iface {
  virtual void pup(Pup& p) = 0;
};
struct Holder {
  void pup(Pup& p);
  int x = 0;
};
)"}});
  ASSERT_EQ(idx.classes.size(), 2u);
  EXPECT_FALSE(idx.classes[0].declares_pup);
  EXPECT_TRUE(idx.classes[1].declares_pup);
}

TEST(Index, MutexAndGuardSites) {
  const lint::Index idx = index_of({{"e.hpp", R"(
#pragma once
struct Mutex {};
struct LockGuard { explicit LockGuard(Mutex& m); };
class Box {
 public:
  void touch() {
    LockGuard lock(mutex_);
  }
 private:
  Mutex mutex_;
  int held_ = 0;
};
)"}});
  bool found = false;
  for (const lint::MutexDecl& m : idx.mutexes) {
    if (m.class_name == "Box" && m.member == "mutex_") found = true;
  }
  EXPECT_TRUE(found);
  const lint::FunctionDef* touch = find_fn(idx, "Box::touch");
  ASSERT_NE(touch, nullptr);
  ASSERT_EQ(touch->guards.size(), 1u);
  EXPECT_EQ(touch->guards[0].arg, "mutex_");
}

TEST(CallGraph, ResolvesAcrossFilesBySimpleName) {
  const lint::Index idx = index_of({
      {"f.hpp", R"(
#pragma once
namespace ns { void leaf(); }
)"},
      {"g.cpp", R"(
#include "f.hpp"
namespace ns {
void leaf() {}
void mid() { leaf(); }
void root() { mid(); }
}  // namespace ns
)"}});
  const lint::CallGraph g = lint::build_call_graph(idx);
  const lint::FunctionDef* root = find_fn(idx, "ns::root");
  const lint::FunctionDef* mid = find_fn(idx, "ns::mid");
  const lint::FunctionDef* leaf = find_fn(idx, "ns::leaf");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(leaf, nullptr);
  const std::size_t root_i = static_cast<std::size_t>(root - idx.functions.data());
  const std::size_t mid_i = static_cast<std::size_t>(mid - idx.functions.data());
  const std::size_t leaf_i = static_cast<std::size_t>(leaf - idx.functions.data());
  auto has_edge = [&g](std::size_t a, std::size_t b) {
    for (std::size_t c : g.callees[a]) {
      if (c == b) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge(root_i, mid_i));
  EXPECT_TRUE(has_edge(mid_i, leaf_i));
  EXPECT_FALSE(has_edge(leaf_i, root_i));
}

TEST(CallGraph, AmbiguousStdMethodNamesAreNotResolved) {
  const lint::Index idx = index_of({{"h.hpp", R"(
#pragma once
struct Store {
  void insert() { impure_(); }
  void impure_() {}
};
struct User {
  void go() { list_.insert(); named_step(); }
  Store list_;
  void named_step() {}
};
)"}});
  EXPECT_TRUE(lint::ambiguous_std_method("insert"));
  EXPECT_FALSE(lint::ambiguous_std_method("named_step"));
  const lint::CallGraph g = lint::build_call_graph(idx);
  const lint::FunctionDef* go = find_fn(idx, "User::go");
  const lint::FunctionDef* ins = find_fn(idx, "Store::insert");
  ASSERT_NE(go, nullptr);
  ASSERT_NE(ins, nullptr);
  const std::size_t go_i = static_cast<std::size_t>(go - idx.functions.data());
  const std::size_t ins_i = static_cast<std::size_t>(ins - idx.functions.data());
  for (std::size_t c : g.callees[go_i]) {
    EXPECT_NE(c, ins_i) << "member .insert() must not resolve to Store::insert";
  }
}

TEST(Index, HeldOnEntryFromAnnotationMacros) {
  const lint::Index idx = index_of({{"i.hpp", R"(
#pragma once
#define PICPRK_REQUIRES(...) __attribute__((requires_capability(__VA_ARGS__)))
struct Mutex {};
class Pool {
 public:
  void drain_locked() PICPRK_REQUIRES(mutex_) { count_ = 0; }
 private:
  Mutex mutex_;
  int count_ = 0;
};
)"}});
  const lint::FunctionDef* fn = find_fn(idx, "Pool::drain_locked");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->held_on_entry.size(), 1u);
  EXPECT_EQ(fn->held_on_entry[0], "mutex_");
}

TEST(Index, OutOfLineNestedClassBody) {
  const lint::Index idx = index_of({{"j.cpp", R"(
namespace ns {
struct Runtime::Pool {
  void worker_loop() { step(); }
  int width = 0;
};
}  // namespace ns
)"}});
  ASSERT_EQ(idx.classes.size(), 1u);
  EXPECT_EQ(idx.classes[0].name, "Pool");
  EXPECT_EQ(idx.classes[0].qualified, "ns::Runtime::Pool");
  const lint::FunctionDef* loop = find_fn(idx, "ns::Runtime::Pool::worker_loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->class_name, "Pool");
  ASSERT_EQ(loop->calls.size(), 1u);
  EXPECT_EQ(loop->calls[0].name, "step");
}

TEST(Index, ConstructorWithInitializerList) {
  const lint::Index idx = index_of({{"l.cpp", R"(
namespace ns {
Map::Map(const Grid& grid, int ranks)
    : cells_(grid.cells), owners_(size(grid), 0), ranks_(ranks) {
  fill();
}
}  // namespace ns
)"}});
  ASSERT_EQ(idx.functions.size(), 1u);
  const lint::FunctionDef* ctor = find_fn(idx, "ns::Map::Map");
  ASSERT_NE(ctor, nullptr);
  EXPECT_EQ(ctor->class_name, "Map");
  ASSERT_EQ(ctor->calls.size(), 1u);
  EXPECT_EQ(ctor->calls[0].name, "fill");
}

}  // namespace
