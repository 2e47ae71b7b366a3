#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/table.h"

namespace inverda {
namespace {

TableSchema TwoCol() {
  return TableSchema("t", {{"a", DataType::kInt64}, {"b", DataType::kString}});
}

TEST(TableTest, InsertFindUpdateErase) {
  Table t(TwoCol());
  ASSERT_TRUE(t.Insert(1, {Value::Int(10), Value::String("x")}).ok());
  EXPECT_FALSE(t.Insert(1, {Value::Int(11), Value::String("y")}).ok());
  ASSERT_NE(t.Find(1), nullptr);
  EXPECT_EQ((*t.Find(1))[0], Value::Int(10));
  ASSERT_TRUE(t.Update(1, {Value::Int(20), Value::String("z")}).ok());
  EXPECT_EQ((*t.Find(1))[0], Value::Int(20));
  EXPECT_FALSE(t.Update(2, {Value::Int(0), Value::String("")}).ok());
  EXPECT_TRUE(t.Erase(1));
  EXPECT_FALSE(t.Erase(1));
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, RejectsWrongWidth) {
  Table t(TwoCol());
  EXPECT_FALSE(t.Insert(1, {Value::Int(10)}).ok());
  EXPECT_FALSE(t.Upsert(1, {Value::Int(1), Value::Int(2), Value::Int(3)}).ok());
}

TEST(TableTest, ScanIsKeyOrdered) {
  Table t(TwoCol());
  ASSERT_TRUE(t.Upsert(3, {Value::Int(3), Value::String("c")}).ok());
  ASSERT_TRUE(t.Upsert(1, {Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(t.Upsert(2, {Value::Int(2), Value::String("b")}).ok());
  std::vector<int64_t> keys;
  t.Scan([&](int64_t k, const Row&) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3}));

  // Descending inserts take the index's sorted-insert path on every key;
  // an erase from the middle must leave the rest in order.
  for (int64_t k = 100; k > 3; --k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k), Value::String("x")}).ok());
  }
  ASSERT_TRUE(t.Erase(50));
  std::vector<int64_t> expected;
  for (int64_t k = 1; k <= 100; ++k) {
    if (k != 50) expected.push_back(k);
  }
  keys.clear();
  t.Scan([&](int64_t k, const Row& row) {
    EXPECT_EQ(row[0], Value::Int(k));
    keys.push_back(k);
  });
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(t.Keys(), expected);
  std::vector<KeyedRow> rows = t.Rows();
  ASSERT_EQ(rows.size(), expected.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].key, expected[i]);
    EXPECT_EQ(rows[i].row[0], Value::Int(expected[i]));
  }
  EXPECT_EQ(t.size(), 99);
}

TEST(TableTest, ContentEquals) {
  Table a(TwoCol()), b(TwoCol());
  ASSERT_TRUE(a.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(b.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  ASSERT_TRUE(b.Upsert(1, {Value::Int(2), Value::String("x")}).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

// Copies and moves are the compiler-generated members: each result keeps
// the rows and the ascending key index, and a copy is independent of its
// original.
TEST(TableTest, CopyAndMoveKeepRowsAndKeyOrder) {
  Table original(TwoCol());
  for (int64_t k : {5, 2, 9, 1, 7}) {
    ASSERT_TRUE(original.Insert(k, {Value::Int(k), Value::String("v")}).ok());
  }
  ASSERT_TRUE(original.Erase(9));
  auto expect_rows = [](const Table& t, const std::vector<int64_t>& keys,
                        const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(t.schema().name(), "t");
    EXPECT_EQ(t.Keys(), keys);
    std::vector<KeyedRow> rows = t.Rows();
    ASSERT_EQ(rows.size(), keys.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].key, keys[i]);
      EXPECT_EQ(rows[i].row[0], Value::Int(keys[i]));
    }
  };
  const std::vector<int64_t> keys{1, 2, 5, 7};
  const TableSchema other("other", {{"x", DataType::kInt64}});

  Table copied(original);
  expect_rows(copied, keys, "copy-constructed");
  Table assigned(other);
  assigned = original;
  expect_rows(assigned, keys, "copy-assigned");

  // Writes to the copies leave the original's rows and key order alone.
  ASSERT_TRUE(copied.Insert(3, {Value::Int(3), Value::String("c")}).ok());
  ASSERT_TRUE(copied.Update(5, {Value::Int(5), Value::String("c")}).ok());
  ASSERT_TRUE(assigned.Erase(2));
  expect_rows(copied, {1, 2, 3, 5, 7}, "copy after writes");
  expect_rows(assigned, {1, 5, 7}, "assigned copy after writes");
  expect_rows(original, keys, "original after writes to its copies");
  EXPECT_EQ((*original.Find(5))[1], Value::String("v"));

  Table moved(std::move(copied));
  expect_rows(moved, {1, 2, 3, 5, 7}, "move-constructed");
  Table move_assigned(other);
  move_assigned = std::move(moved);
  expect_rows(move_assigned, {1, 2, 3, 5, 7}, "move-assigned");
  ASSERT_TRUE(move_assigned.Insert(4, {Value::Int(4), Value::String("m")}).ok());
  expect_rows(move_assigned, {1, 2, 3, 4, 5, 7}, "moved table after insert");
}

TEST(DatabaseTest, CreateDropRename) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.CreateTable(TwoCol()).ok());
  ASSERT_TRUE(db.RenameTable("t", "u").ok());
  EXPECT_FALSE(db.HasTable("t"));
  ASSERT_TRUE(db.GetTable("u").ok());
  EXPECT_EQ((*db.GetTable("u"))->schema().name(), "u");
  ASSERT_TRUE(db.DropTable("u").ok());
  EXPECT_FALSE(db.DropTable("u").ok());
}

TEST(SequenceTest, MonotonicAndBumpable) {
  Sequence s(10);
  EXPECT_EQ(s.Next(), 10);
  EXPECT_EQ(s.Next(), 11);
  s.BumpPast(100);
  EXPECT_EQ(s.Next(), 101);
  s.BumpPast(5);  // no-op
  EXPECT_EQ(s.Next(), 102);
}

TEST(SequenceTest, ConcurrentDrawsAreUniqueAndDense) {
  Sequence s(1);
  constexpr int kThreads = 4;
  constexpr int kDraws = 500;
  std::vector<std::vector<int64_t>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, &drawn, t] {
      for (int i = 0; i < kDraws; ++i) drawn[t].push_back(s.Next());
    });
  }
  for (std::thread& t : threads) t.join();
  std::set<int64_t> unique;
  for (const std::vector<int64_t>& ids : drawn) {
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    unique.insert(ids.begin(), ids.end());
  }
  // Unique and dense: the union is exactly [1, 2001).
  std::set<int64_t> expected;
  for (int64_t id = 1; id <= kThreads * kDraws; ++id) expected.insert(id);
  EXPECT_EQ(unique, expected);
  EXPECT_EQ(s.Peek(), kThreads * kDraws + 1);
}

}  // namespace
}  // namespace inverda
