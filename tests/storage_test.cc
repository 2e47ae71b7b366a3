#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "storage/database.h"
#include "storage/table.h"
#include "util/shard.h"

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
}

TEST(TableTest, ContentEquals) {
  Table a(TwoCol()), b(TwoCol());
  ASSERT_TRUE(a.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(b.Upsert(1, {Value::Int(1), Value::String("x")}).ok());
  EXPECT_TRUE(a.ContentEquals(b));
  ASSERT_TRUE(b.Upsert(1, {Value::Int(2), Value::String("x")}).ok());
  EXPECT_FALSE(a.ContentEquals(b));
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

TEST(TableTest, ShardRoutingPartitionsEveryRow) {
  Table t(TwoCol(), 4);
  EXPECT_EQ(t.shard_count(), 4);
  for (int64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k), Value::String("r")}).ok());
  }
  int64_t total = 0;
  for (int s = 0; s < t.shard_count(); ++s) {
    for (const auto& [key, row] : t.ShardItems(s)) {
      (void)row;
      EXPECT_EQ(t.ShardOfKey(key), s);
    }
    // Fibonacci hashing spreads dense keys: no shard may hog everything.
    EXPECT_LT(t.shard_size(s), 150);
    total += t.shard_size(s);
  }
  EXPECT_EQ(total, t.size());
}

TEST(TableTest, ShardItemsAreKeyOrderedPerShard) {
  Table t(TwoCol(), 8);
  for (int64_t k = 100; k > 0; --k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k), Value::String("x")}).ok());
  }
  for (int s = 0; s < t.shard_count(); ++s) {
    std::vector<std::pair<int64_t, const Row*>> items = t.ShardItems(s);
    EXPECT_TRUE(std::is_sorted(
        items.begin(), items.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
  }
  // The whole-table scan stays globally key-ordered at any shard count.
  std::vector<int64_t> keys;
  t.Scan([&](int64_t k, const Row&) { keys.push_back(k); });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.size(), 100u);
}

TEST(TableTest, ReshardMovesRowsWithoutChangingContent) {
  Table t(TwoCol(), 1);
  for (int64_t k = 0; k < 64; ++k) {
    ASSERT_TRUE(t.Insert(k, {Value::Int(k * 2), Value::String("y")}).ok());
  }
  Table reference = t;
  for (int shards : {4, kMaxShards, 2, 1}) {
    t.Reshard(shards);
    EXPECT_EQ(t.shard_count(), shards);
    EXPECT_EQ(t.size(), 64);
    EXPECT_TRUE(t.ContentEquals(reference));
    ASSERT_NE(t.Find(33), nullptr);
    EXPECT_EQ((*t.Find(33))[0], Value::Int(66));
  }
}

TEST(TableTest, ContentEqualsIsShardCountAgnostic) {
  Table a(TwoCol(), 1), b(TwoCol(), 16);
  for (int64_t k = 0; k < 40; ++k) {
    Row row = {Value::Int(k), Value::String("s")};
    ASSERT_TRUE(a.Upsert(k, row).ok());
    ASSERT_TRUE(b.Upsert(k, std::move(row)).ok());
  }
  EXPECT_TRUE(a.ContentEquals(b));
  EXPECT_TRUE(b.ContentEquals(a));
  ASSERT_TRUE(b.Upsert(7, {Value::Int(-1), Value::String("s")}).ok());
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(DatabaseTest, ReshardAppliesToEveryTableAndNewOnes) {
  Database db(4);
  EXPECT_EQ(db.shards(), 4);
  ASSERT_TRUE(db.CreateTable(TwoCol()).ok());
  EXPECT_EQ((*db.GetTable("t"))->shard_count(), 4);
  db.Reshard(2);
  EXPECT_EQ(db.shards(), 2);
  EXPECT_EQ((*db.GetTable("t"))->shard_count(), 2);
  ASSERT_TRUE(db.CreateTable(TableSchema(
      "u", {{"a", DataType::kInt64}})).ok());
  EXPECT_EQ((*db.GetTable("u"))->shard_count(), 2);
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

TEST(SequenceTest, StripedDrawsStayGloballyUnique) {
  Sequence s(1);
  s.EnableStriping(/*stripes=*/4, /*chunk=*/16);
  ASSERT_TRUE(s.striped());
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
    // Per-stripe monotonic: one thread always maps to one stripe.
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    unique.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kDraws));
  // Peek is a floor no later draw dips under, never an exact next id.
  EXPECT_GT(s.Peek(), *unique.rbegin() - 16);
}

TEST(SequenceTest, BumpPastInvalidatesReservedChunks) {
  Sequence s(1);
  s.EnableStriping(/*stripes=*/2, /*chunk=*/32);
  int64_t first = s.Next();  // reserves a chunk on this thread's stripe
  s.BumpPast(1000);
  int64_t after = s.Next();  // the stale chunk remainder must be discarded
  EXPECT_GT(after, 1000);
  EXPECT_GT(after, first);
}

TEST(SequenceTest, StripingOffIsDenseAndMonotonic) {
  Sequence s(5);
  s.EnableStriping(4, 16);
  s.EnableStriping(0, 0);  // turn it back off
  EXPECT_FALSE(s.striped());
  EXPECT_EQ(s.Next(), 5);
  EXPECT_EQ(s.Next(), 6);
  EXPECT_EQ(s.Peek(), 7);
}

}  // namespace
}  // namespace inverda
