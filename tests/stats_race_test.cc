// Regression test for stat-counter races: the plan-cache, compiler and
// access-profile counters are atomics, so hammering reads, writes,
// registry snapshots and registry resets from several threads at once
// must be clean under TSan and never produce a torn or negative value.
// Run via scripts/check.sh --tsan.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"

namespace inverda {
namespace {

TEST(StatsRaceTest, CountersSurviveConcurrentHammering) {
  const uint64_t seed = TestSeed(7);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION S0 WITH "
                         "CREATE TABLE tab(k0 INT, v0 TEXT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION S1 FROM S0 WITH "
                         "ADD COLUMN c1 INT AS k0 + 1 INTO tab;")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Insert("S0", "tab", {Value::Int(i), Value::String("r")}).ok());
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::atomic<int> running{kThreads};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kThreads);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(seed + 0x9e3779b97f4a7c15ULL * (t + 1));
      const std::string version = (t % 2 == 0) ? "S0" : "S1";
      for (int i = 0; i < kIters; ++i) {
        Result<std::vector<KeyedRow>> rows = db.Select(version, "tab");
        if (!rows.ok()) {
          errors[t] = rows.status().ToString();
          failed.store(true);
          break;
        }
        if (rng.NextUint64(8) == 0) {
          Row row{Value::Int(rng.NextInt64(0, 999)), Value::String("w")};
          if (version == "S1") row.push_back(Value::Int(0));
          Result<int64_t> key = db.Insert(version, "tab", std::move(row));
          if (!key.ok()) {
            errors[t] = key.status().ToString();
            failed.store(true);
            break;
          }
        }
        // The unified registry snapshot pulls every source (plan cache,
        // compiler, access profile) while they are being updated and reset.
        obs::MetricsSnapshot snap = db.Metrics().Snapshot();
        for (const obs::MetricValue& c : snap.counters) {
          if (c.value < 0) {
            errors[t] = "negative registry counter " + c.name;
            failed.store(true);
            break;
          }
        }
        if (failed.load()) break;
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // A dedicated thread keeps resetting the stats under the readers' feet
  // through the single reset point (which invokes every component's
  // registered reset hook).
  std::thread resetter([&] {
    while (running.load(std::memory_order_acquire) > 0) {
      db.ResetMetrics();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  resetter.join();

  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
  EXPECT_FALSE(failed.load());
  // The engine still works after the storm.
  EXPECT_TRUE(db.Select("S1", "tab").ok());
}

}  // namespace
}  // namespace inverda
