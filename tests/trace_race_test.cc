// Race test for the tracer: flipping tracing on and off, draining the
// ring buffer, clearing it and resetting the metrics registry — all while
// client threads read and write through the access layer — must be clean
// under TSan (run via scripts/check.sh --tsan) and never yield a torn
// trace. Toggling mid-operation may publish a partial trace; every
// published trace must still be a well-formed span tree.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"

namespace inverda {
namespace {

TEST(TraceRaceTest, TogglesWhileClientsReadAndWrite) {
  if (!obs::kObsBuild) GTEST_SKIP() << "no-obs build: tracing compiled out";
  const uint64_t seed = TestSeed(11);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION S0 WITH "
                         "CREATE TABLE tab(k0 INT, v0 TEXT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION S1 FROM S0 WITH "
                         "ADD COLUMN c1 INT AS k0 + 1 INTO tab;")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION S2 FROM S1 WITH "
                         "ADD COLUMN c2 INT AS k0 + 2 INTO tab;")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Insert("S0", "tab", {Value::Int(i), Value::String("r")}).ok());
  }
  db.tracer().set_capacity(8);

  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  std::atomic<int> running{kThreads};
  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kThreads);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Random rng(seed + 0x9e3779b97f4a7c15ULL * (t + 1));
      const char* versions[] = {"S0", "S1", "S2"};
      for (int i = 0; i < kIters; ++i) {
        const std::string version = versions[t % 3];
        Result<std::vector<KeyedRow>> rows = db.Select(version, "tab");
        if (!rows.ok()) {
          errors[t] = rows.status().ToString();
          failed.store(true);
          break;
        }
        if (rng.NextUint64(8) == 0) {
          Row row{Value::Int(rng.NextInt64(0, 999)), Value::String("w")};
          if (version == "S1") row.push_back(Value::Int(0));
          if (version == "S2") {
            row.push_back(Value::Int(0));
            row.push_back(Value::Int(0));
          }
          (void)db.Insert(version, "tab", std::move(row));
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // The toggler keeps flipping tracing, draining the ring and resetting
  // the registry under the clients' feet.
  int64_t drained = 0;
  std::thread toggler([&] {
    bool on = false;
    int round = 0;
    while (running.load(std::memory_order_acquire) > 0) {
      on = !on;
      db.tracer().set_enabled(on);
      std::vector<std::shared_ptr<const obs::TraceSpan>> traces =
          db.tracer().Last(8);
      for (const auto& trace : traces) {
        // Published traces are immutable snapshots: a well-formed tree
        // with a sane span count, even when a toggle truncated it.
        if (trace->TotalSpans() < 1 || trace->name.empty()) {
          failed.store(true);
          return;
        }
        ++drained;
      }
      if (++round % 8 == 0) db.tracer().Clear();
      if (round % 16 == 0) db.ResetMetrics();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  toggler.join();

  for (const std::string& e : errors) EXPECT_TRUE(e.empty()) << e;
  EXPECT_FALSE(failed.load());
  // The tracer's bookkeeping is still coherent after the storm. (`drained`
  // may revisit a trace across rounds, so it only bounds below by zero.)
  EXPECT_GE(drained, 0);
  EXPECT_GE(db.tracer().completed(), 0);
  EXPECT_LE(db.tracer().Last(100).size(), db.tracer().capacity());
  db.tracer().set_enabled(true);
  ASSERT_TRUE(db.Select("S2", "tab").ok());
  EXPECT_FALSE(db.tracer().Last(1).empty());
}

}  // namespace
}  // namespace inverda
