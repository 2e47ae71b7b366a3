// Randomized concurrency stress: client threads pinned to different schema
// versions run mixed read/write workloads while a DBA thread keeps flipping
// the materialization back and forth and churning a throwaway version
// (evolve + drop). Every operation must succeed (a torn route mid-flip
// would surface as an error, a wrong row, or a TSan report), and at
// quiesce the views must reconcile: they are invariant under one more
// migration, the global bidirectionality property.
//
// Run under TSan via scripts/check.sh --tsan; replay a failing run with
// INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"
#include "workload/driver.h"

namespace inverda {
namespace {

// A row generator matching `schema`: random ints/strings, k0 in [0, 99] so
// SPLIT conditions on k0 stay exercised on both sides.
std::function<Row(Random*)> RowGenerator(const TableSchema& schema) {
  std::vector<DataType> types;
  for (const Column& c : schema.columns()) types.push_back(c.type);
  return [types](Random* rng) {
    Row row;
    for (DataType t : types) {
      row.push_back(t == DataType::kInt64
                        ? Value::Int(rng->NextInt64(0, 99))
                        : Value::String(rng->NextString(3)));
    }
    return row;
  };
}

// One client per schema version, each pinned to a random table visible in
// that version.
std::vector<ConcurrentClientSpec> ClientsPerVersion(Inverda* db,
                                                    const OpMix& mix,
                                                    Random* rng) {
  std::vector<ConcurrentClientSpec> clients;
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    if (info->tables.empty()) continue;
    auto it = info->tables.begin();
    std::advance(it,
                 static_cast<long>(rng->NextUint64(info->tables.size())));
    ConcurrentClientSpec spec;
    spec.target.version = version;
    spec.target.table = it->first;
    spec.target.make_row =
        RowGenerator(db->catalog().table_version(it->second).schema);
    spec.mix = mix;
    clients.push_back(std::move(spec));
  }
  return clients;
}

TEST(ConcurrencyStressTest, MixedClientsSurviveConcurrentMigrations) {
  const uint64_t seed = TestSeed(11);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 4; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 13 + 1);
  for (int i = 0; i < 40; ++i) {
    testutil::RandomInsert(&db, &rng, builder.versions());
  }

  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/8);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  ASSERT_GE(schemas->size(), 2u);

  // The DBA keeps flipping through the valid materialization schemas while
  // the clients run.
  std::atomic<size_t> next_schema{0};
  ConcurrentOptions options;
  options.ops_per_client = 250;
  options.seed = seed;
  options.tolerate_rejections = true;
  options.dba_action = [&]() -> Status {
    size_t i = next_schema.fetch_add(1) % schemas->size();
    return db.Materialize(MaterializeRequest::Schema((*schemas)[i]));
  };

  std::vector<ConcurrentClientSpec> clients =
      ClientsPerVersion(&db, OpMix::Standard(), &rng);
  ASSERT_GE(clients.size(), 4u);

  ConcurrentResult result = RunConcurrentWorkload(&db, clients, options);
  EXPECT_TRUE(result.first_error().ok()) << result.first_error().ToString();
  for (size_t i = 0; i < result.clients.size(); ++i) {
    const ConcurrentClientResult& c = result.clients[i];
    EXPECT_TRUE(c.status.ok())
        << clients[i].target.version << ": " << c.status.ToString();
    EXPECT_GT(c.reads, 0) << clients[i].target.version;
  }
  EXPECT_GT(result.dba_iterations, 0);

  // Quiesce reconciliation: the views are invariant under one more
  // migration — a lost or duplicated propagation during the storm would
  // break this.
  auto before = testutil::Snapshot(&db);
  ASSERT_FALSE(before.empty());
  for (const std::set<SmoId>& m : *schemas) {
    ASSERT_TRUE(db.Materialize(MaterializeRequest::Schema(m)).ok());
    auto now = testutil::Snapshot(&db);
    std::string diff = testutil::DiffSnapshots(before, now);
    ASSERT_TRUE(diff.empty()) << diff;
  }
}

TEST(ConcurrencyStressTest, ReadersSurviveVersionChurnAndDrops) {
  const uint64_t seed = TestSeed(23);
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  for (int step = 0; step < 3; ++step) ASSERT_TRUE(builder.Step().ok());
  Random rng(seed * 17 + 5);
  for (int i = 0; i < 30; ++i) {
    testutil::RandomInsert(&db, &rng, builder.versions());
  }

  // The DBA churns a throwaway branch: evolve it off the root, then drop
  // it again — structure-epoch bumps and physical-table cleanup racing
  // against the readers.
  std::atomic<int> round{0};
  ConcurrentOptions options;
  options.ops_per_client = 200;
  options.seed = seed;
  options.dba_action = [&]() -> Status {
    std::string name = "tmp" + std::to_string(round.fetch_add(1));
    INVERDA_RETURN_IF_ERROR(
        db.Execute("CREATE SCHEMA VERSION " + name + " FROM " +
                   builder.versions().front() +
                   " WITH ADD COLUMN zz INT AS 0 INTO t0;"));
    return db.Execute("DROP SCHEMA VERSION " + name + ";");
  };

  std::vector<ConcurrentClientSpec> clients =
      ClientsPerVersion(&db, OpMix::ReadOnly(), &rng);
  ASSERT_GE(clients.size(), 3u);

  ConcurrentResult result = RunConcurrentWorkload(&db, clients, options);
  EXPECT_TRUE(result.first_error().ok()) << result.first_error().ToString();
  EXPECT_GT(result.dba_iterations, 0);
  for (const ConcurrentClientResult& c : result.clients) {
    EXPECT_EQ(c.reads, options.ops_per_client);
  }
}

}  // namespace
}  // namespace inverda
