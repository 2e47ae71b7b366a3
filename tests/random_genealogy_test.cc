#include <gtest/gtest.h>

#include <map>
#include <set>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"

namespace inverda {
namespace {

// Property test over *random genealogies*: build a random chain of schema
// versions with randomly chosen SMOs, apply random writes through random
// versions, then walk through several valid materialization schemas and
// assert that no version's view ever changes — the global form of the
// bidirectionality guarantee. The builder and snapshot helpers live in
// genealogy_builder.h, shared with the other random-genealogy suites.

class RandomGenealogyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomGenealogyTest, ViewsAreInvariantUnderMaterialization) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda db;
  testutil::GenealogyBuilder builder(&db, seed);
  ASSERT_TRUE(builder.Init().ok());
  Random rng(seed * 7 + 1);
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(builder.Step().ok());

    // A few random writes through a random version after each step.
    for (int w = 0; w < 15; ++w) {
      testutil::RandomInsert(&db, &rng, builder.versions());
    }
  }

  auto before = testutil::Snapshot(&db);
  ASSERT_FALSE(before.empty());

  // Walk through every valid materialization schema (bounded by the small
  // genealogy) and verify the views never change.
  Result<std::vector<std::set<SmoId>>> schemas =
      db.catalog().EnumerateValidMaterializations(/*limit=*/16);
  ASSERT_TRUE(schemas.ok()) << schemas.status().ToString();
  ASSERT_GE(schemas->size(), 2u);
  int checked = 0;
  for (const std::set<SmoId>& m : *schemas) {
    if (checked++ > 8) break;  // keep runtime bounded
    ASSERT_TRUE(db.Materialize(MaterializeRequest::Schema(m)).ok()) << "materialization #"
                                              << checked;
    auto now = testutil::Snapshot(&db);
    std::string diff = testutil::DiffSnapshots(before, now);
    EXPECT_TRUE(diff.empty()) << "seed " << seed << ", materialization #"
                              << checked << ": " << diff;
    if (!diff.empty()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGenealogyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace inverda
