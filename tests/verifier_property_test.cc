// Randomized agreement property between the static verifier and the
// dynamic oracle: grow a random genealogy with interleaved evolutions,
// migrations and writes, and at every step (a) the plan verifier must
// prove round-trip, fusion and lock order for every compiled plan, and
// (b) the dynamic oracles must agree: the same genealogy and workload
// replayed on an instance with fusion disabled exposes byte-identical
// views, and on both instances every version's scan equals its point reads
// over the whole key range. A static "verified" verdict on a plan the
// oracles refute (or vice versa) is the bug this test hunts.
//
// Replay a failing run with INVERDA_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "genealogy_builder.h"
#include "inverda/inverda.h"
#include "test_seed.h"
#include "util/random.h"
#include "verify/verifier.h"

namespace inverda {
namespace {

class VerifierPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifierPropertyTest, StaticVerdictAgreesWithTheLockstepOracle) {
  const uint64_t seed = TestSeed(GetParam());
  INVERDA_TRACE_SEED(seed);
  Inverda verified_db;  // fusion + verify gate on: what the verifier sees
  Inverda plain_db;     // the lockstep oracle: unfused hop-by-hop chains
  verified_db.access().set_verify_enabled(true);
  plain_db.access().set_fusion_enabled(false);
  testutil::GenealogyBuilder verified_builder(&verified_db, seed);
  testutil::GenealogyBuilder plain_builder(&plain_db, seed);
  ASSERT_TRUE(verified_builder.Init().ok());
  ASSERT_TRUE(plain_builder.Init().ok());
  Random verified_rng(seed * 104729 + 11);
  Random plain_rng(seed * 104729 + 11);

  for (int step = 0; step < 10; ++step) {
    ASSERT_TRUE(verified_builder.Step().ok()) << "seed " << seed;
    ASSERT_TRUE(plain_builder.Step().ok()) << "seed " << seed;
    ASSERT_EQ(verified_builder.versions(), plain_builder.versions())
        << "seed " << seed;
    for (int i = 0; i < 3; ++i) {
      testutil::RandomInsert(&verified_db, &verified_rng,
                             verified_builder.versions());
      testutil::RandomInsert(&plain_db, &plain_rng,
                             plain_builder.versions());
    }
    if (step % 3 == 2) {  // migrate both to the same random version
      const std::vector<std::string>& versions = verified_builder.versions();
      const std::string& v =
          versions[verified_rng.NextUint64(versions.size())];
      plain_rng.NextUint64(versions.size());  // keep the rngs in lockstep
      ASSERT_TRUE(verified_db.Materialize(MaterializeRequest::Targets({v})).ok()) << "seed " << seed;
      ASSERT_TRUE(plain_db.Materialize(MaterializeRequest::Targets({v})).ok()) << "seed " << seed;
    }

    // The static verdict: every compiled plan proves round-trip, fusion
    // and lock order under the current materialization.
    Result<verify::VerifySummary> summary = verified_db.VerifyPlans();
    ASSERT_TRUE(summary.ok())
        << "seed " << seed << " step " << step << ": "
        << summary.status().ToString();
    EXPECT_TRUE(summary->ok())
        << "seed " << seed << " step " << step << ": "
        << verify::FormatVerifySummary(*summary);
    EXPECT_EQ(summary->stats.obligations,
              summary->stats.by_aux + summary->stats.by_witness)
        << "seed " << seed << " step " << step;
    // No fusion was rejected: the verified instance runs real fusions.
    EXPECT_EQ(verified_db.Metrics().value("plan_verify.fusion_rejected"), 0)
        << "seed " << seed << " step " << step;

    // The dynamic verdict: both instances expose identical views, and
    // each instance's scans equal its point reads.
    auto verified_snap = testutil::Snapshot(&verified_db);
    auto plain_snap = testutil::Snapshot(&plain_db);
    EXPECT_EQ(testutil::DiffSnapshots(verified_snap, plain_snap), "")
        << "seed " << seed << " step " << step;
    EXPECT_EQ(testutil::DiffScansAndPointReads(&verified_db), "")
        << "seed " << seed << " step " << step;
    EXPECT_EQ(testutil::DiffScansAndPointReads(&plain_db), "")
        << "seed " << seed << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierPropertyTest,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace inverda
