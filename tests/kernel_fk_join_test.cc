#include <gtest/gtest.h>

#include "genealogy_builder.h"
#include "inverda/inverda.h"

namespace inverda {
namespace {

// JOIN ... ON FK — the mirror direction of DECOMPOSE ON FK (B.3): an
// existing normalized pair (task, author) is denormalized into one wide
// table in the *new* version.
class OuterFkJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V1 WITH "
                            "CREATE TABLE Task(what TEXT, author INT); "
                            "CREATE TABLE Person(name TEXT);"
                            "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                            "OUTER JOIN TABLE Task, Person INTO Flat "
                            "ON FK author;")
                    .ok());
    ann_ = InsertPerson("Ann");
    t1_ = InsertTask("write", ann_);
    t2_ = InsertTask("review", ann_);
  }

  int64_t InsertPerson(const char* name) {
    return *db_.Insert("V1", "Person", {Value::String(name)});
  }
  int64_t InsertTask(const char* what, int64_t author) {
    return *db_.Insert("V1", "Task",
                       {Value::String(what), Value::Int(author)});
  }

  Inverda db_;
  int64_t ann_ = 0, t1_ = 0, t2_ = 0;
};

TEST_F(OuterFkJoinTest, JoinedViewResolvesReferences) {
  Row flat = **db_.Get("V2", "Flat", t1_);
  ASSERT_EQ(flat.size(), 2u);  // (what, name) — fk consumed
  EXPECT_EQ(flat[0], Value::String("write"));
  EXPECT_EQ(flat[1], Value::String("Ann"));
}

TEST_F(OuterFkJoinTest, UnreferencedPersonAppearsOmegaPadded) {
  int64_t bob = InsertPerson("Bob");
  Row flat = **db_.Get("V2", "Flat", bob);
  EXPECT_TRUE(flat[0].is_null());
  EXPECT_EQ(flat[1], Value::String("Bob"));
}

TEST_F(OuterFkJoinTest, NullFkYieldsOmegaRightPart) {
  int64_t orphan = *db_.Insert("V1", "Task",
                               {Value::String("untracked"), Value::Null()});
  Row flat = **db_.Get("V2", "Flat", orphan);
  EXPECT_EQ(flat[0], Value::String("untracked"));
  EXPECT_TRUE(flat[1].is_null());
}

TEST_F(OuterFkJoinTest, InsertThroughJoinReusesAuthors) {
  int64_t key = *db_.Insert("V2", "Flat",
                            {Value::String("new task"), Value::String("Ann")});
  // The normalized side reuses the existing Ann row.
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 1u);
  Row task = **db_.Get("V1", "Task", key);
  EXPECT_EQ(task[0], Value::String("new task"));
  EXPECT_EQ(task[1], Value::Int(ann_));
}

TEST_F(OuterFkJoinTest, InsertThroughJoinCreatesNewAuthors) {
  ASSERT_TRUE(db_.Insert("V2", "Flat",
                         {Value::String("task"), Value::String("Cleo")})
                  .ok());
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 2u);
}

TEST_F(OuterFkJoinTest, UpdateThroughJoinRewritesReference) {
  int64_t bob = InsertPerson("Bob");
  ASSERT_TRUE(db_.Update("V2", "Flat", t1_,
                         {Value::String("write"), Value::String("Bob")})
                  .ok());
  Row task = **db_.Get("V1", "Task", t1_);
  EXPECT_EQ(task[1], Value::Int(bob));
  // Ann is still referenced by t2.
  EXPECT_TRUE(db_.Get("V1", "Person", ann_)->has_value());
}

TEST_F(OuterFkJoinTest, MaterializedJoinRoundTrips) {
  int64_t bob = InsertPerson("Bob");  // unreferenced
  size_t flat_before = db_.Select("V2", "Flat")->size();
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  EXPECT_EQ(db_.Select("V2", "Flat")->size(), flat_before);
  EXPECT_EQ(db_.Select("V1", "Task")->size(), 2u);
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 2u);
  EXPECT_TRUE(db_.Get("V1", "Person", bob)->has_value());
  // Writes keep flowing after the flip.
  int64_t key = *db_.Insert("V1", "Task",
                            {Value::String("late"), Value::Int(ann_)});
  EXPECT_EQ((**db_.Get("V2", "Flat", key))[1], Value::String("Ann"));
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V1"})).ok());
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 2u);
}

// Scans equal point reads over the whole key range, for every version,
// across MATERIALIZE 'V2' and back, with an insert through the joined
// version each round: the FK kernel's point and scan code agree on both
// sides of the SMO.
TEST_F(OuterFkJoinTest, ScansEqualPointReadsAcrossMaterialize) {
  InsertPerson("Bob");                           // unreferenced
  InsertTask("orphan", /*author=*/0);            // dangling fk
  ASSERT_TRUE(db_.Insert("V1", "Task", {Value::String("free"), Value::Null()})
                  .ok());                        // NULL fk
  int round = 0;
  for (const char* target : {"V1", "V2", "V1"}) {
    ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({target})).ok());
    const std::string n = std::to_string(round++);
    ASSERT_TRUE(db_.Insert("V2", "Flat",
                           {Value::String("flat " + n), Value::String("Ann")})
                    .ok());
    EXPECT_EQ(testutil::DiffScansAndPointReads(&db_), "")
        << "materialized " << target << ", round " << n;
  }
}

// Inner JOIN ON FK: unmatched tuples are hidden but preserved.
class InnerFkJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE SCHEMA VERSION V1 WITH "
                            "CREATE TABLE Task(what TEXT, author INT); "
                            "CREATE TABLE Person(name TEXT);"
                            "CREATE SCHEMA VERSION V2 FROM V1 WITH "
                            "JOIN TABLE Task, Person INTO Flat ON FK "
                            "author;")
                    .ok());
  }
  Inverda db_;
};

TEST_F(InnerFkJoinTest, UnmatchedTuplesHiddenButPreserved) {
  int64_t ann = *db_.Insert("V1", "Person", {Value::String("Ann")});
  int64_t matched = *db_.Insert("V1", "Task",
                                {Value::String("t"), Value::Int(ann)});
  int64_t orphan = *db_.Insert("V1", "Task",
                               {Value::String("o"), Value::Null()});
  int64_t lonely = *db_.Insert("V1", "Person", {Value::String("Bob")});
  EXPECT_TRUE(db_.Get("V2", "Flat", matched)->has_value());
  EXPECT_FALSE(db_.Get("V2", "Flat", orphan)->has_value());
  EXPECT_FALSE(db_.Get("V2", "Flat", lonely)->has_value());
  // Nothing is lost across a migration to the inner join.
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  EXPECT_EQ(db_.Select("V1", "Task")->size(), 2u);
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 2u);
  EXPECT_EQ(db_.Select("V2", "Flat")->size(), 1u);
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V1"})).ok());
  EXPECT_EQ(db_.Select("V1", "Task")->size(), 2u);
  EXPECT_EQ(db_.Select("V1", "Person")->size(), 2u);
}

TEST_F(InnerFkJoinTest, DeletingPersonUnmatchesItsTasks) {
  int64_t ann = *db_.Insert("V1", "Person", {Value::String("Ann")});
  int64_t task = *db_.Insert("V1", "Task",
                             {Value::String("t"), Value::Int(ann)});
  ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({"V2"})).ok());
  ASSERT_TRUE(db_.Delete("V1", "Person", ann).ok());
  // The joined row disappears; the task survives as unmatched.
  EXPECT_FALSE(db_.Get("V2", "Flat", task)->has_value());
  Result<std::optional<Row>> survivor = db_.Get("V1", "Task", task);
  ASSERT_TRUE(survivor->has_value());
  EXPECT_TRUE((**survivor)[1].is_null());  // dangling fk cleared
}

// The inner join's hidden unmatched tuples live in the keep-alive aux
// tables while the join is materialized; scans and point reads must agree
// on them too.
TEST_F(InnerFkJoinTest, ScansEqualPointReadsAcrossMaterialize) {
  int64_t ann = *db_.Insert("V1", "Person", {Value::String("Ann")});
  ASSERT_TRUE(
      db_.Insert("V1", "Task", {Value::String("t"), Value::Int(ann)}).ok());
  ASSERT_TRUE(
      db_.Insert("V1", "Task", {Value::String("o"), Value::Null()}).ok());
  ASSERT_TRUE(db_.Insert("V1", "Person", {Value::String("Bob")}).ok());
  int round = 0;
  for (const char* target : {"V1", "V2", "V1"}) {
    ASSERT_TRUE(db_.Materialize(MaterializeRequest::Targets({target})).ok());
    const std::string n = std::to_string(round++);
    ASSERT_TRUE(db_.Insert("V2", "Flat",
                           {Value::String("flat " + n), Value::String("Ann")})
                    .ok());
    EXPECT_EQ(testutil::DiffScansAndPointReads(&db_), "")
        << "materialized " << target << ", round " << n;
  }
}

}  // namespace
}  // namespace inverda
