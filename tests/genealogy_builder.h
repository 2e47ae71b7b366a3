#ifndef INVERDA_TESTS_GENEALOGY_BUILDER_H_
#define INVERDA_TESTS_GENEALOGY_BUILDER_H_

// Shared machinery for property tests over *random genealogies*: a builder
// that grows a random chain of schema versions with randomly chosen SMOs,
// plus snapshot/diff helpers over every version's view (scanned or read
// key by key) and over the cached plans. Used by
// random_genealogy_test (bidirectionality under materialization) and by
// the plan, verifier, migration, advisor and concurrency suites.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "plan/fused.h"
#include "util/random.h"
#include "util/strings.h"

namespace inverda {
namespace testutil {

// Tracks the generator's view of the current version's tables.
struct GenTable {
  std::string name;
  int int_cols = 1;   // k0, k1, ... (k0 is always present and INT)
  int text_cols = 1;  // v0, v1, ...
};

class GenealogyBuilder {
 public:
  GenealogyBuilder(Inverda* db, uint64_t seed) : db_(db), rng_(seed) {}

  Status Init() {
    tables_.push_back({"t0", 1, 1});
    tables_.push_back({"t1", 1, 1});
    versions_.push_back("g0");
    return db_->Execute(
        "CREATE SCHEMA VERSION g0 WITH "
        "CREATE TABLE t0(k0 INT, v0 TEXT); CREATE TABLE t1(k0 INT, v0 TEXT);");
  }

  // Applies one random feasible SMO, creating the next schema version.
  Status Step() {
    std::string from = versions_.back();
    std::string to = "g" + std::to_string(versions_.size());
    for (int attempt = 0; attempt < 20; ++attempt) {
      std::string smo = RandomSmo();
      if (smo.empty()) continue;
      Status s = db_->Execute("CREATE SCHEMA VERSION " + to + " FROM " +
                              from + " WITH " + smo + ";");
      if (s.ok()) {
        versions_.push_back(to);
        return Status::OK();
      }
      // Infeasible pick (e.g. name collision): roll the dice again.
      pending_rollback_();
    }
    return Status::Internal("no feasible SMO found");
  }

  const std::vector<std::string>& versions() const { return versions_; }
  const std::vector<GenTable>& tables() const { return tables_; }

 private:
  GenTable& RandomTable() {
    return tables_[rng_.NextUint64(tables_.size())];
  }

  std::string RandomSmo() {
    pending_rollback_ = [] {};
    switch (rng_.NextUint64(6)) {
      case 0: {  // ADD COLUMN
        GenTable& t = RandomTable();
        std::string col = "k" + std::to_string(t.int_cols);
        ++t.int_cols;
        pending_rollback_ = [&t] { --t.int_cols; };
        return "ADD COLUMN " + col + " INT AS k0 + 1 INTO " + t.name;
      }
      case 1: {  // DROP COLUMN (keep k0 and at least one column)
        GenTable& t = RandomTable();
        if (t.text_cols < 1) return std::string();
        std::string col = "v" + std::to_string(t.text_cols - 1);
        --t.text_cols;
        pending_rollback_ = [&t] { ++t.text_cols; };
        return "DROP COLUMN " + col + " FROM " + t.name + " DEFAULT 'd'";
      }
      case 2: {  // RENAME TABLE to a fresh name
        GenTable& t = RandomTable();
        if (t.text_cols < 1) return std::string();
        std::string fresh = t.name + "x";
        std::string smo = "RENAME TABLE " + t.name + " INTO " + fresh;
        std::string old = t.name;
        t.name = fresh;
        pending_rollback_ = [&t, old] { t.name = old; };
        return smo;
      }
      case 3: {  // SPLIT on k0
        if (tables_.size() > 4) return std::string();
        GenTable t = RandomTable();
        std::string r = t.name + "lo", s = t.name + "hi";
        std::string smo = "SPLIT TABLE " + t.name + " INTO " + r +
                          " WITH k0 < 50, " + s + " WITH k0 >= 50";
        ReplaceTable(t.name, {GenTable{r, t.int_cols, t.text_cols},
                              GenTable{s, t.int_cols, t.text_cols}});
        return smo;
      }
      case 4: {  // DECOMPOSE ON PK: (k-cols) vs (v-cols)
        if (tables_.size() > 4) return std::string();
        GenTable t = RandomTable();
        if (t.text_cols < 1 || t.int_cols < 1) return std::string();
        std::vector<std::string> ks, vs;
        for (int i = 0; i < t.int_cols; ++i) {
          ks.push_back("k" + std::to_string(i));
        }
        for (int i = 0; i < t.text_cols; ++i) {
          vs.push_back("v" + std::to_string(i));
        }
        std::string a = t.name + "a", b = t.name + "b";
        std::string smo = "DECOMPOSE TABLE " + t.name + " INTO " + a + "(" +
                          Join(ks, ", ") + "), " + b + "(" + Join(vs, ", ") +
                          ") ON PK";
        ReplaceTable(t.name, {GenTable{a, t.int_cols, 0},
                              GenTable{b, 0, t.text_cols}});
        return smo;
      }
      default: {  // ADD COLUMN on the other table (bias toward simple ops)
        GenTable& t = RandomTable();
        std::string col = "v" + std::to_string(t.text_cols);
        ++t.text_cols;
        pending_rollback_ = [&t] { --t.text_cols; };
        return "ADD COLUMN " + col + " TEXT AS 'n' INTO " + t.name;
      }
    }
  }

  void ReplaceTable(const std::string& name, std::vector<GenTable> with) {
    for (size_t i = 0; i < tables_.size(); ++i) {
      if (tables_[i].name == name) {
        tables_.erase(tables_.begin() + static_cast<long>(i));
        break;
      }
    }
    tables_.insert(tables_.end(), with.begin(), with.end());
    pending_rollback_ = [] {};  // structural; assume feasible
  }

  Inverda* db_;
  Random rng_;
  std::vector<GenTable> tables_;
  std::vector<std::string> versions_;
  std::function<void()> pending_rollback_ = [] {};
};

/// Every version's view of every table, keyed "Version.table".
inline std::map<std::string, std::vector<KeyedRow>> Snapshot(Inverda* db) {
  std::map<std::string, std::vector<KeyedRow>> out;
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    for (const auto& [table, tv] : info->tables) {
      (void)tv;
      Result<std::vector<KeyedRow>> rows = db->Select(version, table);
      EXPECT_TRUE(rows.ok()) << version << "." << table << ": "
                             << rows.status().ToString();
      if (rows.ok()) out[version + "." + table] = *rows;
    }
  }
  return out;
}

/// Every version's view of every table read key by key through Get, for
/// every key the sequence has handed out so far ([1, Peek())): the point
/// counterpart of Snapshot. A kernel's point derivation is separate code
/// from its columnar scan, so the two must agree.
inline std::map<std::string, std::vector<KeyedRow>> PointSnapshot(
    Inverda* db) {
  const int64_t end = db->db().sequence().Peek();
  std::map<std::string, std::vector<KeyedRow>> out;
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    for (const auto& [table, tv] : info->tables) {
      (void)tv;
      std::vector<KeyedRow>& rows = out[version + "." + table];
      for (int64_t key = 1; key < end; ++key) {
        Result<std::optional<Row>> row = db->Get(version, table, key);
        EXPECT_TRUE(row.ok()) << version << "." << table << "@" << key << ": "
                              << row.status().ToString();
        if (!row.ok()) break;
        if (*row) rows.push_back(KeyedRow{key, std::move(**row)});
      }
    }
  }
  return out;
}

/// First difference between two snapshots, or "" when they agree.
inline std::string DiffSnapshots(
    const std::map<std::string, std::vector<KeyedRow>>& a,
    const std::map<std::string, std::vector<KeyedRow>>& b) {
  for (const auto& [name, rows_a] : a) {
    auto it = b.find(name);
    if (it == b.end()) return "missing " + name;
    if (rows_a.size() != it->second.size()) {
      return name + ": " + std::to_string(rows_a.size()) + " vs " +
             std::to_string(it->second.size()) + " rows";
    }
    for (size_t i = 0; i < rows_a.size(); ++i) {
      if (rows_a[i].key != it->second[i].key ||
          !RowsEqual(rows_a[i].row, it->second[i].row)) {
        return name + "@" + std::to_string(rows_a[i].key) + ": " +
               RowToString(rows_a[i].row) + " vs " +
               RowToString(it->second[i].row);
      }
    }
  }
  return "";
}

/// Snapshot and PointSnapshot of `db`, scans first (a scan may assign
/// generated ids, which the point reads then cover): "" when they agree in
/// both directions, else the first difference.
inline std::string DiffScansAndPointReads(Inverda* db) {
  const auto scans = Snapshot(db);
  const auto points = PointSnapshot(db);
  std::string diff = DiffSnapshots(scans, points);
  return diff.empty() ? DiffSnapshots(points, scans) : diff;
}

/// First difference between the plan cache's plan of every live table
/// version and a fresh compile of it (compiler().Compile), or "" when every
/// cached plan equals its fresh compile: same epoch, route, steps (fused
/// runs and their column programs included), data table, footprint,
/// traversed SMOs and latch mode.
inline std::string DiffCachedPlans(Inverda* db) {
  auto steps_text = [](const std::vector<plan::PlanStep>& steps) {
    std::string out;
    for (const plan::PlanStep& step : steps) {
      out += "[" + std::to_string(step.smo) + " " +
             std::to_string(static_cast<int>(step.route)) + " " +
             std::to_string(static_cast<int>(step.side)) + " " +
             std::to_string(step.index) + " " + step.kernel->name() + " " +
             std::to_string(step.next);
      if (step.program != nullptr) {
        out += " inner" + std::to_string(step.program->inner_width);
        for (const plan::ColumnOp& op : step.program->ops) {
          out += " " + std::to_string(static_cast<int>(op.kind)) + ":" +
                 std::to_string(op.index) + ":" + op.aux_table;
        }
      }
      for (const plan::PlanStep& sub : step.fused) {
        out += " " + std::to_string(sub.smo) + "/" + sub.kernel->name();
      }
      out += "]";
    }
    return out;
  };
  auto plan_text = [&](const plan::TvPlan& p) {
    std::string out = p.label + " epoch " + std::to_string(p.epoch) +
                      (p.physical ? " physical" : "") +
                      (p.derive_mutates ? " mutates" : "") + " data " +
                      p.data_table + " distance " +
                      std::to_string(p.distance()) + " " +
                      steps_text(p.steps) + " footprint";
    for (const std::string& table : p.footprint) out += " " + table;
    out += " smos";
    for (SmoId id : p.traversed_smos) out += " " + std::to_string(id);
    return out;
  };
  for (const std::string& version : db->catalog().VersionNames()) {
    const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
    for (const auto& [table, tv] : info->tables) {
      Result<const plan::TvPlan*> cached = db->access().GetPlan(tv);
      Result<plan::TvPlan> fresh = db->access().compiler().Compile(tv);
      if (!cached.ok() || !fresh.ok()) {
        return version + "." + table + ": " +
               (cached.ok() ? fresh.status() : cached.status()).ToString();
      }
      std::string a = plan_text(**cached), b = plan_text(*fresh);
      if (a != b) return version + "." + table + ": " + a + " vs " + b;
    }
  }
  return "";
}

/// Inserts a schema-conforming random row through a random version and
/// table. Inserts may be legally rejected (key collisions with invisible
/// tuples); any other error fails the calling test.
inline void RandomInsert(Inverda* db, Random* rng,
                         const std::vector<std::string>& versions) {
  const std::string& version = versions[rng->NextUint64(versions.size())];
  const SchemaVersionInfo* info = *db->catalog().FindVersion(version);
  if (info->tables.empty()) return;
  auto it = info->tables.begin();
  std::advance(it, static_cast<long>(rng->NextUint64(info->tables.size())));
  const TableSchema& schema = db->catalog().table_version(it->second).schema;
  Row row;
  for (const Column& c : schema.columns()) {
    row.push_back(c.type == DataType::kInt64
                      ? Value::Int(rng->NextInt64(0, 99))
                      : Value::String(rng->NextString(3)));
  }
  Result<int64_t> key = db->Insert(version, it->first, std::move(row));
  if (!key.ok()) {
    EXPECT_TRUE(key.status().code() == StatusCode::kConstraintViolation ||
                key.status().code() == StatusCode::kInvalidArgument)
        << key.status().ToString();
  }
}

}  // namespace testutil
}  // namespace inverda

#endif  // INVERDA_TESTS_GENEALOGY_BUILDER_H_
