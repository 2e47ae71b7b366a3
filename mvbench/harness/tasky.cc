// The tasky_oltp workload: the paper's running example with TasKy, Do! and
// TasKy2 co-existing on one data set, one app on all three versions.
//
// Every output is checked against the benchmark's own model of the tasks
// (key -> author, task, prio), updated by the paper's semantics of the
// three versions' SMOs:
//   Do!    = SPLIT TABLE Task INTO Todo WITH prio = 1;
//            DROP COLUMN prio FROM Todo DEFAULT 1
//            -> Todo(author, task) holds exactly the tasks with prio 1, and
//               a task written through Todo gets prio 1.
//   TasKy2 = DECOMPOSE TABLE Task INTO Task(task, prio), Author(author)
//            ON FOREIGN KEY author; RENAME COLUMN author IN Author TO name
//            -> Author(name) holds one row per distinct author, and
//               Task(task, prio, author) refers to it by a generated id.
// Generated author ids are compared up to renaming: each checkpoint learns
// the id <-> name bijection from a full Select of Author, and every later
// output must agree with it.
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "handwritten/reference_sql.h"
#include "util/random.h"
#include "workload/tasky.h"
#include "workloads.h"

namespace mvbench {
namespace {

using inverda::Inverda;
using inverda::KeyedRow;
using inverda::MaterializeRequest;
using inverda::Random;
using inverda::Row;
using inverda::Status;
using inverda::Value;

constexpr int kTasks = 100000;
constexpr int kAuthors = 50;

const char* const kTasKy = "TasKy";
const char* const kDo = "Do!";
const char* const kTasKy2 = "TasKy2";

struct TaskRec {
  std::string author;
  std::string task;
  int64_t prio = 1;
};

struct TaskyModel {
  std::unordered_map<int64_t, TaskRec> rows;
  KeyPool all;
  KeyPool todo;  // prio == 1, i.e. visible in Do!'s Todo
  // TasKy2 Author ids, learned at each checkpoint.
  std::unordered_map<int64_t, std::string> author_name;
  std::unordered_map<std::string, int64_t> author_id;
  std::vector<int64_t> author_ids;

  void Put(int64_t key, TaskRec rec) {
    all.Add(key);
    if (rec.prio == 1) {
      todo.Add(key);
    } else {
      todo.Remove(key);
    }
    rows[key] = std::move(rec);
  }
  void Erase(int64_t key) {
    rows.erase(key);
    all.Remove(key);
    todo.Remove(key);
  }
};

std::string Where(const char* version, const char* table, int64_t key) {
  return std::string(version) + "." + table + " key=" + std::to_string(key);
}

std::string Show(const std::optional<Row>& row) {
  return row ? inverda::RowToString(*row) : std::string("(absent)");
}

Row TaskyRow(const TaskRec& r) {
  return {Value::String(r.author), Value::String(r.task), Value::Int(r.prio)};
}
Row TodoRow(const TaskRec& r) {
  return {Value::String(r.author), Value::String(r.task)};
}

// TasKy2.Task(task, prio, author) of `r`, or nullopt when the author has no
// known id (which the caller reports).
std::optional<Row> Task2Row(const TaskyModel& m, const TaskRec& r) {
  auto it = m.author_id.find(r.author);
  if (it == m.author_id.end()) return std::nullopt;
  return Row{Value::String(r.task), Value::Int(r.prio), Value::Int(it->second)};
}

bool Same(const std::optional<Row>& got, const std::optional<Row>& want) {
  if (got.has_value() != want.has_value()) return false;
  return !got || inverda::RowsEqual(*got, *want);
}

// Full-content comparisons of one version's table with the model; each
// mismatching row is reported.
void CompareTasky(const std::vector<KeyedRow>& got, const TaskyModel& m,
                  Checks* checks, const std::string& when) {
  size_t matched = 0;
  for (const KeyedRow& r : got) {
    auto it = m.rows.find(r.key);
    std::optional<Row> want;
    if (it != m.rows.end()) want = TaskyRow(it->second);
    if (!Same(r.row, want)) {
      checks->Fail(when + ": " + Where(kTasKy, "Task", r.key) + " expected " +
                   Show(want) + " got " + Show(r.row));
    } else {
      ++matched;
    }
  }
  if (matched != m.rows.size()) {
    checks->Fail(when + ": TasKy.Task has " + std::to_string(got.size()) +
                 " rows, " + std::to_string(matched) + " match the model's " +
                 std::to_string(m.rows.size()));
  }
}

void CompareTodo(const std::vector<KeyedRow>& got, const TaskyModel& m,
                 Checks* checks, const std::string& when) {
  size_t matched = 0;
  for (const KeyedRow& r : got) {
    auto it = m.rows.find(r.key);
    std::optional<Row> want;
    if (it != m.rows.end() && it->second.prio == 1) {
      want = TodoRow(it->second);
    }
    if (!Same(r.row, want)) {
      checks->Fail(when + ": " + Where(kDo, "Todo", r.key) + " expected " +
                   Show(want) + " got " + Show(r.row));
    } else {
      ++matched;
    }
  }
  if (matched != m.todo.size()) {
    checks->Fail(when + ": Do!.Todo has " + std::to_string(got.size()) +
                 " rows, " + std::to_string(matched) + " match the model's " +
                 std::to_string(m.todo.size()));
  }
}

// Learns the id <-> name bijection from TasKy2.Author and checks that it
// covers exactly the model's distinct authors.
void LearnAuthors(const std::vector<KeyedRow>& got, TaskyModel* m,
                  Checks* checks, const std::string& when) {
  std::unordered_set<std::string> names;
  for (const auto& [key, rec] : m->rows) names.insert(rec.author);
  m->author_name.clear();
  m->author_id.clear();
  m->author_ids.clear();
  for (const KeyedRow& r : got) {
    if (r.row.size() != 1 || !r.row[0].is_string() ||
        names.count(r.row[0].AsString()) == 0 ||
        m->author_id.count(r.row[0].AsString()) != 0) {
      checks->Fail(when + ": " + Where(kTasKy2, "Author", r.key) +
                   " unexpected " + Show(r.row));
      continue;
    }
    m->author_name[r.key] = r.row[0].AsString();
    m->author_id[r.row[0].AsString()] = r.key;
    m->author_ids.push_back(r.key);
  }
  if (m->author_ids.size() != names.size()) {
    checks->Fail(when + ": TasKy2.Author has " + std::to_string(got.size()) +
                 " rows, model " + std::to_string(names.size()) + " authors");
  }
}

// Checks a Select of Author against the learned id bijection.
void CompareAuthors(const std::vector<KeyedRow>& got, const TaskyModel& m,
                    Checks* checks, const std::string& when) {
  for (const KeyedRow& r : got) {
    auto it = m.author_name.find(r.key);
    std::optional<Row> want;
    if (it != m.author_name.end()) want = Row{Value::String(it->second)};
    if (!Same(r.row, want)) {
      checks->Fail(when + ": " + Where(kTasKy2, "Author", r.key) +
                   " expected " + Show(want) + " got " + Show(r.row));
    }
  }
  if (got.size() != m.author_ids.size()) {
    checks->Fail(when + ": TasKy2.Author has " + std::to_string(got.size()) +
                 " rows, model " + std::to_string(m.author_ids.size()));
  }
}

void CompareTask2(const std::vector<KeyedRow>& got, const TaskyModel& m,
                  Checks* checks, const std::string& when) {
  size_t matched = 0;
  for (const KeyedRow& r : got) {
    auto it = m.rows.find(r.key);
    std::optional<Row> want;
    if (it != m.rows.end()) want = Task2Row(m, it->second);
    if (!Same(r.row, want)) {
      checks->Fail(when + ": " + Where(kTasKy2, "Task", r.key) + " expected " +
                   Show(want) + " got " + Show(r.row));
    } else {
      ++matched;
    }
  }
  if (matched != m.rows.size()) {
    checks->Fail(when + ": TasKy2.Task has " + std::to_string(got.size()) +
                 " rows, " + std::to_string(matched) + " match the model's " +
                 std::to_string(m.rows.size()));
  }
}

// Compares every version's full contents with the model (untimed) and
// re-learns the author ids.
void Checkpoint(Inverda& db, TaskyModel* m, Checks* checks,
                const std::string& when) {
  auto select = [&](const char* v, const char* t) {
    checks->Attempt();
    auto rows = db.Select(v, t);
    if (!rows.ok()) {
      checks->Fail(when + ": Select " + v + "." + t + ": " +
                   rows.status().ToString());
      return std::vector<KeyedRow>{};
    }
    return std::move(*rows);
  };
  CompareTasky(select(kTasKy, "Task"), *m, checks, when);
  CompareTodo(select(kDo, "Todo"), *m, checks, when);
  LearnAuthors(select(kTasKy2, "Author"), m, checks, when);
  CompareTask2(select(kTasKy2, "Task"), *m, checks, when);
}

// One set-up: builds the three versions, loads kTasks tasks through TasKy
// and warms up with a full Select of every table. Adds its time to
// out->setup_s; `keys` receives the loaded tasks' keys.
std::unique_ptr<Inverda> BuildTasky(const RunConfig& cfg,
                                    std::vector<int64_t>* keys,
                                    RunOutput* out) {
  keys->clear();
  keys->reserve(kTasks);
  int64_t t0 = NowNs();
  auto db = std::make_unique<Inverda>();
  for (const std::string* script :
       {&inverda::BidelInitialScript(), &inverda::BidelDoScript(),
        &inverda::BidelEvolutionScript()}) {
    int64_t e0 = NowNs();
    Status s = db->Execute(*script);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return nullptr;
    }
    if (cfg.traced) {
      out->layers.Add("catalog.evolve_ms",
                      static_cast<double>(NowNs() - e0) * 1e-6);
    }
  }
  Random rng(cfg.seed);
  for (int i = 0; i < kTasks; ++i) {
    auto key = db->Insert(kTasKy, "Task", inverda::RandomTaskRow(&rng, kAuthors));
    if (!key.ok()) {
      std::fprintf(stderr, "load: %s\n", key.status().ToString().c_str());
      return nullptr;
    }
    keys->push_back(*key);
  }
  for (const auto& [v, t] : {std::pair{kTasKy, "Task"}, {kDo, "Todo"},
                             {kTasKy2, "Author"}, {kTasKy2, "Task"}}) {
    if (!db->Select(v, t).ok()) return nullptr;
  }
  out->setup_s.push_back(Seconds(NowNs() - t0));
  return db;
}

// The model of the loaded tasks: the load's rows, drawn again from the
// seed, under the keys the engine returned.
TaskyModel LoadedModel(const RunConfig& cfg, const std::vector<int64_t>& keys) {
  TaskyModel m;
  Random rng(cfg.seed);
  for (int64_t key : keys) {
    Row row = inverda::RandomTaskRow(&rng, kAuthors);
    m.Put(key, {row[0].AsString(), row[1].AsString(), row[2].AsInt()});
  }
  return m;
}

// The app's operations on the three versions. Every call is timed into
// `timer` and its output checked afterwards (untimed).
class TaskyApp {
 public:
  TaskyApp(Inverda* db, TaskyModel* model, uint64_t seed, bool traced,
           RunOutput* out)
      : timer(&out->checks, traced ? &out->spans : nullptr),
        db_(db),
        model_(model),
        rng_(seed),
        traced_(traced),
        out_(out) {}

  AppTimer timer;
  // Point reads whose plan latches exclusively (derive_mutates), traced
  // run only; `exclusive_targets` names the (version, table) pairs.
  int64_t exclusive_reads = 0;
  std::set<std::string> exclusive_targets;
  // Under the TasKy materialization, probes of TasKy2 Author reads and
  // TasKy2 Task writes feed mapping.fk_point_us.
  bool fk_probe = false;

  void GetTasky(bool probe) {
    int64_t key = model_->all.Pick(&rng_);
    auto got = Read(kTasKy, "Task", key, probe);
    auto it = model_->rows.find(key);
    Expect(got, kTasKy, "Task", key,
           it == model_->rows.end() ? std::nullopt
                                    : std::optional<Row>(TaskyRow(it->second)));
  }
  void GetTodo(bool probe) {
    int64_t key = model_->all.Pick(&rng_);
    auto got = Read(kDo, "Todo", key, probe);
    auto it = model_->rows.find(key);
    std::optional<Row> want;
    if (it != model_->rows.end() && it->second.prio == 1) {
      want = TodoRow(it->second);
    }
    Expect(got, kDo, "Todo", key, want);
  }
  void GetTask2(bool probe) {
    int64_t key = model_->all.Pick(&rng_);
    auto got = Read(kTasKy2, "Task", key, probe);
    auto it = model_->rows.find(key);
    std::optional<Row> want;
    if (it != model_->rows.end()) want = Task2Row(*model_, it->second);
    Expect(got, kTasKy2, "Task", key, want);
  }
  void GetAuthor(bool probe) {
    int64_t id = PickAuthor();
    auto got = Read(kTasKy2, "Author", id, probe, probe && fk_probe);
    Expect(got, kTasKy2, "Author", id,
           Row{Value::String(model_->author_name.at(id))});
  }

  void InsertTasky() {
    Row row = inverda::RandomTaskRow(&rng_, kAuthors);
    TaskRec rec{row[0].AsString(), row[1].AsString(), row[2].AsInt()};
    Insert(kTasKy, "Task", std::move(row), rec);
  }
  // Updates through TasKy and Do! keep the task's author: a changed author
  // shows stale in TasKy2 (FOUND in CHANGES.md), which would fail a
  // seed-dependent number of later reads. StaleAuthorProbe changes authors
  // through both paths on fixed rows instead.
  void UpdateTasky(bool probe) {
    auto fresh = [this](Random* rng, int64_t key) {
      Row row = inverda::RandomTaskRow(rng, kAuthors);
      TaskRec rec{model_->rows[key].author, row[1].AsString(), row[2].AsInt()};
      return std::pair{TaskyRow(rec), rec};
    };
    int64_t key = model_->all.Pick(&rng_);
    auto [row, rec] = fresh(&rng_, key);
    Update(kTasKy, "Task", key, row, rec, probe, model_->all,
           [&](int64_t k) { return fresh(&probe_rng_, k); });
  }
  void DeleteTasky() { Delete(kTasKy, "Task", model_->all.Pick(&rng_)); }

  void InsertTodo() {
    TaskRec rec{RandomAuthor(), "todo-" + rng_.NextString(12), 1};
    Insert(kDo, "Todo", TodoRow(rec), rec);
  }
  void UpdateTodo(bool probe) {
    auto fresh = [this](Random* rng, int64_t key) {
      TaskRec rec{model_->rows[key].author, "todo-" + rng->NextString(12), 1};
      return std::pair{TodoRow(rec), rec};
    };
    int64_t key = model_->todo.Pick(&rng_);
    auto [row, rec] = fresh(&rng_, key);
    Update(kDo, "Todo", key, row, rec, probe, model_->todo,
           [&](int64_t k) { return fresh(&probe_rng_, k); });
  }
  void DeleteTodo() { Delete(kDo, "Todo", model_->todo.Pick(&rng_)); }

  void InsertTask2() {
    TaskRec rec = RandomTask2(&rng_);
    Insert(kTasKy2, "Task", *Task2Row(*model_, rec), rec);
  }
  void UpdateTask2(bool probe) {
    auto fresh = [this](Random* rng, int64_t) {
      TaskRec rec = RandomTask2(rng);
      return std::pair{*Task2Row(*model_, rec), rec};
    };
    int64_t key = model_->all.Pick(&rng_);
    auto [row, rec] = fresh(&rng_, key);
    Update(kTasKy2, "Task", key, row, rec, probe, model_->all,
           [&](int64_t k) { return fresh(&probe_rng_, k); },
           probe && fk_probe);
  }
  void DeleteTask2() { Delete(kTasKy2, "Task", model_->all.Pick(&rng_)); }

  // A timed full Select; returns the rows (empty on error, reported).
  std::vector<KeyedRow> Select(const char* version, const char* table,
                               bool probe) {
    int64_t op = 0;
    int64_t ns = 0;
    auto rows = timer.Select(version, table, &op, &ns,
                             [&] { return db_->Select(version, table); });
    if (!rows.ok()) {
      out_->checks.Fail(std::string("Select ") + version + "." + table + ": " +
                        rows.status().ToString());
      return {};
    }
    if (probe) {
      ProbeSelect(*db_, version, table, ns,
                  static_cast<int64_t>(rows->size()), op, out_);
    }
    return std::move(*rows);
  }

  // Author changes made through TasKy and through Do! must show in TasKy2.
  // One task per path, on fixed rows and authors every data set has:
  // insert it with author0, read it through TasKy2, change its author to
  // author1 through the same path, read it through TasKy2 again, delete
  // it; untimed. The engine keeps the task's old author id (FOUND in
  // CHANGES.md), so the second read fails on every run; it counts in
  // `failed`, not against `correct`.
  void StaleAuthorProbe() {
    for (const char* path : {kTasKy, kDo}) {
      const bool todo = path == kDo;
      const char* table = todo ? "Todo" : "Task";
      TaskRec rec{"author0", std::string("stale-author probe via ") + path, 1};
      auto row = [&] { return todo ? TodoRow(rec) : TaskyRow(rec); };
      out_->checks.Attempt();
      auto key = db_->Insert(path, table, row());
      if (!key.ok()) {
        out_->checks.Fail(std::string("Insert ") + path + "." + table + ": " +
                          key.status().ToString());
        continue;
      }
      model_->Put(*key, rec);
      auto read = [&](bool known_fault) {
        out_->checks.Attempt();
        auto got = db_->Get(kTasKy2, "Task", *key);
        std::optional<Row> want = Task2Row(*model_, rec);
        if (got.ok() && Same(*got, want)) return;
        std::string what = "Get " + Where(kTasKy2, "Task", *key) + " after " +
                           path + " wrote author " + rec.author +
                           ": expected " + Show(want) + " got " +
                           (got.ok() ? Show(*got) : got.status().ToString());
        if (known_fault) {
          out_->checks.FailKnown(what);
        } else {
          out_->checks.Fail(what);
        }
      };
      read(false);
      rec.author = "author1";
      out_->checks.Attempt();
      Status s = db_->Update(path, table, *key, row());
      if (!s.ok()) {
        out_->checks.Fail("Update " + Where(path, table, *key) + ": " +
                          s.ToString());
        continue;
      }
      model_->Put(*key, rec);
      read(true);
      out_->checks.Attempt();
      s = db_->Delete(path, table, *key);
      if (!s.ok()) {
        out_->checks.Fail("Delete " + Where(path, table, *key) + ": " +
                          s.ToString());
        continue;
      }
      model_->Erase(*key);
    }
  }

 private:
  std::string RandomAuthor() {
    return "author" + std::to_string(rng_.NextUint64(kAuthors));
  }
  int64_t PickAuthor() {
    return model_->author_ids[static_cast<size_t>(
        rng_.NextUint64(model_->author_ids.size()))];
  }
  TaskRec RandomTask2(Random* rng) {
    Row row = inverda::RandomTaskRow(rng, kAuthors);
    int64_t id = model_->author_ids[static_cast<size_t>(
        rng->NextUint64(model_->author_ids.size()))];
    return {model_->author_name.at(id), row[1].AsString(), row[2].AsInt()};
  }

  // A timed Get; `probe` decomposes it (traced run), `fk_probe_now`
  // additionally records the probe's FindVersion as an FK point operation.
  std::optional<Row> Read(const char* version, const char* table, int64_t key,
                          bool probe, bool fk_probe_now = false) {
    int64_t op = 0;
    auto got = timer.Point(/*write=*/false, "inverda.Get", version, table, &op,
                           [&] { return db_->Get(version, table, key); });
    if (traced_ &&
        exclusive_targets.count(std::string(version) + "." + table) != 0) {
      ++exclusive_reads;
    }
    if (probe || fk_probe_now) {
      bool author = std::string(table) == "Author";
      auto pick = [&] {
        return author ? model_->author_ids[static_cast<size_t>(
                            probe_rng_.NextUint64(model_->author_ids.size()))]
                      : model_->all.Pick(&probe_rng_);
      };
      ReadProbe p{op, pick(), pick(), pick()};
      int64_t find_ns = ProbeRead(*db_, version, table, p, out_);
      if (fk_probe_now) {
        out_->layers.Add("mapping.fk_point_us", static_cast<double>(find_ns) * 1e-3);
      }
    }
    if (!got.ok()) {
      out_->checks.Fail("Get " + Where(version, table, key) + ": " +
                        got.status().ToString());
      return std::nullopt;
    }
    return std::move(*got);
  }

  void Expect(const std::optional<Row>& got, const char* version,
              const char* table, int64_t key, const std::optional<Row>& want) {
    if (!Same(got, want)) {
      out_->checks.Fail("Get " + Where(version, table, key) + " expected " +
                        Show(want) + " got " + Show(got));
    }
  }

  void Insert(const char* version, const char* table, Row row,
              const TaskRec& rec) {
    int64_t op = 0;
    auto key = timer.Point(/*write=*/true, "inverda.Insert", version, table, &op,
                           [&] { return db_->Insert(version, table, std::move(row)); });
    if (!key.ok()) {
      out_->checks.Fail(std::string("Insert ") + version + "." + table + ": " +
                        key.status().ToString());
      return;
    }
    model_->Put(*key, rec);
  }

  // A fresh update of one key: the row to write and the model's record.
  using Fresh = std::function<std::pair<Row, TaskRec>(int64_t key)>;

  // `pool` and `fresh` are used by a probed update only: two more keys of
  // the pool get fresh rows (one through the access layer, one through the
  // facade with the tracer on), drawn from the probes' own generator so the
  // app's sequence of operations matches the untraced run.
  void Update(const char* version, const char* table, int64_t key, Row row,
              const TaskRec& rec, bool probe, const KeyPool& pool,
              const Fresh& fresh, bool fk_probe_now = false) {
    int64_t op = 0;
    Status s = timer.Point(/*write=*/true, "inverda.Update", version, table, &op,
                           [&] { return db_->Update(version, table, key, std::move(row)); });
    if (!s.ok()) {
      out_->checks.Fail("Update " + Where(version, table, key) + ": " +
                        s.ToString());
      return;
    }
    model_->Put(key, rec);
    if (probe) {
      WriteProbe p;
      p.op = op;
      // Distinct keys, so the model's final record of each is its row.
      std::set<int64_t> used{key};
      auto pick = [&] {
        int64_t k = pool.Pick(&probe_rng_);
        while (!used.insert(k).second) k = pool.Pick(&probe_rng_);
        return k;
      };
      p.apply_key = pick();
      auto [apply_row, apply_rec] = fresh(p.apply_key);
      p.apply_row = std::move(apply_row);
      p.update_key = pick();
      auto [update_row, update_rec] = fresh(p.update_key);
      p.update_row = std::move(update_row);
      p.trace_key = pick();
      auto [trace_row, trace_rec] = fresh(p.trace_key);
      p.trace_row = std::move(trace_row);
      int64_t apply_ns = ProbeWrite(*db_, version, table, p, out_);
      model_->Put(p.apply_key, apply_rec);
      model_->Put(p.update_key, update_rec);
      model_->Put(p.trace_key, trace_rec);
      if (fk_probe_now) {
        out_->layers.Add("mapping.fk_point_us", static_cast<double>(apply_ns) * 1e-3);
      }
    }
  }

  void Delete(const char* version, const char* table, int64_t key) {
    int64_t op = 0;
    Status s = timer.Point(/*write=*/true, "inverda.Delete", version, table, &op,
                           [&] { return db_->Delete(version, table, key); });
    if (!s.ok()) {
      out_->checks.Fail("Delete " + Where(version, table, key) + ": " +
                        s.ToString());
      return;
    }
    model_->Erase(key);
  }

  Inverda* db_;
  TaskyModel* model_;
  Random rng_;
  Random probe_rng_{0x5eed};  // keys and rows of the traced run's probes
  bool traced_;
  RunOutput* out_;
};

const std::vector<std::pair<std::string, std::string>>& TaskyTargets() {
  static const auto* targets =
      new std::vector<std::pair<std::string, std::string>>{
          {kTasKy, "Task"}, {kDo, "Todo"}, {kTasKy2, "Task"}, {kTasKy2, "Author"}};
  return *targets;
}

// The (version.table) targets whose plans latch exclusively for reads.
std::set<std::string> ExclusiveTargets(Inverda& db) {
  std::set<std::string> out;
  for (const auto& [v, t] : TaskyTargets()) {
    auto tv = db.catalog().ResolveTable(v, t);
    if (!tv.ok()) continue;
    auto plan = db.access().GetPlan(*tv);
    if (plan.ok() && (*plan)->derive_mutates) out.insert(v + "." + t);
  }
  return out;
}

// Traced-run probes taken while the engine is quiet, after set-up.
void ProbeQuiet(Inverda& db, const TaskyModel& m, RunOutput* out) {
  PlanShape shape = FarthestPlan(db, TaskyTargets());
  out->layers.Add("plan.hops", shape.hops);
  out->layers.Add("plan.steps", shape.steps);
  out->layers.Add("plan.footprint_tables", shape.footprint);
  out->layers.Add("storage.bytes_per_user_byte",
                  BytesPerUserByte(db, {{kTasKy, "Task"}}));
  std::vector<int64_t> keys;
  for (size_t i = 0; i < m.all.size() && keys.size() < 20000; i += 7) {
    keys.push_back(m.all.keys()[i]);
  }
  for (int i = 0; i < 5; ++i) ProbeStorage(db, kTasKy, "Task", keys, &out->layers);
}

// One pass of the app through all three versions' operations.
// `probe` marks the traced run's sampled cycle.
// The multiplicities place each percentile inside one cost class under the
// TasKy materialization: six Do! reads (~4 us) hold the median read, the
// TasKy2 Author read (~1 ms, 1 in 15 reads) the 99th percentile; the
// TasKy2 writes (~1 ms, 3 in 9 writes) hold the 99th percentile of writes.
void OltpCycle(TaskyApp& app, bool probe) {
  for (int i = 0; i < 4; ++i) app.GetTasky(probe && i == 0);
  app.InsertTasky();
  app.UpdateTasky(probe);
  app.DeleteTasky();
  for (int i = 0; i < 6; ++i) app.GetTodo(probe && i == 0);
  app.InsertTodo();
  app.UpdateTodo(probe);
  app.DeleteTodo();
  for (int i = 0; i < 4; ++i) app.GetTask2(probe && i == 0);
  app.GetAuthor(probe);
  app.InsertTask2();
  app.UpdateTask2(probe);
  app.DeleteTask2();
}

constexpr int kOltpRounds = 6;
constexpr int kOltpCyclesPerSecond = 200;  // fixed-phase cycles per --seconds
constexpr int kOltpProbeEvery = 16;        // cycles between traced-run probes
// App cycles per online migration. The operations that wait on the
// migration's refreshes are the slowest of all, and the migration waits in
// turn for the app to pause (it does not converge while the app writes),
// so these cycles feed both ops_per_s and migrate_s with the host's speed
// swings twice over: at 10 cycles their quartile spreads over ten seeds
// reached 0.30 and 0.35. At 3 cycles the migration windows hold under 2 %
// of the app's operations.
constexpr int kOltpMigrateCycles = 3;

class OltpDriver {
 public:
  OltpDriver(Inverda* db, TaskyModel* model, TaskyApp* app, bool traced,
             RunOutput* out)
      : db_(db), model_(model), app_(app), traced_(traced), out_(out) {}

  // `cycles` cycles with no migration in flight, halfway through a full
  // Select of every table, compared with the model (untimed), and at the
  // end the stale-author probe.
  void FixedPhase(int cycles) {
    for (int i = 0; i < cycles; ++i) {
      Cycle(/*quiet=*/true);
      if (i != cycles / 2) continue;
      for (const auto& [v, t] : TaskyTargets()) {
        auto rows = app_->Select(v.c_str(), t.c_str(), traced_);
        if (t == "Todo") {
          CompareTodo(rows, *model_, &out_->checks, "Select");
        } else if (t == "Author") {
          CompareAuthors(rows, *model_, &out_->checks, "Select");
        } else if (v == kTasKy) {
          CompareTasky(rows, *model_, &out_->checks, "Select");
        } else {
          CompareTask2(rows, *model_, &out_->checks, "Select");
        }
      }
    }
    app_->StaleAuthorProbe();
  }

  void Cycle(bool quiet) {
    bool probe = traced_ && quiet && cycle_ % kOltpProbeEvery == 0;
    OltpCycle(*app_, probe);
    ++cycle_;
  }

  // The DBA's online MATERIALIZE of `target` while the app keeps going;
  // returns its wall time in seconds.
  double OnlineMigrate(const char* target) {
    out_->checks.Attempt();
    int64_t t0 = NowNs();
    int64_t ops0 = app_->timer.traffic.point_ops();
    Status s = db_->Materialize(
        MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false));
    if (!s.ok()) {
      out_->checks.Fail(std::string("MATERIALIZE ") + target + ": " + s.ToString());
      return 0;
    }
    std::map<inverda::migrate::Phase, int64_t> entered;
    // A fixed number of app cycles, short enough to end before the
    // migration can (it does not converge while the app writes), so every
    // run issues the same operations under the same materialization; then
    // the migration finishes with the app idle.
    for (int i = 0; i < kOltpMigrateCycles; ++i) {
      entered.emplace(db_->MigrationState().phase, NowNs());
      Cycle(/*quiet=*/false);
    }
    while (true) {
      inverda::migrate::MigrationStatus st = db_->MigrationState();
      entered.emplace(st.phase, NowNs());
      if (!st.active) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    s = db_->WaitForMigration();
    int64_t t1 = NowNs();
    if (!s.ok()) {
      out_->checks.Fail(std::string("MATERIALIZE ") + target + ": " + s.ToString());
    }
    if (traced_) {
      using inverda::migrate::Phase;
      inverda::migrate::MigrationStatus st = db_->MigrationState();
      auto at = [&](Phase p) {
        auto it = entered.find(p);
        return it == entered.end() ? t1 : it->second;
      };
      out_->layers.Add("migrate.copy_s", Seconds(at(Phase::kCatchUp) - at(Phase::kCopy)));
      out_->layers.Add("migrate.catchup_s", Seconds(at(Phase::kFlip) - at(Phase::kCatchUp)));
      out_->layers.Add("migrate.flip_ms", static_cast<double>(st.flip_ns) * 1e-6);
      out_->layers.Add("migrate.catchup_rounds", static_cast<double>(st.catchup_rounds));
      out_->layers.Add("migrate.refreshes", static_cast<double>(st.refreshes));
      out_->layers.Add("migrate.keys_captured", static_cast<double>(st.keys_captured));
      out_->layers.Add("migrate.rows_copied", static_cast<double>(st.rows_copied));
      out_->layers.Add("migrate.app_ops_per_s",
                       static_cast<double>(app_->timer.traffic.point_ops() - ops0) /
                           Seconds(t1 - t0));
    }
    return Seconds(t1 - t0);
  }

 private:
  Inverda* db_;
  TaskyModel* model_;
  TaskyApp* app_;
  bool traced_;
  RunOutput* out_;
  int64_t cycle_ = 0;
};

// Self-test of the checks: overwrite one row of the physical data table
// behind TasKy.Task and show that the checkpoint reports it.
int CorruptAndCheck(Inverda& db, TaskyModel* m, RunOutput* out) {
  auto tv = db.catalog().ResolveTable(kTasKy, "Task");
  auto plan = db.access().GetPlan(*tv);
  auto table = db.db().GetTable((*plan)->data_table);
  int64_t key = m->all.keys().front();
  Status s = (*table)->Update(
      key, {Value::String("author0"), Value::String("corrupted"), Value::Int(2)});
  std::fprintf(stderr, "self-test: overwrote %s key=%lld (%s)\n",
               (*plan)->data_table.c_str(), static_cast<long long>(key),
               s.ToString().c_str());
  Checkpoint(db, m, &out->checks, "self-test");
  return 0;
}

}  // namespace

int SetupTaskyOltp(const RunConfig& cfg, RunOutput* out) {
  std::vector<int64_t> keys;
  return BuildTasky(cfg, &keys, out) == nullptr ? 1 : 0;
}

int RunTaskyOltp(const RunConfig& cfg, RunOutput* out) {
  std::vector<int64_t> keys;
  std::unique_ptr<Inverda> db = BuildTasky(cfg, &keys, out);
  if (db == nullptr) return 1;
  TaskyModel model = LoadedModel(cfg, keys);
  Checkpoint(*db, &model, &out->checks, "after load");
  if (cfg.corrupt) return CorruptAndCheck(*db, &model, out);
  if (cfg.traced) {
    ProbeQuiet(*db, model, out);
    db->Metrics().set_timing_enabled(true);
  }
  TaskyApp app(db.get(), &model, cfg.seed * 7919 + 1, cfg.traced, out);
  OltpDriver driver(db.get(), &model, &app, cfg.traced, out);
  // Each round: traffic under the TasKy materialization, then the DBA's
  // online round trip to TasKy2 and back while the app keeps going, with
  // one more set-up sample after each MATERIALIZE.
  const int cycles = cfg.seconds * kOltpCyclesPerSecond / kOltpRounds;
  int64_t reads = 0;
  for (int r = 0; r < kOltpRounds; ++r) {
    Round round;
    app.exclusive_targets = ExclusiveTargets(*db);
    app.fk_probe = true;
    driver.FixedPhase(cycles);
    for (const char* target : {kTasKy2, kTasKy}) {
      round.migrate_s.push_back(driver.OnlineMigrate(target));
      Checkpoint(*db, &model, &out->checks,
                 std::string("after traffic and MATERIALIZE ") + target);
      if (cfg.traced) ProbePrewarm(*db, &out->layers);
      if (!SampleSetup(cfg, out)) return 1;
    }
    reads += static_cast<int64_t>(app.timer.traffic.reads.size());
    round.traffic = std::move(app.timer.traffic);
    app.timer.traffic = Traffic{};
    out->rounds.push_back(std::move(round));
  }
  if (cfg.traced) {
    out->layers.Add("latch.exclusive_read_share",
                    static_cast<double>(app.exclusive_reads) /
                        static_cast<double>(reads));
    FinishPerLayer(*db, out);
  }
  return 0;
}

}  // namespace mvbench
