// The wiki_chain workload: the 171-version Wikimedia-shaped genealogy with
// data loaded through v109, one app on the far versions v028 and v171, and
// blocking MATERIALIZE round trips v109 <-> v171 between traffic phases.
//
// The checks use properties the method must have, not a stored copy of
// earlier output:
//   PutGet      a row last written at a version reads back exactly there;
//   same count  every checked version of the page and links lineages holds
//               as many rows as the model's live pages / loaded links;
//   invariance  no checked version's contents change across a MATERIALIZE.
#include <memory>
#include <unordered_map>

#include "util/random.h"
#include "workload/wikimedia.h"
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

constexpr int kPages = 20000;
constexpr int kLinks = 40000;
constexpr int kLoadVersion = 108;  // v109
constexpr int kTopVersion = 170;   // v171
constexpr int kFarVersions[] = {27, 170};  // v028, v171
// Versions whose full contents are compared across every MATERIALIZE.
constexpr int kSnapshotVersions[] = {27, 108, 170};
constexpr int kCyclesPerSecond = 750;  // traffic cycles per --seconds
constexpr int kProbeEvery = 16;        // cycles between traced-run probes
constexpr int kRoundTrips = 4;

struct Written {
  int version = -1;
  Row row;
};

struct WikiModel {
  KeyPool live;  // live page keys
  std::unordered_map<int64_t, Written> last_write;

  void Remove(int64_t key) {
    live.Remove(key);
    last_write.erase(key);
  }
};

// Per-key row hashes of one version's table.
using Fingerprint = std::unordered_map<int64_t, size_t>;

class WikiRun {
 public:
  WikiRun(const RunConfig& cfg, RunOutput* out)
      : cfg_(cfg),
        out_(out),
        rng_(cfg.seed * 104729 + 3),
        timer_(&out->checks, cfg.traced ? &out->spans : nullptr) {}

  int Run() {
    std::vector<int64_t> keys;
    if (!Build(&sc_, &keys)) return 1;
    for (int64_t key : keys) model_.live.Add(key);
    Inverda& db = *sc_.db;
    Snapshot("after load");
    if (cfg_.corrupt) return Corrupt();
    if (cfg_.traced) {
      PlanShape shape = FarthestPlan(db, Targets());
      out_->layers.Add("plan.hops", shape.hops);
      out_->layers.Add("plan.steps", shape.steps);
      out_->layers.Add("plan.footprint_tables", shape.footprint);
      out_->layers.Add(
          "storage.bytes_per_user_byte",
          BytesPerUserByte(db, {{Version(kLoadVersion), Page(kLoadVersion)},
                                {Version(kLoadVersion), Links(kLoadVersion)}}));
      ProbeStorage(db, Version(kLoadVersion), Page(kLoadVersion),
                   std::vector<int64_t>(model_.live.keys().begin(),
                                        model_.live.keys().begin() + 10000),
                   &out_->layers);
      db.Metrics().set_timing_enabled(true);
    }
    const int cycles = cfg_.seconds * kCyclesPerSecond / (2 * kRoundTrips);
    for (int trip = 0; trip < kRoundTrips; ++trip) {
      Round round;
      for (int target : {kTopVersion, kLoadVersion}) {
        Phase(cycles);
        std::map<std::string, Fingerprint> before = Snapshot("after traffic");
        int64_t t0 = NowNs();
        Status s = db.Materialize(MaterializeRequest::Targets({Version(target)}));
        double secs = Seconds(NowNs() - t0);
        out_->checks.Attempt();
        if (!s.ok()) {
          out_->checks.Fail("MATERIALIZE " + Version(target) + ": " + s.ToString());
        }
        round.migrate_s.push_back(secs);
        std::map<std::string, Fingerprint> after =
            Snapshot("after MATERIALIZE " + Version(target));
        CompareSnapshots(before, after, "MATERIALIZE " + Version(target));
        if (cfg_.traced) {
          out_->layers.Add(target == kTopVersion ? "migrate.blocking_there_s"
                                                 : "migrate.blocking_back_s",
                           secs);
          ProbePrewarm(db, &out_->layers);
        }
        if (!SampleSetup(cfg_, out_)) return 1;
      }
      reads_ += static_cast<int64_t>(timer_.traffic.reads.size());
      round.traffic = std::move(timer_.traffic);
      timer_.traffic = Traffic{};
      out_->rounds.push_back(std::move(round));
    }
    CountEveryTenth();
    if (cfg_.traced) {
      out_->layers.Add("latch.exclusive_read_share",
                       exclusive_reads_ / static_cast<double>(reads_));
      FinishPerLayer(db, out_);
    }
    return 0;
  }

  // One set-up on a fresh instance, discarded (mvbench --setup-only).
  int SetupOnly() {
    std::vector<int64_t> keys;
    inverda::WikimediaScenario sc;
    return Build(&sc, &keys) ? 0 : 1;
  }

 private:
  const std::string& Version(int i) const {
    return sc_.versions[static_cast<size_t>(i)];
  }
  const std::string& Page(int i) const {
    return sc_.page_table[static_cast<size_t>(i)];
  }
  const std::string& Links(int i) const {
    return sc_.links_table[static_cast<size_t>(i)];
  }
  std::vector<std::pair<std::string, std::string>> Targets() const {
    std::vector<std::pair<std::string, std::string>> t;
    for (int v : kFarVersions) t.emplace_back(Version(v), Page(v));
    return t;
  }

  // One set-up: builds the genealogy, materializes v109, loads the pages
  // and links through it and warms up with full Selects of the far
  // versions. Adds its time to out_->setup_s; `keys` receives the page keys.
  bool Build(inverda::WikimediaScenario* out_sc, std::vector<int64_t>* keys) {
    int64_t t0 = NowNs();
    auto sc = inverda::BuildWikimedia({});
    if (!sc.ok()) {
      std::fprintf(stderr, "genealogy: %s\n", sc.status().ToString().c_str());
      return false;
    }
    int64_t evolve_ns = NowNs() - t0;
    Inverda& db = *sc->db;
    Status s = db.Materialize(MaterializeRequest::Targets({"v109"}));
    auto loaded = s.ok() ? inverda::LoadWikimediaData(&*sc, kLoadVersion, kPages,
                                                      kLinks, cfg_.seed)
                         : inverda::Result<std::vector<int64_t>>(s);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return false;
    }
    *keys = std::move(*loaded);
    for (int v : kFarVersions) {
      if (!db.Select(sc->versions[static_cast<size_t>(v)],
                     sc->page_table[static_cast<size_t>(v)]).ok() ||
          !db.Select(sc->versions[static_cast<size_t>(v)],
                     sc->links_table[static_cast<size_t>(v)]).ok()) {
        return false;
      }
    }
    out_->setup_s.push_back(Seconds(NowNs() - t0));
    if (cfg_.traced) {
      out_->layers.Add("catalog.evolve_ms",
                       static_cast<double>(evolve_ns) * 1e-6 /
                           static_cast<double>(sc->versions.size()));
    }
    *out_sc = std::move(*sc);
    return true;
  }

  Row RandomRow(int v, Random* rng) {
    auto schema = sc_.db->GetSchema(Version(v), Page(v));
    Row row;
    for (const inverda::Column& c : schema->columns()) {
      if (c.type == inverda::DataType::kInt64) {
        row.push_back(Value::Int(rng->NextInt64(0, 1000)));
      } else {
        row.push_back(Value::String(rng->NextString(10)));
      }
    }
    return row;
  }

  std::string Where(int v, int64_t key) const {
    return Version(v) + "." + Page(v) + " key=" + std::to_string(key);
  }

  // Checks one page row seen at version v: exact when the key was last
  // written at v, else only its width.
  void CheckRow(int v, int64_t key, const std::optional<Row>& got,
                size_t width, const char* what) {
    auto it = model_.last_write.find(key);
    if (!got) {
      out_->checks.Fail(std::string(what) + " " + Where(v, key) + ": absent");
    } else if (it != model_.last_write.end() && it->second.version == v) {
      if (!inverda::RowsEqual(*got, it->second.row)) {
        out_->checks.Fail(std::string(what) + " " + Where(v, key) + " expected " +
                          inverda::RowToString(it->second.row) + " got " +
                          inverda::RowToString(*got));
      }
    } else if (got->size() != width) {
      out_->checks.Fail(std::string(what) + " " + Where(v, key) + " width " +
                        std::to_string(got->size()));
    }
  }

  // The class label of far version v (string literals, see Traffic).
  static const char* Label(int v) { return v == kFarVersions[0] ? "v028" : "v171"; }

  template <typename F>
  auto Timed(bool write, const char* name, int v, int64_t* op, F&& call) {
    return timer_.Point(write, name, Label(v), "page", op, call);
  }

  void Get(int v, bool probe) {
    int64_t key = model_.live.Pick(&rng_);
    int64_t op = 0;
    auto got = Timed(/*write=*/false, "inverda.Get", v, &op,
                     [&] { return sc_.db->Get(Version(v), Page(v), key); });
    if (probe) {
      ReadProbe p{op, model_.live.Pick(&probe_rng_), model_.live.Pick(&probe_rng_),
                  model_.live.Pick(&probe_rng_)};
      ProbeRead(*sc_.db, Version(v), Page(v), p, out_);
    }
    if (!got.ok()) {
      out_->checks.Fail("Get " + Where(v, key) + ": " + got.status().ToString());
      return;
    }
    CheckRow(v, key, *got, width_[v], "Get");
  }

  void Insert(int v) {
    Row row = RandomRow(v, &rng_);
    Row copy = row;
    int64_t op = 0;
    auto key = Timed(/*write=*/true, "inverda.Insert", v, &op, [&] {
      return sc_.db->Insert(Version(v), Page(v), std::move(row));
    });
    if (!key.ok()) {
      out_->checks.Fail("Insert " + Version(v) + ": " + key.status().ToString());
      return;
    }
    model_.live.Add(*key);
    model_.last_write[*key] = {v, std::move(copy)};
  }

  void Update(int v, bool probe) {
    int64_t key = model_.live.Pick(&rng_);
    Row row = RandomRow(v, &rng_);
    Row copy = row;
    int64_t op = 0;
    Status s = Timed(/*write=*/true, "inverda.Update", v, &op, [&] {
      return sc_.db->Update(Version(v), Page(v), key, std::move(row));
    });
    if (!s.ok()) {
      out_->checks.Fail("Update " + Where(v, key) + ": " + s.ToString());
      return;
    }
    model_.last_write[key] = {v, std::move(copy)};
    if (probe) {
      // Two more keys get fresh rows from the probes' own generator, so the
      // app's sequence of operations matches the untraced run.
      // Probe writes land in order, so the model keeps the last of them.
      WriteProbe p;
      p.op = op;
      p.apply_key = model_.live.Pick(&probe_rng_);
      p.apply_row = RandomRow(v, &probe_rng_);
      p.update_key = model_.live.Pick(&probe_rng_);
      p.update_row = RandomRow(v, &probe_rng_);
      p.trace_key = model_.live.Pick(&probe_rng_);
      p.trace_row = RandomRow(v, &probe_rng_);
      ProbeWrite(*sc_.db, Version(v), Page(v), p, out_);
      model_.last_write[p.apply_key] = {v, p.apply_row};
      model_.last_write[p.update_key] = {v, p.update_row};
      model_.last_write[p.trace_key] = {v, p.trace_row};
    }
  }

  void Delete(int v) {
    int64_t key = model_.live.Pick(&rng_);
    int64_t op = 0;
    Status s = Timed(/*write=*/true, "inverda.Delete", v, &op,
                     [&] { return sc_.db->Delete(Version(v), Page(v), key); });
    if (!s.ok()) {
      out_->checks.Fail("Delete " + Where(v, key) + ": " + s.ToString());
      return;
    }
    model_.Remove(key);
  }

  // A timed full Select of v's page or links table, checked against the
  // model (untimed).
  void Select(int v, bool links, bool probe) {
    const std::string& table = links ? Links(v) : Page(v);
    int64_t op = 0;
    int64_t ns = 0;
    auto rows = timer_.Select(Label(v), links ? "links" : "page", &op, &ns,
                              [&] { return sc_.db->Select(Version(v), table); });
    if (!rows.ok()) {
      out_->checks.Fail("Select " + Version(v) + "." + table + ": " +
                        rows.status().ToString());
      return;
    }
    if (probe) {
      ProbeSelect(*sc_.db, Version(v), table, ns,
                  static_cast<int64_t>(rows->size()), op, out_);
    }
    size_t want = links ? static_cast<size_t>(kLinks) : model_.live.size();
    if (rows->size() != want) {
      out_->checks.Fail("Select " + Version(v) + "." + table + " has " +
                        std::to_string(rows->size()) + " rows, model " +
                        std::to_string(want));
    }
    if (links) return;
    for (const KeyedRow& r : *rows) {
      CheckRow(v, r.key, r.row, width_[v], "Select");
    }
  }

  void Cycle() {
    bool probe = cfg_.traced && cycle_ % kProbeEvery == 0;
    for (int v : kFarVersions) {
      if (width_.count(v) == 0) {
        width_[v] = sc_.db->GetSchema(Version(v), Page(v))->columns().size();
      }
      if (cfg_.traced) {
        auto tv = sc_.db->catalog().ResolveTable(Version(v), Page(v));
        auto plan = sc_.db->access().GetPlan(*tv);
        exclusive_now_[v] = (*plan)->derive_mutates;
      }
      for (int i = 0; i < 8; ++i) {
        Get(v, probe && i == 0);
        if (exclusive_now_[v]) exclusive_reads_ += 1;
      }
      Insert(v);
      Update(v, probe);
      Delete(v);
    }
    ++cycle_;
  }

  // `cycles` cycles and, halfway through, a full Select of the page and
  // links tables of both far versions.
  void Phase(int cycles) {
    for (int i = 0; i < cycles; ++i) {
      Cycle();
      if (i != cycles / 2) continue;
      for (int v : kFarVersions) {
        Select(v, /*links=*/false, cfg_.traced);
        Select(v, /*links=*/true, cfg_.traced);
      }
    }
  }

  // Full contents of the snapshot versions, checked for row counts.
  std::map<std::string, Fingerprint> Snapshot(const std::string& when) {
    std::map<std::string, Fingerprint> snap;
    for (int v : kSnapshotVersions) {
      for (bool links : {false, true}) {
        const std::string& table = links ? Links(v) : Page(v);
        out_->checks.Attempt();
        auto rows = sc_.db->Select(Version(v), table);
        if (!rows.ok()) {
          out_->checks.Fail(when + ": Select " + Version(v) + "." + table +
                            ": " + rows.status().ToString());
          continue;
        }
        size_t want = links ? static_cast<size_t>(kLinks) : model_.live.size();
        if (rows->size() != want) {
          out_->checks.Fail(when + ": " + Version(v) + "." + table + " has " +
                            std::to_string(rows->size()) + " rows, model " +
                            std::to_string(want));
        }
        Fingerprint& fp = snap[Version(v) + "." + table];
        for (const KeyedRow& r : *rows) fp[r.key] = inverda::HashRow(r.row);
      }
    }
    return snap;
  }

  // Reports every row that differs between two snapshots taken around
  // `what` (a MATERIALIZE, or the self-test's corruption).
  void CompareSnapshots(const std::map<std::string, Fingerprint>& before,
                        const std::map<std::string, Fingerprint>& after,
                        const std::string& what) {
    for (const auto& [name, fp] : before) {
      auto it = after.find(name);
      if (it == after.end()) continue;
      for (const auto& [key, hash] : fp) {
        auto found = it->second.find(key);
        if (found == it->second.end() || found->second != hash) {
          out_->checks.Fail(what + " changed " + name + " key=" +
                            std::to_string(key));
        }
      }
      if (fp.size() != it->second.size()) {
        out_->checks.Fail(what + " changed the row count of " + name);
      }
    }
  }

  // Row counts of every tenth version's page and links tables.
  void CountEveryTenth() {
    for (size_t v = 0; v < sc_.versions.size(); v += 10) {
      for (bool links : {false, true}) {
        int i = static_cast<int>(v);
        const std::string& table = links ? Links(i) : Page(i);
        out_->checks.Attempt();
        auto rows = sc_.db->Select(Version(i), table);
        size_t want = links ? static_cast<size_t>(kLinks) : model_.live.size();
        if (!rows.ok() || rows->size() != want) {
          out_->checks.Fail("row count of " + Version(i) + "." + table);
        }
      }
    }
  }

  // Self-test: overwrite one stored page row of the physical v109 table,
  // then re-run the checks: the snapshot comparison must report it.
  int Corrupt() {
    std::map<std::string, Fingerprint> before = Snapshot("self-test");
    auto tv = sc_.db->catalog().ResolveTable(Version(kLoadVersion), Page(kLoadVersion));
    auto plan = sc_.db->access().GetPlan(*tv);
    auto table = sc_.db->db().GetTable((*plan)->data_table);
    int64_t key = model_.live.keys().front();
    Row row = *(*table)->Find(key);
    row[0] = Value::String("corrupted");
    Status s = (*table)->Update(key, row);
    std::fprintf(stderr, "self-test: overwrote %s key=%lld (%s)\n",
                 (*plan)->data_table.c_str(), static_cast<long long>(key),
                 s.ToString().c_str());
    CompareSnapshots(before, Snapshot("self-test"), "self-test corruption");
    return 0;
  }

  const RunConfig& cfg_;
  RunOutput* out_;
  Random rng_;
  Random probe_rng_{0x5eed};  // keys and rows of the traced run's probes
  inverda::WikimediaScenario sc_;
  WikiModel model_;
  AppTimer timer_;
  std::map<int, size_t> width_;
  std::map<int, bool> exclusive_now_;
  double exclusive_reads_ = 0;
  int64_t cycle_ = 0;
  int64_t reads_ = 0;
};

}  // namespace

int RunWikiChain(const RunConfig& config, RunOutput* out) {
  WikiRun run(config, out);
  return run.Run();
}

int SetupWikiChain(const RunConfig& config, RunOutput* out) {
  WikiRun run(config, out);
  return run.SetupOnly();
}

}  // namespace mvbench
