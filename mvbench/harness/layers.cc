// Layer probes of the traced run and the per-layer metric list.
#include <memory>

#include "workloads.h"

namespace mvbench {

using inverda::Inverda;
using inverda::Row;

namespace {

// Repeats `call` with the engine's access tracer on and adds the kernel
// self times of the newest trace rooted at `label`.
template <typename F>
void TraceKernels(Inverda& db, const std::string& label, F&& call,
                  Layers* layers) {
  inverda::obs::Tracer& tracer = db.tracer();
  tracer.set_enabled(true);
  call();
  tracer.set_enabled(false);
  for (const auto& trace : tracer.Last(tracer.capacity())) {
    if (trace->label == label) {
      AddKernelSelfTimes(*trace, layers);
      return;
    }
  }
}

// Times one benchmark call as a child span of `op`.
template <typename F>
int64_t Span(RunOutput* out, const char* name, int64_t op, F&& call) {
  int32_t span = out->spans.Begin(name, op);
  int64_t t0 = NowNs();
  call();
  int64_t ns = NowNs() - t0;
  out->spans.End(span);
  return ns;
}

}  // namespace

int64_t ProbeRead(Inverda& db, const std::string& version,
                  const std::string& table, const ReadProbe& probe,
                  RunOutput* out) {
  inverda::TvId tv = -1;
  int64_t resolve_ns = Span(out, "catalog.ResolveTable", probe.op, [&] {
    tv = *db.catalog().ResolveTable(version, table);
  });
  const inverda::plan::TvPlan* plan = nullptr;
  int64_t plan_ns = Span(out, "plan.GetPlan", probe.op,
                         [&] { plan = *db.access().GetPlan(tv); });
  int64_t find_ns = 0;
  int64_t get_ns = 0;
  auto find = [&] {
    find_ns = Span(out, "access.FindVersion", probe.op, [&] {
      (void)db.access().FindVersion(tv, probe.find_key);
    });
  };
  auto get = [&] {
    get_ns = Span(out, "inverda.Get", probe.op,
                  [&] { (void)db.Get(version, table, probe.get_key); });
  };
  // The second call finds code and plan warmer; alternating the order
  // cancels that in the median.
  if (probe.op % 2 == 0) {
    find();
    get();
  } else {
    get();
    find();
  }
  out->layers.Add("inverda.get_self_ns",
                  static_cast<double>(get_ns - resolve_ns - find_ns));
  out->layers.Add("catalog.resolve_ns", static_cast<double>(resolve_ns));
  out->layers.Add("plan.lookup_ns", static_cast<double>(plan_ns));
  TraceKernels(db, plan->label,
               [&] { (void)db.Get(version, table, probe.trace_key); },
               &out->layers);
  return find_ns;
}

int64_t ProbeWrite(Inverda& db, const std::string& version,
                   const std::string& table, const WriteProbe& probe,
                   RunOutput* out) {
  inverda::TvId tv = -1;
  int64_t resolve_ns = Span(out, "catalog.ResolveTable", probe.op, [&] {
    tv = *db.catalog().ResolveTable(version, table);
  });
  inverda::WriteSet writes;
  writes.Add(inverda::WriteOp::Update(probe.apply_key, probe.apply_row));
  int64_t apply_ns = 0;
  int64_t update_ns = 0;
  auto apply = [&] {
    apply_ns = Span(out, "access.ApplyToVersion", probe.op,
                    [&] { (void)db.access().ApplyToVersion(tv, writes); });
  };
  auto update = [&] {
    update_ns = Span(out, "inverda.Update", probe.op, [&] {
      (void)db.Update(version, table, probe.update_key, probe.update_row);
    });
  };
  if (probe.op % 2 == 0) {
    apply();
    update();
  } else {
    update();
    apply();
  }
  out->layers.Add("inverda.write_self_ns",
                  static_cast<double>(update_ns - resolve_ns - apply_ns));
  out->layers.Add("catalog.resolve_ns", static_cast<double>(resolve_ns));
  const inverda::plan::TvPlan* plan = *db.access().GetPlan(tv);
  TraceKernels(
      db, plan->label,
      [&] { (void)db.Update(version, table, probe.trace_key, probe.trace_row); },
      &out->layers);
  return apply_ns;
}

void ProbeSelect(Inverda& db, const std::string& version,
                 const std::string& table, int64_t select_ns, int64_t rows,
                 int64_t op, RunOutput* out) {
  inverda::TvId tv = *db.catalog().ResolveTable(version, table);
  int64_t scan_ns = Span(out, "access.ScanVersionBatch", op, [&] {
    inverda::RowBatch batch;
    (void)db.access().ScanVersionBatch(tv, &batch);
  });
  if (rows > 0) {
    out->layers.Add("inverda.select_ns_per_row",
                    static_cast<double>(select_ns - scan_ns) /
                        static_cast<double>(rows));
  }
  const inverda::plan::TvPlan* plan = *db.access().GetPlan(tv);
  TraceKernels(db, plan->label, [&] { (void)db.Select(version, table); },
               &out->layers);
}

void ProbeStorage(Inverda& db, const std::string& version,
                  const std::string& table, const std::vector<int64_t>& keys,
                  Layers* layers) {
  inverda::TvId tv = *db.catalog().ResolveTable(version, table);
  const inverda::plan::TvPlan* plan = *db.access().GetPlan(tv);
  auto data = db.db().GetTableConst(plan->data_table);
  if (!data.ok()) return;
  const inverda::Table* t = *data;
  int64_t t0 = NowNs();
  int64_t found = 0;
  for (int64_t key : keys) found += t->Find(key) != nullptr ? 1 : 0;
  int64_t find_ns = NowNs() - t0;
  if (!keys.empty()) {
    layers->Add("storage.find_ns", static_cast<double>(find_ns) /
                                       static_cast<double>(keys.size()));
  }
  int64_t rows = 0;
  t0 = NowNs();
  t->Scan([&](int64_t, const Row&) { ++rows; });
  int64_t scan_ns = NowNs() - t0;
  if (rows > 0) {
    layers->Add("storage.scan_ns_per_row",
                static_cast<double>(scan_ns) / static_cast<double>(rows));
  }
  (void)found;
}

void ProbePrewarm(Inverda& db, Layers* layers) {
  // Re-setting the fusion flag to its current value drops every cached
  // plan, so the prewarm below compiles each live version once.
  db.access().set_fusion_enabled(db.access().fusion_enabled());
  int64_t t0 = NowNs();
  (void)db.access().PrewarmPlans();
  layers->Add("plan.prewarm_ms", static_cast<double>(NowNs() - t0) * 1e-6);
}

PlanShape FarthestPlan(
    Inverda& db,
    const std::vector<std::pair<std::string, std::string>>& targets) {
  PlanShape best;
  for (const auto& [version, table] : targets) {
    auto tv = db.catalog().ResolveTable(version, table);
    if (!tv.ok()) continue;
    auto plan = db.access().GetPlan(*tv);
    if (!plan.ok()) continue;
    if ((*plan)->distance() >= best.hops) {
      best.hops = (*plan)->distance();
      best.steps = static_cast<int>((*plan)->steps.size());
      best.footprint = static_cast<int>((*plan)->footprint.size());
    }
  }
  return best;
}

double BytesPerUserByte(
    Inverda& db,
    const std::vector<std::pair<std::string, std::string>>& visible) {
  int64_t physical = 0;
  for (const std::string& name : db.db().TableNames()) {
    auto table = db.db().GetTableConst(name);
    if (!table.ok()) continue;
    (*table)->Scan([&](int64_t, const Row& row) { physical += RowBytes(row); });
  }
  int64_t user = 0;
  for (const auto& [version, table] : visible) {
    auto rows = db.Select(version, table);
    if (!rows.ok()) continue;
    for (const inverda::KeyedRow& r : *rows) user += RowBytes(r.row);
  }
  return user > 0 ? static_cast<double>(physical) / static_cast<double>(user)
                  : 0;
}

void FinishPerLayer(Inverda& db, RunOutput* out) {
  const Layers& l = out->layers;
  inverda::obs::MetricsSnapshot snap = db.Metrics().Snapshot();
  std::vector<Metric>& m = out->per_layer;
  m.push_back({"inverda.get_self_ns", l.Median("inverda.get_self_ns"), "ns"});
  m.push_back(
      {"inverda.write_self_ns", l.Median("inverda.write_self_ns"), "ns"});
  m.push_back({"inverda.select_ns_per_row",
               l.Median("inverda.select_ns_per_row"), "ns"});
  m.push_back({"catalog.resolve_ns", l.Median("catalog.resolve_ns"), "ns"});
  m.push_back({"catalog.evolve_ms", l.Mean("catalog.evolve_ms"), "ms"});
  m.push_back({"plan.lookup_ns", l.Median("plan.lookup_ns"), "ns"});
  m.push_back({"plan.prewarm_ms", l.Median("plan.prewarm_ms"), "ms"});
  m.push_back({"plan_cache.compiles",
               static_cast<double>(snap.value("plan_cache.compiles")),
               "count"});
  m.push_back({"plan.hops", l.Mean("plan.hops"), "count"});
  m.push_back({"plan.steps", l.Mean("plan.steps"), "count"});
  m.push_back({"plan.footprint_tables", l.Mean("plan.footprint_tables"),
               "count"});
  for (const char* kernel : {"fk", "partition", "column", "fused-column"}) {
    std::string k = kernel;
    m.push_back({"kernel." + k + ".derive_ns", l.Median(k + ".derive"), "ns"});
    m.push_back(
        {"kernel." + k + ".propagate_ns", l.Median(k + ".propagate"), "ns"});
    m.push_back({"kernel." + k + ".derive_rows",
                 static_cast<double>(snap.value("kernel." + k + ".derive_rows")),
                 "count"});
  }
  m.push_back({"mapping.fk_point_us", l.Mean("mapping.fk_point_us"), "us"});
  m.push_back({"storage.find_ns", l.Median("storage.find_ns"), "ns"});
  m.push_back(
      {"storage.scan_ns_per_row", l.Median("storage.scan_ns_per_row"), "ns"});
  m.push_back({"storage.bytes_per_user_byte",
               l.Mean("storage.bytes_per_user_byte"), "ratio"});
  const inverda::obs::Histogram::Snapshot* latch =
      snap.histogram("latch.acquire_ns");
  m.push_back(
      {"latch.acquire_ns", latch != nullptr ? latch->mean_ns() : 0.0, "ns"});
  m.push_back({"latch.exclusive_read_share",
               l.Mean("latch.exclusive_read_share"), "share"});
  m.push_back({"migrate.copy_s", l.Mean("migrate.copy_s"), "s"});
  m.push_back({"migrate.catchup_s", l.Mean("migrate.catchup_s"), "s"});
  m.push_back({"migrate.flip_ms", l.Mean("migrate.flip_ms"), "ms"});
  m.push_back(
      {"migrate.catchup_rounds", l.Mean("migrate.catchup_rounds"), "count"});
  m.push_back({"migrate.refreshes", l.Mean("migrate.refreshes"), "count"});
  m.push_back(
      {"migrate.keys_captured", l.Mean("migrate.keys_captured"), "count"});
  m.push_back({"migrate.rows_copied", l.Mean("migrate.rows_copied"), "count"});
  m.push_back(
      {"migrate.app_ops_per_s", l.Mean("migrate.app_ops_per_s"), "1/s"});
  m.push_back(
      {"migrate.blocking_there_s", l.Mean("migrate.blocking_there_s"), "s"});
  m.push_back(
      {"migrate.blocking_back_s", l.Mean("migrate.blocking_back_s"), "s"});
}

}  // namespace mvbench
