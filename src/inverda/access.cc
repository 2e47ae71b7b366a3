#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "inverda/inverda.h"

namespace inverda {

thread_local int AccessLayer::access_depth_ = 0;

namespace {

// Decrements the access recursion depth on every exit path.
struct DepthGuard {
  int* depth;
  explicit DepthGuard(int* d) : depth(d) { ++*depth; }
  ~DepthGuard() { --*depth; }
};

// Copies the step metadata EXPLAIN prints into a derive/propagate span, so
// a trace is directly comparable to the compiled plan it executed.
void FillStepSpan(obs::TraceSpan* span, const plan::PlanStep& step) {
  span->smo = step.smo;
  span->route =
      step.route == plan::RouteCase::kForward ? "forward" : "backward";
  span->side = step.side == SmoSide::kSource ? "source" : "target";
  span->index = step.index;
  span->kernel = step.kernel->name();
  span->smo_text = step.smo_text;
  for (const auto& [aux, physical_name] : step.ctx.aux_names) {
    span->aux.emplace_back(aux, physical_name);
  }
  if (step.is_fused()) {
    span->fused = static_cast<int>(step.fused.size());
    for (const plan::PlanStep& sub : step.fused) {
      span->fused_hops.emplace_back(sub.kernel->name(), sub.smo_text);
    }
  }
}

Status ApplyOpToTable(Table* table, const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      return table->Insert(op.key, op.row);
    case WriteOp::Kind::kUpdate:
      return table->Update(op.key, op.row);
    case WriteOp::Kind::kDelete:
      table->Erase(op.key);
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace

// --- observability wiring ---------------------------------------------------

AccessLayer::AccessLayer(VersionCatalog* catalog, Database* db,
                         obs::Observability* obs)
    : catalog_(catalog), db_(db), obs_(obs), compiler_(catalog, this) {
  obs::MetricsRegistry& m = obs_->metrics;
  // Push metrics: pointers cached once, bumped lock-free on the hot path.
  scan_ns_ = m.histogram("access.scan_ns");
  find_ns_ = m.histogram("access.find_ns");
  apply_ns_ = m.histogram("access.apply_ns");
  latch_ns_ = m.histogram("latch.acquire_ns");
  latch_fine_ = m.counter("latch.fine_grained");
  latch_escalations_ = m.counter("latch.escalations");
  // Pull sources: the plan cache already keeps its own counters —
  // exporting them through callbacks keeps one source of truth, so the
  // registry can never drift from the component's own view.
  m.RegisterSource(
      "plan_cache",
      [this] {
        plan::PlanCacheStats s = plan_cache_.stats();
        return std::vector<obs::MetricValue>{
            {"plan_cache.hits", s.hits},
            {"plan_cache.compiles", s.compiles},
            {"plan_cache.invalidations", s.invalidations},
            {"plan_cache.route_walks", s.route_walks},
            {"plan_cache.context_builds", s.context_builds},
            {"plan_cache.size", plan_cache_.size()}};
      },
      [this] { plan_cache_.ResetStats(); });
  // The compiler's walk counters are monotonic by contract (the plan cache
  // diffs them around compiles), so this source has no reset hook.
  m.RegisterSource("plan_compiler", [this] {
    return std::vector<obs::MetricValue>{
        {"plan_compiler.route_walks", compiler_.route_walks()},
        {"plan_compiler.context_builds", compiler_.context_builds()}};
  });
  // Verify-gate rejections are monotonic too: a rejection means a fused
  // step failed translation validation and fell back to its unfused hops.
  m.RegisterSource("plan_verify", [this] {
    return std::vector<obs::MetricValue>{
        {"plan_verify.fusion_rejected", compiler_.fusion_rejections()}};
  });
  // Per-version access totals feed the advisor's workload profiler; a reset
  // via the registry opens a fresh observation window.
  m.RegisterSource(
      "access_profile",
      [this] {
        int64_t reads = 0, writes = 0;
        for (const TvAccessSlot& slot : tv_access_) {
          reads += slot.reads.load(std::memory_order_relaxed);
          writes += slot.writes.load(std::memory_order_relaxed);
        }
        return std::vector<obs::MetricValue>{{"profile.reads", reads},
                                             {"profile.writes", writes}};
      },
      [this] { ResetAccessProfile(); });
}

std::map<TvId, std::pair<int64_t, int64_t>> AccessLayer::AccessProfile() const {
  std::map<TvId, std::pair<int64_t, int64_t>> profile;
  for (int tv = 0; tv < kMaxProfiledTvs; ++tv) {
    const int64_t reads = tv_access_[tv].reads.load(std::memory_order_relaxed);
    const int64_t writes =
        tv_access_[tv].writes.load(std::memory_order_relaxed);
    if (reads != 0 || writes != 0) profile[tv] = {reads, writes};
  }
  return profile;
}

void AccessLayer::ResetAccessProfile() {
  for (TvAccessSlot& slot : tv_access_) {
    slot.reads.store(0, std::memory_order_relaxed);
    slot.writes.store(0, std::memory_order_relaxed);
  }
}

AccessLayer::KernelMetrics* AccessLayer::MetricsForKernel(
    const Kernel* kernel) {
  // Lock-free fast path: kernels are static singletons, so a handful of
  // pointer compares resolves every kernel after its first access.
  for (KernelSlot& slot : kernel_slots_) {
    const Kernel* cur = slot.kernel.load(std::memory_order_acquire);
    if (cur == kernel) return &slot.metrics;
    if (cur == nullptr) break;
  }
  std::lock_guard<std::mutex> lock(kernel_slots_mu_);
  for (KernelSlot& slot : kernel_slots_) {
    const Kernel* cur = slot.kernel.load(std::memory_order_relaxed);
    if (cur == kernel) return &slot.metrics;
    if (cur != nullptr) continue;
    const std::string base = std::string("kernel.") + kernel->name();
    slot.metrics.derive_ns = obs_->metrics.histogram(base + ".derive_ns");
    slot.metrics.propagate_ns = obs_->metrics.histogram(base + ".propagate_ns");
    slot.metrics.derive_rows = obs_->metrics.counter(base + ".derive_rows");
    // Publish last: readers that see the kernel pointer see wired metrics.
    slot.kernel.store(kernel, std::memory_order_release);
    return &slot.metrics;
  }
  return nullptr;  // more than kMaxKernels distinct kernels: unmetered
}

// --- compiled plans ---------------------------------------------------------

Result<SmoContext> AccessLayer::BuildContext(SmoId id) {
  return compiler_.BuildContext(id);
}

Result<const plan::TvPlan*> AccessLayer::GetPlan(TvId tv) {
  return plan_cache_.Get(tv, catalog_->materialization_epoch(), compiler_);
}

Status AccessLayer::PrewarmPlans() {
  // Compile every table version's plan at the current epoch. Called inside
  // the migration flip window (exclusive catalog lock held) right after the
  // epoch bump, so the first post-flip access of every version hits a warm
  // cache instead of paying compilation inside its own critical path — the
  // "dual-plan epoch window" collapses to the flip itself.
  for (TvId tv : catalog_->AllTableVersions()) {
    INVERDA_RETURN_IF_ERROR(GetPlan(tv).status());
  }
  return Status::OK();
}

Result<int> AccessLayer::PropagationDistance(TvId tv) {
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* p, GetPlan(tv));
  return p->distance();
}

// --- latching ---------------------------------------------------------------

void AccessLayer::AcquireLatches(TableLatchSet* latches, const plan::TvPlan& p,
                                 bool write, bool timed) {
  // Kernel recursion (and migration staging inside the DDL-exclusive
  // facade section) runs under the top-level latch set; re-acquiring here
  // would self-deadlock on exclusive latches.
  if (access_depth_ > 0) return;
  // Latch instrumentation sits on every operation, so it records only
  // under the detailed-timing gate (`timed` is the caller's single
  // hot-flags load, see Observability::hot()).
  obs::ScopedTimer timer(timed ? latch_ns_ : nullptr);
  const bool exclusive = write || p.derive_mutates;
  // The footprint lists every physical table any access path of the
  // version can touch, so it covers both the derivation closure of reads
  // and the sibling derivations of a write's propagation chain.
  latches->Acquire(&db_->latches(), p.footprint, exclusive);
  if (timed) [[unlikely]] {
    if (latches->escalated()) {
      latch_escalations_->Add(1);
    } else {
      latch_fine_->Add(1);
    }
  }
}

// --- plan steps -------------------------------------------------------------

template <typename Call, typename Rows>
Status AccessLayer::RunStep(uint32_t hot, StepCall kind,
                            const plan::PlanStep& step, const Call& call,
                            const Rows& rows) {
  // Fast path: no guard objects at all when every gate is off — nested
  // kernel recursion multiplies this block's entry cost.
  if (hot == 0) [[likely]] return call();
  const bool derive = kind == StepCall::kDerive;
  obs::SpanGuard span(
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr,
      derive ? "derive" : "propagate");
  if (span) {
    FillStepSpan(span.get(), step);
    if (!derive) span->rows_in = rows();
  }
  KernelMetrics* km = (hot & obs::Observability::kTimingBit) != 0
                          ? MetricsForKernel(step.kernel)
                          : nullptr;
  obs::ScopedTimer kernel_timer(km == nullptr ? nullptr
                                : derive      ? km->derive_ns
                                              : km->propagate_ns);
  INVERDA_RETURN_IF_ERROR(call());
  if (derive) {
    const int64_t produced = rows();
    if (km != nullptr) km->derive_rows->Add(produced);
    if (span) span->rows_out = produced;
  }
  return Status::OK();
}

// --- reads ------------------------------------------------------------------

Status AccessLayer::ScanVersion(TvId tv, const RowCallback& fn) {
  CountAccess(tv, /*write=*/false);
  // Latency lands in the histogram only at the top level of an access
  // chain; nested (kernel-recursive) scans are part of the enclosing op.
  // Timers and per-kernel metrics record only under the detailed-timing
  // gate — two clock reads per measurement are unaffordable on a
  // sub-microsecond point get — and both gates arrive in one packed
  // relaxed load (see Observability::hot()).
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? scan_ns_ : nullptr);
  obs::SpanGuard span(tracer, "scan");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* resolved, GetPlan(tv));
  const plan::TvPlan& p = *resolved;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/false, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      span->rows_out = table->size();
    }
    table->Scan(fn);
    return Status::OK();
  }
  // Columnar derivation: the chain below runs through the kernels' batch
  // entry points and the result streams straight to the caller — no
  // intermediate row-major table.
  const plan::PlanStep& step = p.steps.front();
  RowBatch batch;
  INVERDA_RETURN_IF_ERROR(RunStep(
      hot, StepCall::kDerive, step, [&] { return step.DeriveBatch(&batch); },
      [&] { return batch.selected_count(); }));
  if (span) [[unlikely]] span->rows_out = batch.selected_count();
  batch.ForEach(fn);
  return Status::OK();
}

Status AccessLayer::ScanVersionBatch(TvId tv, RowBatch* out) {
  // The columnar counterpart of ScanVersion: physical versions fill the
  // batch straight from the data table, virtual ones derive through the
  // kernels' batch entry points (PlanStep::DeriveBatch). Kernel recursion
  // re-enters here, so a batch scan stays columnar down the whole chain.
  CountAccess(tv, /*write=*/false);
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? scan_ns_ : nullptr);
  obs::SpanGuard span(tracer, "scan");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* resolved, GetPlan(tv));
  const plan::TvPlan& p = *resolved;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/false, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      span->rows_out = table->size();
    }
    return BatchFromTable(*table, out);
  }
  const plan::PlanStep& step = p.steps.front();
  INVERDA_RETURN_IF_ERROR(RunStep(
      hot, StepCall::kDerive, step, [&] { return step.DeriveBatch(out); },
      [&] { return out->selected_count(); }));
  if (span) [[unlikely]] span->rows_out = out->selected_count();
  return Status::OK();
}

Result<std::optional<Row>> AccessLayer::FindVersion(TvId tv, int64_t key) {
  CountAccess(tv, /*write=*/false);
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? find_ns_ : nullptr);
  obs::SpanGuard span(tracer, "find");
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* resolved, GetPlan(tv));
  const plan::TvPlan& p = *resolved;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/false, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(const Table* table,
                             db_->GetTableConst(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
    }
    const Row* row = table->Find(key);
    if (row == nullptr) return std::optional<Row>();
    if (span) [[unlikely]] span->rows_out = 1;
    return std::optional<Row>(*row);
  }
  const plan::PlanStep& step = p.steps.front();
  std::optional<Row> row;
  INVERDA_RETURN_IF_ERROR(RunStep(
      hot, StepCall::kDerive, step,
      [&]() -> Status {
        INVERDA_ASSIGN_OR_RETURN(row, step.Derive(key));
        return Status::OK();
      },
      [&] { return row ? int64_t{1} : int64_t{0}; }));
  if (row && span) [[unlikely]] span->rows_out = 1;
  return row;
}

// --- writes -----------------------------------------------------------------

Status AccessLayer::ApplyToVersion(TvId tv, const WriteSet& writes) {
  if (!writes.empty()) CountAccess(tv, /*write=*/true);
  const bool top_level = access_depth_ == 0;
  Status status = ApplyToVersionImpl(tv, writes);
  if (top_level) {
    // Online-migration capture: notify after the data landed (all latches
    // released) but while the writer still holds its shared catalog lock,
    // so the coordinator's final exclusive drain can never miss a capture.
    // Notified even on failure — a partially applied write set may have
    // propagated some ops, and re-deriving a clean key is harmless.
    migrate::WriteObserver* observer =
        write_observer_.load(std::memory_order_acquire);
    if (observer != nullptr && !writes.empty()) [[unlikely]] {
      observer->OnWrite(tv, writes);
    }
  }
  return status;
}

Status AccessLayer::ApplyToVersionImpl(TvId tv, const WriteSet& writes) {
  if (writes.empty()) return Status::OK();
  const uint32_t hot = obs_->hot();
  const bool timed = (hot & obs::Observability::kTimingBit) != 0;
  obs::Tracer* tracer =
      (hot & obs::Observability::kTracingBit) != 0 ? &obs_->tracer : nullptr;
  obs::ScopedTimer op_timer(timed && access_depth_ == 0 ? apply_ns_ : nullptr);
  obs::SpanGuard span(tracer, "apply");
  if (span) [[unlikely]] span->rows_in = static_cast<int64_t>(writes.ops.size());
  INVERDA_ASSIGN_OR_RETURN(const plan::TvPlan* resolved, GetPlan(tv));
  const plan::TvPlan& p = *resolved;
  if (span) [[unlikely]] span->label = p.label;
  TableLatchSet latches;
  AcquireLatches(&latches, p, /*write=*/true, timed);
  DepthGuard guard(&access_depth_);
  if (p.physical) {
    INVERDA_ASSIGN_OR_RETURN(Table * table, db_->GetTable(p.data_table));
    if (span) [[unlikely]] {
      span->route = "physical";
      span->note = "data table " + p.data_table;
      span->rows_out = static_cast<int64_t>(writes.ops.size());
    }
    for (const WriteOp& op : writes.ops) {
      INVERDA_RETURN_IF_ERROR(ApplyOpToTable(table, op));
    }
    return Status::OK();
  }
  const plan::PlanStep& step = p.steps.front();
  return RunStep(
      hot, StepCall::kPropagate, step, [&] { return step.Propagate(writes); },
      [&] { return static_cast<int64_t>(writes.ops.size()); });
}

}  // namespace inverda
