#ifndef INVERDA_INVERDA_INVERDA_H_
#define INVERDA_INVERDA_INVERDA_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "catalog/catalog.h"
#include "expr/expression.h"
#include "mapping/side.h"
#include "migrate/coordinator.h"
#include "obs/observability.h"
#include "plan/compiler.h"
#include "plan/plan.h"
#include "storage/database.h"
#include "util/status.h"
#include "verify/verifier.h"

namespace inverda {

class Inverda;

/// Implements AccessBackend on top of the catalog and physical storage: it
/// is the executable form of the generated delta code. A thin executor
/// over compiled access plans (src/plan): each operation resolves the
/// table version's plan — a cache hit on the hot path, one compile per
/// materialization epoch otherwise — and executes its first step; the
/// mapping kernels recurse through the rest of the chain (Figure 6's three
/// cases applied transitively).
///
/// Concurrency (docs/concurrency.md): every top-level operation latches the
/// physical tables in its plan's footprint through the database's
/// LatchRegistry — shared for pure reads, exclusive for writes and for
/// plans whose read path mutates id state (TvPlan::derive_mutates) — so
/// reads across any mix of schema versions run fully in parallel and
/// conflict only when their footprints overlap a writer's. Kernel recursion
/// re-enters under the top-level latch set (a thread-local depth counter
/// suppresses nested acquisition). Catalog-shape changes never race with
/// operations: the Inverda facade serializes DDL against all data access.
/// The configuration setters (set_fusion_enabled, set_verify_enabled) are
/// not thread-safe; configure before going concurrent.
class AccessLayer : public AccessBackend {
 public:
  /// `obs` is the owning facade's observability bundle: the constructor
  /// caches counter/histogram pointers for the hot paths and registers the
  /// plan cache and compiler as pull-sources of the registry.
  AccessLayer(VersionCatalog* catalog, Database* db, obs::Observability* obs);

  Status ScanVersion(TvId tv, const RowCallback& fn) override;
  Status ScanVersionBatch(TvId tv, RowBatch* out) override;
  Result<std::optional<Row>> FindVersion(TvId tv, int64_t key) override;
  Status ApplyToVersion(TvId tv, const WriteSet& writes) override;
  Database& db() override { return *db_; }

  /// Builds the execution context of one SMO instance under the current
  /// materialization (delegates to the plan compiler; used by migration to
  /// derive aux tables for a flipped state).
  Result<SmoContext> BuildContext(SmoId id);

  /// Number of SMO instances a read/write of `tv` is propagated through
  /// before reaching physical data (0 when physical). This is the compiled
  /// plan's step count.
  Result<int> PropagationDistance(TvId tv);

  /// The compiled access plan of `tv` under the current materialization
  /// epoch, caching on first use. The pointer stays valid until the next
  /// evolution, migration, or drop. Used by EXPLAIN and the executor.
  Result<const plan::TvPlan*> GetPlan(TvId tv);

  /// Fusion toggle (plan/fused.h): forwards to the plan compiler and drops
  /// every cached plan so subsequent compiles reflect the setting. On by
  /// default; the off state is the hop-by-hop baseline. Not thread-safe.
  void set_fusion_enabled(bool enabled) {
    compiler_.set_fusion_enabled(enabled);
    plan_cache_.Clear();
  }
  bool fusion_enabled() const { return compiler_.fusion_enabled(); }

  /// Post-compile verification gate (verify/verifier.h): forwards to the
  /// plan compiler and drops every cached plan so subsequent compiles pass
  /// through the gate. Off by default; rejected fusions are counted in the
  /// registry as plan_verify.fusion_rejected. Not thread-safe.
  void set_verify_enabled(bool enabled) {
    compiler_.set_verify_enabled(enabled);
    plan_cache_.Clear();
  }
  bool verify_enabled() const { return compiler_.verify_enabled(); }

  /// Arms the compiler's intentional fusion miscompile (mutation self-test)
  /// and drops cached plans so it takes effect immediately. Test-only; not
  /// thread-safe.
  void set_fusion_mutation_for_test(plan::FusionMutation mutation) {
    compiler_.set_fusion_mutation_for_test(mutation);
    plan_cache_.Clear();
  }

  /// Diagnostics the verify gate emitted while rejecting fusions (drains).
  std::vector<Diagnostic> TakeVerifyDiagnostics() {
    return compiler_.TakeVerifyDiagnostics();
  }

  /// The plan compiler, for catalog-wide verification (VerifyGenealogy)
  /// and other read-only consumers.
  const plan::PlanCompiler& compiler() const { return compiler_; }

  /// Migration write capture (docs/migration.md): when an observer is
  /// installed — always under the facade's exclusive DDL lock — every
  /// top-level ApplyToVersion reports its write set after the data landed,
  /// while the writer still holds the shared catalog lock. That ordering is
  /// what makes the coordinator's delta log complete: a backfill derivation
  /// that read pre-write data either finds the key queued for replay or is
  /// followed by the key (re)entering the log.
  void set_write_observer(migrate::WriteObserver* observer) {
    write_observer_.store(observer, std::memory_order_release);
  }

  /// Compiles the plan of every live table version under the current
  /// materialization epoch into the plan cache. The migration flip calls
  /// this inside its exclusive window (the dual-plan epoch window): the old
  /// epoch's plans serve until the flip, and the first post-flip access of
  /// each version hits a warm cache. Returns the first compile error.
  Status PrewarmPlans();

  /// Per-table-version operation counters — the advisor's lifetime
  /// workload signal: top-level reads (scan/find) and writes (apply) per
  /// TvId since startup or the last ResetMetrics. Always on (one relaxed
  /// fetch_add per top-level operation); table versions beyond
  /// kMaxProfiledTvs go uncounted. Returns (reads, writes) per TvId,
  /// zero-count versions omitted.
  std::map<TvId, std::pair<int64_t, int64_t>> AccessProfile() const;
  void ResetAccessProfile();

 private:
  /// The body of ApplyToVersion; the public entry point wraps it with the
  /// migration write-capture hook so every exit path reports exactly once.
  Status ApplyToVersionImpl(TvId tv, const WriteSet& writes);

  /// Latches the operation's physical footprint at the top level of an
  /// access (a no-op when the calling thread is already inside one — kernel
  /// recursion runs under the enclosing latch set). Pure reads take shared
  /// latches on the footprint; writes and plans whose Derive mutates id
  /// state take them exclusively.
  void AcquireLatches(TableLatchSet* latches, const plan::TvPlan& p,
                      bool write, bool timed);

  /// Per-kernel latency/row metrics, resolved from the kernel's stable
  /// singleton pointer through a small lock-free slot array (the mutex is
  /// only taken once per distinct kernel, to register it). Returns nullptr
  /// past kMaxKernels distinct kernels (such a kernel goes unmetered).
  struct KernelMetrics {
    obs::Histogram* derive_ns = nullptr;
    obs::Histogram* propagate_ns = nullptr;
    obs::Counter* derive_rows = nullptr;
  };
  KernelMetrics* MetricsForKernel(const Kernel* kernel);

  enum class StepCall { kDerive, kPropagate };

  /// Runs one plan step's kernel call (`call`: the step's Derive,
  /// DeriveBatch or Propagate) under its "derive"/"propagate" span and its
  /// per-kernel timer. `rows` counts the rows a derivation produced or a
  /// propagation received. With every gate off (`hot == 0`) the call runs
  /// bare, with no guard objects.
  template <typename Call, typename Rows>
  Status RunStep(uint32_t hot, StepCall kind, const plan::PlanStep& step,
                 const Call& call, const Rows& rows);

  VersionCatalog* catalog_;
  Database* db_;

  obs::Observability* obs_;
  // Hot-path metric pointers, cached once at construction.
  obs::Histogram* scan_ns_;
  obs::Histogram* find_ns_;
  obs::Histogram* apply_ns_;
  obs::Histogram* latch_ns_;
  obs::Counter* latch_fine_;
  obs::Counter* latch_escalations_;

  static constexpr size_t kMaxKernels = 16;
  struct KernelSlot {
    std::atomic<const Kernel*> kernel{nullptr};
    KernelMetrics metrics;
  };
  std::array<KernelSlot, kMaxKernels> kernel_slots_;
  std::mutex kernel_slots_mu_;  // serializes slot registration only

  /// Per-version access counters, indexed directly by TvId (ids are small
  /// and dense — the catalog hands them out sequentially). Lock-free on
  /// the hot path: one relaxed fetch_add at the top level of an access.
  static constexpr int kMaxProfiledTvs = 256;
  struct TvAccessSlot {
    std::atomic<int64_t> reads{0};
    std::atomic<int64_t> writes{0};
  };
  std::array<TvAccessSlot, kMaxProfiledTvs> tv_access_;
  void CountAccess(TvId tv, bool write) {
    if (access_depth_ != 0) return;  // kernel recursion is one client op
    if (tv < 0 || tv >= kMaxProfiledTvs) return;
    TvAccessSlot& slot = tv_access_[static_cast<size_t>(tv)];
    (write ? slot.writes : slot.reads).fetch_add(1, std::memory_order_relaxed);
  }

  plan::PlanCompiler compiler_;
  plan::PlanCache plan_cache_;

  // Migration write-capture sink; null outside an active migration.
  std::atomic<migrate::WriteObserver*> write_observer_{nullptr};
  // Recursion depth of the calling thread across ScanVersion / FindVersion
  // / ApplyToVersion: latches are taken only at the top level of an access
  // chain.
  static thread_local int access_depth_;
};

/// One materialization request — the single argument of Materialize.
/// Exactly one variant must be set: `targets` (MATERIALIZE syntax,
/// "Version" or "Version.table") or an explicit materialization `schema`
/// (SMO instance ids). Both modes run the same MigrationCoordinator job
/// (docs/migration.md): `online` runs it in the background while clients
/// keep running, and `wait` (online only) additionally blocks until it
/// reaches a terminal phase and returns its terminal status. A blocking
/// request runs the job inline and returns its status, so it ignores
/// `wait`.
struct MaterializeRequest {
  std::vector<std::string> targets;
  std::optional<std::set<SmoId>> schema;
  bool online = false;
  bool wait = true;

  static MaterializeRequest Targets(std::vector<std::string> t,
                                    bool online = false, bool wait = true) {
    MaterializeRequest r;
    r.targets = std::move(t);
    r.online = online;
    r.wait = wait;
    return r;
  }
  static MaterializeRequest Schema(std::set<SmoId> m, bool online = false,
                                   bool wait = true) {
    MaterializeRequest r;
    r.schema = std::move(m);
    r.online = online;
    r.wait = wait;
    return r;
  }
};

/// The InVerDa facade: schema evolution (BiDEL), migration (MATERIALIZE),
/// and per-version data access against a single shared data set.
///
/// Thread-safe: any number of client threads may run the data-access
/// operations concurrently (each takes the catalog lock shared; actual
/// data conflicts are resolved by the access layer's per-table latches),
/// while the DDL operations — CreateSchemaVersion, DropSchemaVersion,
/// Materialize — take it exclusively, so every access observes the catalog
/// and its materialization epoch either entirely before or entirely after
/// a schema change, never a torn route. Introspection accessors (catalog(),
/// db(), access()) hand out unguarded references; use them from a single
/// thread or during quiesce.
class Inverda {
 public:
  Inverda();

  Inverda(const Inverda&) = delete;
  Inverda& operator=(const Inverda&) = delete;

  // --- developer interface --------------------------------------------------

  /// Parses and executes a BiDEL script: any number of CREATE SCHEMA
  /// VERSION / DROP SCHEMA VERSION / MATERIALIZE statements.
  Status Execute(const std::string& bidel_script);

  /// The Database Evolution Operation: registers the evolution and creates
  /// all physical tables and delta code state. The new schema version is
  /// immediately readable and writable.
  Status CreateSchemaVersion(const EvolutionStatement& stmt);

  Status DropSchemaVersion(const std::string& name);

  // --- DBA interface ---------------------------------------------------------

  /// The Database Migration Operation: moves the physical data so the
  /// requested targets (or the explicit schema) are physically stored,
  /// migrates auxiliary state, and drops stale physical tables,
  /// all-or-nothing. One engine, the MigrationCoordinator, runs it either
  /// way. Blocking by default: the job runs inline under the exclusive DDL
  /// lock, deriving every staged table once. `request.online` runs it in
  /// the background instead — readers and writers keep running while the
  /// coordinator backfills chunk-by-chunk and replays concurrently captured
  /// writes, and the commit is a brief exclusive epoch flip. Both modes are
  /// recorded in MigrationState(). While an online migration is active all
  /// other DDL (evolution, drops, a second MATERIALIZE) is
  /// rejected with InvalidState; behind a blocking one it waits.
  Status Materialize(const MaterializeRequest& request);

  // --- online migration (docs/migration.md) ----------------------------------

  /// Blocks until no migration is active; returns the terminal status of
  /// the last migration (OK when none ran or it committed).
  Status WaitForMigration();

  /// Requests abort of the active migration and waits for the unwind; the
  /// live database and the plan-cache epoch come back untouched. OK when
  /// the migration ended aborted or had already committed.
  Status AbortMigration();

  /// Progress snapshot of the migration coordinator (shell MIGRATIONS).
  migrate::MigrationStatus MigrationState() const { return migrate_.Snapshot(); }

  /// Fault-injection/pacing hooks for the migration test battery.
  void set_migration_test_hooks(migrate::TestHooks hooks) {
    migrate_.set_test_hooks(std::move(hooks));
  }

  // --- materialization advisor (docs/advisor.md) ------------------------------

  /// Profiles the observed workload (or explicit weights), prices every
  /// valid materialization schema through the cost model, and returns the
  /// ranked report. Runs under the shared catalog lock, concurrently with
  /// client traffic.
  Result<advisor::AdviseReport> Advise(
      const advisor::AdviseOptions& options = {}) {
    return advisor_.Recommend(options);
  }

  /// The advisor subsystem itself: auto-materialize knobs
  /// (set_auto_materialize_enabled, threshold, cooldown) and AutoTick.
  advisor::Advisor& advisor() { return advisor_; }
  const advisor::Advisor& advisor() const { return advisor_; }

  // --- data access -----------------------------------------------------------

  /// Full scan of `table` as visible in schema version `version`.
  Result<std::vector<KeyedRow>> Select(const std::string& version,
                                       const std::string& table);

  /// Scan with a predicate over the version's payload columns.
  Result<std::vector<KeyedRow>> SelectWhere(const std::string& version,
                                            const std::string& table,
                                            const Expression& predicate);

  /// Point lookup by the InVerDa-managed key.
  Result<std::optional<Row>> Get(const std::string& version,
                                 const std::string& table, int64_t key);

  /// Inserts a row; the key is drawn from the global sequence and returned.
  Result<int64_t> Insert(const std::string& version, const std::string& table,
                         Row row);

  Status Update(const std::string& version, const std::string& table,
                int64_t key, Row row);
  Status Delete(const std::string& version, const std::string& table,
                int64_t key);

  /// Updates all rows matching `predicate` with `make_row(old)`; returns the
  /// number of affected rows.
  Result<int64_t> UpdateWhere(const std::string& version,
                              const std::string& table,
                              const Expression& predicate,
                              const std::function<Row(const Row&)>& make_row);

  /// Deletes all rows matching `predicate`; returns the number deleted.
  Result<int64_t> DeleteWhere(const std::string& version,
                              const std::string& table,
                              const Expression& predicate);

  // --- introspection ----------------------------------------------------------

  const VersionCatalog& catalog() const { return catalog_; }
  VersionCatalog& catalog() { return catalog_; }
  Database& db() { return db_; }
  AccessLayer& access() { return access_; }

  // --- observability ---------------------------------------------------------

  /// The unified stats surface (docs/observability.md): every component's
  /// counters and latency histograms — plan cache, compiler, latches,
  /// per-kernel timings, migrations, tracer — in one registry.
  /// Safe to snapshot concurrently with client traffic.
  obs::MetricsRegistry& Metrics() { return obs_.metrics; }
  const obs::MetricsRegistry& Metrics() const { return obs_.metrics; }

  /// The single reset point: zeroes every push metric and invokes every
  /// component's reset hook (plan-cache stats, the access profile).
  /// Monotonic sources (compiler walk counters, trace.completed) keep
  /// their values.
  void ResetMetrics() { obs_.metrics.Reset(); }

  /// Per-operation access tracing (TRACE ON|OFF|LAST in the shell). Off by
  /// default; toggling is safe while clients run.
  obs::Tracer& tracer() { return obs_.tracer; }
  const obs::Tracer& tracer() const { return obs_.tracer; }

  obs::Observability& observability() { return obs_; }

  /// Statically verifies every compiled plan of the current genealogy
  /// (verify/verifier.h): GetPut/PutGet round-trip obligations per hop,
  /// translation validation of fused steps, and the cross-plan lock-order
  /// analysis. Runs under the shared catalog lock, so it can execute
  /// concurrently with client traffic; fails only on compile errors —
  /// verification findings come back as diagnostics in the summary.
  Result<verify::VerifySummary> VerifyPlans(
      const verify::VerifyOptions& options = {});

  /// The payload schema of `table` in `version`.
  Result<TableSchema> GetSchema(const std::string& version,
                                const std::string& table);

 private:
  friend class AccessLayer;
  friend class migrate::MigrationCoordinator;
  friend class advisor::Advisor;

  // Creates the physical tables required by a freshly registered SMO
  // instance (data tables of physically-stored targets + aux tables of the
  // initial state).
  Status ProvisionSmo(SmoId id);

  Result<TvId> Resolve(const std::string& version, const std::string& table);

  // Bodies of the public operations that other operations call internally;
  // they assume the caller already holds catalog_mu_ (shared_mutex is not
  // recursive, so the public wrappers must not re-enter each other).
  Result<std::vector<KeyedRow>> SelectWhereLocked(const std::string& version,
                                                  const std::string& table,
                                                  const Expression& predicate);

  /// InvalidState while an online migration is active; DDL callers check
  /// this after taking the exclusive lock.
  Status CheckNoActiveMigration() const;

  // The DDL/DML boundary: shared for data access, exclusive for schema
  // evolution, migration, and version drops.
  mutable std::shared_mutex catalog_mu_;

  VersionCatalog catalog_;
  Database db_;
  // Declared before access_: the access layer caches registry pointers and
  // registers pull-sources in its constructor, and those sources must
  // outlive it on destruction (members destroy in reverse order).
  obs::Observability obs_;
  AccessLayer access_;
  // No background thread of its own; evaluations run on whichever client
  // thread crosses the check interval (after releasing its shared lock).
  advisor::Advisor advisor_;
  // Declared last: destroys first, joining any in-flight migration worker
  // while the catalog, storage, access layer and advisor are still alive.
  migrate::MigrationCoordinator migrate_;
};

}  // namespace inverda

#endif  // INVERDA_INVERDA_INVERDA_H_
