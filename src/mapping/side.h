#ifndef INVERDA_MAPPING_SIDE_H_
#define INVERDA_MAPPING_SIDE_H_

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bidel/smo.h"
#include "mapping/write_set.h"
#include "storage/database.h"
#include "types/row_batch.h"
#include "util/status.h"

namespace inverda {

// TvId lives in mapping/write_set.h (included above).

/// Callback receiving one keyed row during a scan.
using RowCallback = std::function<void(int64_t, const Row&)>;

/// The services mapping kernels need from the surrounding system: reading
/// and writing table versions (which may themselves be virtual and resolve
/// recursively along the genealogy) and direct access to physical storage
/// for auxiliary tables. Implemented by inverda::AccessLayer.
class AccessBackend {
 public:
  virtual ~AccessBackend() = default;

  /// Streams all rows of table version `tv`.
  virtual Status ScanVersion(TvId tv, const RowCallback& fn) = 0;

  /// Scans all rows of table version `tv` into a columnar batch, in
  /// ascending key order: physical tables fill the batch directly, virtual
  /// versions derive through the kernels' DeriveReadBatch.
  virtual Status ScanVersionBatch(TvId tv, RowBatch* out) = 0;

  /// Looks up one row of table version `tv` by key.
  virtual Result<std::optional<Row>> FindVersion(TvId tv, int64_t key) = 0;

  /// Applies `writes` to table version `tv`, propagating further if `tv`
  /// is not physical.
  virtual Status ApplyToVersion(TvId tv, const WriteSet& writes) = 0;

  /// The physical storage (auxiliary tables, sequence).
  virtual Database& db() = 0;
};

/// Payload-keyed id memo used by identifier-generating SMOs (DECOMPOSE ON
/// FK / condition, JOIN ON condition): "on every call, idT(B) returns a new
/// unique identifier ... an already generated identifier is reused for the
/// same data". One memo per generated role (target table / combo).
///
/// Individually thread-safe; the logical read-modify-write sequences the
/// id-generating kernels perform across memo + aux tables are additionally
/// serialized by the access layer's exclusive latching of those kernels'
/// routes (Kernel::DeriveMutates).
class IdMemo {
 public:
  /// Returns the memoized id for (`role`, `payload`), drawing a fresh id
  /// from `seq` on first use.
  int64_t GetOrCreate(const std::string& role, const Row& payload,
                      Sequence& seq);

  /// Pre-seeds a mapping (used when rebuilding the memo from physical
  /// state, e.g. after migration).
  void Seed(const std::string& role, const Row& payload, int64_t id);

  /// Drops a mapping so the payload can be re-keyed later.
  void Forget(const std::string& role, const Row& payload);

  /// Looks up without creating.
  std::optional<int64_t> Find(const std::string& role,
                              const Row& payload) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unordered_map<Row, int64_t, RowHash>> maps_;
};

/// Reference to a resolved table version (id + payload schema).
struct TvRef {
  TvId id = -1;
  const TableSchema* schema = nullptr;
};

/// Everything a mapping kernel needs about one SMO instance: the SMO
/// parameters, the resolved table versions on both sides, the
/// materialization state, the physical auxiliary tables, and the backend
/// for (possibly recursive) reads and writes of neighbouring versions.
struct SmoContext {
  const Smo* smo = nullptr;
  std::vector<TvRef> sources;
  std::vector<TvRef> targets;

  /// True when the data lives on the target side of this SMO.
  bool materialized = false;

  /// Physical table names of the aux tables that exist in the current
  /// materialization state, by short name ("T_prime", "IDR", ...).
  std::map<std::string, std::string> aux_names;

  AccessBackend* backend = nullptr;
  IdMemo* memo = nullptr;

  /// The physical aux table `short_name`. Fails if it does not exist in the
  /// current materialization state.
  Result<Table*> Aux(const std::string& short_name) const;

  Sequence& seq() const { return backend->db().sequence(); }

  /// The side data is on / the side that is derived.
  SmoSide data_side() const {
    return materialized ? SmoSide::kTarget : SmoSide::kSource;
  }
  SmoSide virtual_side() const {
    return materialized ? SmoSide::kSource : SmoSide::kTarget;
  }

  const std::vector<TvRef>& side(SmoSide s) const {
    return s == SmoSide::kSource ? sources : targets;
  }
};

/// A mapping kernel implements the executable semantics of one SMO kind:
/// the delta code the paper generates as views (Derive*) and triggers
/// (Propagate). Kernels are stateless; all instance state is in SmoContext.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Short stable kernel name ("identity", "column", ...) for EXPLAIN
  /// output and diagnostics.
  virtual const char* name() const = 0;

  /// True when Derive can mutate shared state (id memos, aux id tables,
  /// the global sequence) — the id-generating kernels assign fresh
  /// identifiers even on the read path. Plans traversing such a kernel are
  /// latched exclusively by the access layer; everything else reads under
  /// shared latches and runs fully in parallel.
  virtual bool DeriveMutates() const { return false; }

  /// True when this kernel is a pure per-row projection over exactly one
  /// inner table version (identity and column mappings): deriving a row
  /// never consults other rows, never filters, and never generates ids.
  /// Such steps are eligible for plan fusion (plan::FuseSteps) — adjacent
  /// projection-only hops collapse into one composed column program.
  virtual bool ProjectionOnly() const { return false; }

  /// Point read: derives the row with key `key` of the `which`-th data
  /// table on side `side` (the non-physical side) from the physical side,
  /// or nullopt when that table has no such row. The paper's view for the
  /// table, filtered by the key.
  virtual Result<std::optional<Row>> Derive(const SmoContext& ctx,
                                            SmoSide side, int which,
                                            int64_t key) const = 0;

  /// Full scan: derives the whole content of the `which`-th table on side
  /// `side` into a columnar batch, appended in ascending key order. The
  /// only scan entry point; projection- and filter-shaped mappings run as
  /// whole-column operations.
  virtual Status DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                 int which, RowBatch* out) const = 0;

  /// Derives the content of auxiliary table `aux_short_name` (as it would
  /// be if `aux_side` became the data side). Used by migration when the
  /// materialization state flips. Default: aux stays empty.
  virtual Status DeriveAux(const SmoContext& ctx,
                           const std::string& aux_short_name,
                           Table* out) const {
    (void)ctx;
    (void)aux_short_name;
    (void)out;
    return Status::OK();
  }

  /// Propagates `writes` issued against the `which`-th data table on the
  /// *virtual* side `side` to the physical side, maintaining auxiliary
  /// tables. Writes against further-away physical data are routed through
  /// ctx.backend->ApplyToVersion.
  virtual Status Propagate(const SmoContext& ctx, SmoSide side, int which,
                           const WriteSet& writes) const = 0;
};

/// The kernel implementing `kind`, or an error for catalog-only SMOs that
/// never participate in data mapping (CREATE/DROP TABLE). Vertical SMOs
/// (DECOMPOSE/JOIN) are dispatched by their method via KernelForSmo.
Result<const Kernel*> KernelFor(SmoKind kind);

/// The kernel implementing `smo`, dispatching vertical SMOs by their
/// PK / FK / condition method.
Result<const Kernel*> KernelForSmo(const Smo& smo);

// --- shared helpers used by several kernels --------------------------------

/// True if every value of `row` is NULL (the all-ω test of the vertical
/// SMOs).
bool AllNull(const Row& row);

/// A row of `n` NULLs.
Row NullRow(int n);

/// Extracts `row`'s values at `indexes`.
Row Project(const Row& row, const std::vector<int>& indexes);

/// Keyed in-memory snapshot of a relation (commas in template ids break the
/// ASSIGN_OR_RETURN macro, hence the alias).
using RowMap = std::map<int64_t, Row>;

/// Materializes a full table version through the backend into a map.
Result<RowMap> CollectVersion(AccessBackend* backend, TvId tv);

/// Appends the rows of `table` to a columnar batch in ascending key order
/// (kept out of RowBatch itself so src/types stays independent of storage).
Status BatchFromTable(const Table& table, RowBatch* out);

}  // namespace inverda

#endif  // INVERDA_MAPPING_SIDE_H_
