#ifndef INVERDA_CATALOG_CATALOG_H_
#define INVERDA_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bidel/parser.h"
#include "bidel/smo.h"
#include "mapping/side.h"
#include "util/status.h"

namespace inverda {

using SmoId = int;

/// One table version: a vertex of the schema genealogy. Every table version
/// is created by exactly one incoming SMO instance and evolved by
/// arbitrarily many outgoing ones (Section 3 of the paper).
struct TableVersion {
  TvId id = -1;
  std::string name;    // table name as visible in its schema versions
  TableSchema schema;  // payload schema (schema.name() == name)
  SmoId incoming = -1;
  std::vector<SmoId> outgoing;
};

/// One SMO instance: a hyperedge of the schema genealogy, evolving a set of
/// source table versions into a set of target table versions, with a
/// materialization state.
struct SmoInstance {
  SmoId id = -1;
  SmoPtr smo;
  std::vector<TvId> sources;
  std::vector<TvId> targets;

  /// True when the data lives on the target side. CREATE TABLE instances
  /// are always materialized; DROP TABLE instances never are.
  bool materialized = false;

  /// Auxiliary tables, resolved against the source schemas at registration.
  std::vector<AuxDef> aux_defs;

  /// Id memo for identifier-generating SMOs (shared so contexts can borrow
  /// it without owning).
  std::shared_ptr<IdMemo> memo = std::make_shared<IdMemo>();
};

/// A schema version: a named subset of all table versions.
struct SchemaVersionInfo {
  std::string name;
  std::map<std::string, TvId> tables;  // visible table name -> table version
  std::optional<std::string> parent;

  /// Creation sequence number (0 for the first registered version).
  int order = 0;

  /// The SMO instances of the CREATE SCHEMA VERSION statement that created
  /// this version, in statement order.
  std::vector<SmoId> smos;

  /// Lint findings (warnings/notes from src/analysis) recorded when the
  /// version was created; shown by DescribeVersion/DescribeCatalog.
  std::vector<std::string> lint_warnings;
};

/// Outcome of dropping a schema version: what was garbage collected.
struct DropResult {
  std::vector<TvId> removed_tables;
  std::vector<SmoId> removed_smos;
};

/// Reachability of one SMO instance over the genealogy hypergraph: the
/// table versions upstream of the instance (its sources and their
/// ancestors) and downstream of it (its targets and their descendants).
/// A table version's access path can pass through the instance iff the
/// version is in one of the two sets.
struct SmoReach {
  std::set<TvId> upstream;
  std::set<TvId> downstream;
};

/// The schema version catalog: the central knowledge base for all schema
/// versions and the evolutions between them, stored as a directed acyclic
/// hypergraph of table versions and SMO instances.
class VersionCatalog {
 public:
  VersionCatalog() = default;

  // The catalog owns the genealogy; it is not copyable.
  VersionCatalog(const VersionCatalog&) = delete;
  VersionCatalog& operator=(const VersionCatalog&) = delete;

  // --- registration --------------------------------------------------------

  /// Registers a CREATE SCHEMA VERSION statement: resolves each SMO against
  /// the evolving table map, derives target schemas, and records the new
  /// schema version. Newly created SMO instance ids are returned in order.
  Result<std::vector<SmoId>> ApplyEvolution(const EvolutionStatement& stmt);

  /// Drops a schema version and garbage-collects table versions and SMO
  /// instances that no longer connect surviving versions. Fails with
  /// InvalidState if dropping would strand materialized data (materialize a
  /// surviving version first).
  Result<DropResult> DropVersion(const std::string& name);

  // --- queries --------------------------------------------------------------

  bool HasVersion(const std::string& name) const;
  Result<const SchemaVersionInfo*> FindVersion(const std::string& name) const;
  std::vector<std::string> VersionNames() const;

  /// Attaches lint findings to an existing schema version (recorded by the
  /// Evolve gate after the analyzer ran). Replaces previous findings.
  Status SetLintWarnings(const std::string& version,
                         std::vector<std::string> warnings);

  /// Version names in creation order (the genealogy replay order).
  std::vector<std::string> VersionNamesInOrder() const;

  /// The table version visible as `table` in schema version `version`.
  Result<TvId> ResolveTable(const std::string& version,
                            const std::string& table) const;

  const TableVersion& table_version(TvId id) const { return tvs_.at(id); }
  const SmoInstance& smo(SmoId id) const { return smos_.at(id); }
  SmoInstance& mutable_smo(SmoId id) { return smos_.at(id); }
  bool HasSmo(SmoId id) const { return smos_.count(id) > 0; }

  std::vector<TvId> AllTableVersions() const;
  std::vector<SmoId> AllSmos() const;

  /// A short unique label like "Task-0" for diagnostics and Table 2 output.
  std::string TvLabel(TvId id) const;

  // --- physical naming ------------------------------------------------------

  /// Name of the physical data table backing table version `id`.
  std::string DataTableName(TvId id) const;

  /// Name of the physical table backing aux `short_name` of SMO `id`.
  std::string AuxTableName(SmoId id, const std::string& short_name) const;

  // --- materialization (materialization.cc) ---------------------------------

  /// True when table version `id` is physically stored under the current
  /// materialization: its incoming SMO is materialized and no outgoing SMO
  /// is (Figure 6, case 1).
  bool IsPhysical(TvId id) const;

  /// The current materialization schema: ids of materialized SMO instances
  /// (excluding the always-materialized CREATE TABLE instances).
  std::set<SmoId> CurrentMaterialization() const;

  /// Validates conditions (55) and (56) of the paper for `m`.
  Status CheckValidMaterialization(const std::set<SmoId>& m) const;

  /// The physically stored table versions under materialization `m`.
  std::vector<TvId> PhysicalTables(const std::set<SmoId>& m) const;

  /// The materialization schema that makes every listed table version
  /// physically stored (the incoming SMOs of all their ancestors).
  Result<std::set<SmoId>> MaterializationForTables(
      const std::vector<TvId>& tables) const;

  /// All valid materialization schemas (Table 2). Fails when there are more
  /// than `limit` candidate SMOs (the enumeration is exponential).
  Result<std::vector<std::set<SmoId>>> EnumerateValidMaterializations(
      int limit = 20) const;

  /// The aux short names of SMO `id` that are physically present when its
  /// materialization state is `materialized`.
  std::vector<std::string> PhysicalAuxNames(SmoId id, bool materialized) const;

  // --- reachability index (reachability.cc) ---------------------------------

  /// Upstream/downstream table versions of SMO instance `id`. Built lazily
  /// from the genealogy and cached until the structure changes.
  const SmoReach& Reach(SmoId id) const;

  /// The undirected connected component of `id` in the genealogy
  /// hypergraph: the table versions that can share physical data with `id`
  /// under some materialization. Writes to `id` can never affect a version
  /// outside its component.
  const std::set<TvId>& ComponentOf(TvId id) const;

  /// Monotonic counter bumped whenever the genealogy structure changes
  /// (evolution or drop); lets callers detect staleness of anything they
  /// derived from the genealogy in O(1).
  uint64_t structure_epoch() const {
    return structure_epoch_.load(std::memory_order_acquire);
  }

  /// Monotonic counter bumped whenever anything that can change a compiled
  /// access plan changes: the genealogy structure (evolution, drop) or the
  /// materialization state of any SMO instance (migration). Compiled plans
  /// (src/plan) are pinned to this epoch, so staleness is one compare.
  /// Atomic so concurrent readers load it without coordination; bumps only
  /// happen under the facade's exclusive catalog lock, so within a serving
  /// phase every reader observes the same value.
  uint64_t materialization_epoch() const {
    return materialization_epoch_.load(std::memory_order_acquire);
  }

  /// Records a materialization-state change. Called by the migration
  /// operation after flipping SMO instances (including on rollback);
  /// structural changes bump the counter internally.
  void BumpMaterializationEpoch() {
    materialization_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  Result<TvId> NewTableVersion(std::string name, TableSchema schema,
                               SmoId incoming);

  /// Rebuilds the reachability index if the structure changed since the
  /// last build.
  void EnsureReachability() const;

  std::map<TvId, TableVersion> tvs_;
  std::map<SmoId, SmoInstance> smos_;
  std::map<std::string, SchemaVersionInfo> versions_;
  int next_tv_id_ = 0;
  int next_smo_id_ = 0;
  int next_version_order_ = 0;

  std::atomic<uint64_t> structure_epoch_{1};
  std::atomic<uint64_t> materialization_epoch_{1};
  // Lazily built reachability index, valid while reach_epoch_ matches
  // structure_epoch_. The build is double-checked under reach_mu_ so the
  // first concurrent readers after an evolution do not race on it; once
  // built, the index is immutable until the next structural change (which
  // happens under the facade's exclusive catalog lock).
  mutable std::mutex reach_mu_;
  mutable std::atomic<uint64_t> reach_epoch_{0};
  mutable std::map<SmoId, SmoReach> reach_;
  mutable std::vector<std::set<TvId>> components_;
  mutable std::map<TvId, size_t> component_of_;
};

}  // namespace inverda

#endif  // INVERDA_CATALOG_CATALOG_H_
