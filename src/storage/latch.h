#ifndef INVERDA_STORAGE_LATCH_H_
#define INVERDA_STORAGE_LATCH_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace inverda {

/// Registry of per-table reader/writer latches, keyed by physical table
/// name. Latches outlive the tables they guard: a drop-and-recreate under a
/// migration reuses the same latch, so a concurrent access blocked on the
/// old incarnation wakes up against the new one instead of a dangling lock.
/// The registry also owns the single global latch that makes the
/// granularities compatible (see TableLatchSet).
class LatchRegistry {
 public:
  LatchRegistry() = default;
  LatchRegistry(const LatchRegistry&) = delete;
  LatchRegistry& operator=(const LatchRegistry&) = delete;

  /// The latch guarding physical table `name`, created on first use.
  /// The returned reference stays valid for the registry's lifetime.
  std::shared_mutex& Latch(const std::string& name);

  /// The coarse whole-database latch.
  std::shared_mutex& global() { return global_; }

 private:
  std::mutex mu_;  // guards the map only; never held while latching
  std::map<std::string, std::unique_ptr<std::shared_mutex>> latches_;
  std::shared_mutex global_;
};

/// RAII acquisition of a set of table latches in one shot. Names are
/// deduplicated and acquired in sorted order, so any two latch sets always
/// lock their intersection in the same order — the classic deadlock-freedom
/// argument for two-phase latching without lock upgrades. Latches are
/// released in reverse order on destruction.
///
/// Granularities, kept mutually exclusive through the registry's global
/// latch:
///  - fine:   global latch *shared* + the named table latches;
///  - coarse: global latch *exclusive* only — used for footprints of more
///    than kEscalationLimit tables (lock escalation; also keeps the
///    per-thread lock count within ThreadSanitizer's 64-lock
///    deadlock-detector cap).
/// A coarse holder excludes every fine holder via the global latch, so an
/// access never observes a table whose latch it skipped.
class TableLatchSet {
 public:
  /// Footprints of more tables than this escalate to the exclusive global
  /// latch.
  static constexpr size_t kEscalationLimit = 32;

  TableLatchSet() = default;
  ~TableLatchSet() { Release(); }

  TableLatchSet(const TableLatchSet&) = delete;
  TableLatchSet& operator=(const TableLatchSet&) = delete;

  /// Latches every named table for shared (reader) or exclusive (writer)
  /// access, holding the global latch shared alongside — or escalates to
  /// the exclusive global latch when the footprint exceeds
  /// kEscalationLimit tables. Must be called at most once per instance.
  void Acquire(LatchRegistry* registry, std::vector<std::string> names,
               bool exclusive);

  /// True when the last Acquire escalated to the exclusive global latch.
  bool escalated() const { return escalated_; }

  void Release();

 private:
  /// Latches the whole database exclusively (coarse granularity).
  void AcquireGlobal(LatchRegistry* registry);
  void Push(std::shared_mutex* latch, bool exclusive);

  // Each held latch with the mode it was taken in (the global latch is
  // shared while the table latches may be exclusive).
  std::vector<std::pair<std::shared_mutex*, bool>> held_;
  bool escalated_ = false;
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_LATCH_H_
