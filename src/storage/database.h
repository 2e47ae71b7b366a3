#ifndef INVERDA_STORAGE_DATABASE_H_
#define INVERDA_STORAGE_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/latch.h"
#include "storage/sequence.h"
#include "storage/table.h"
#include "util/status.h"

namespace inverda {

/// The physical storage layer: a set of named physical tables (payload data
/// tables and auxiliary tables) plus the global id sequence. This is the
/// component the paper delegates to the underlying DBMS; here it is a small
/// in-memory engine.
class Database {
 public:
  Database() = default;

  // Physical storage holds unique state; moving is fine, copying is not.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  Sequence& sequence() { return sequence_; }

  /// Per-table reader/writer latches keyed by physical table name, plus the
  /// global fallback latch. The access layer acquires a sorted latch set
  /// over an operation's table footprint before touching any data; the
  /// registry itself is created eagerly so it survives Database moves.
  LatchRegistry& latches() { return *latches_; }

  bool HasTable(const std::string& name) const;

  /// Creates an empty physical table. Fails with AlreadyExists.
  Status CreateTable(TableSchema schema);

  /// Installs a prebuilt table under its schema name. Fails with
  /// AlreadyExists.
  Status AddTable(Table table);

  /// Drops a physical table. Fails with NotFound.
  Status DropTable(const std::string& name);

  /// Mutable/immutable access to a physical table.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTableConst(const std::string& name) const;

  /// Renames a physical table.
  Status RenameTable(const std::string& from, const std::string& to);

  std::vector<std::string> TableNames() const;

  int64_t TotalRows() const;

  /// Multi-line dump of every table (debugging).
  std::string ToString() const;

 private:
  std::map<std::string, Table> tables_;
  Sequence sequence_;
  std::unique_ptr<LatchRegistry> latches_ = std::make_unique<LatchRegistry>();
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_DATABASE_H_
