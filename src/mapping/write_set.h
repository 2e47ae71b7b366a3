#ifndef INVERDA_MAPPING_WRITE_SET_H_
#define INVERDA_MAPPING_WRITE_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/row.h"

namespace inverda {

/// Identifier of a table version in the schema version catalog.
using TvId = int;

/// One key-resolved write operation against a table version. Updates carry
/// the full new payload row (the access layer resolves predicate-based
/// updates to keys before propagation).
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kDelete };

  Kind kind = Kind::kInsert;
  int64_t key = 0;
  Row row;  // empty for kDelete

  static WriteOp Insert(int64_t key, Row row) {
    return WriteOp{Kind::kInsert, key, std::move(row)};
  }
  static WriteOp Update(int64_t key, Row row) {
    return WriteOp{Kind::kUpdate, key, std::move(row)};
  }
  static WriteOp Delete(int64_t key) { return WriteOp{Kind::kDelete, key, {}}; }
};

/// An ordered batch of writes against one table version. This is the unit
/// the generated "trigger" code exchanges while propagating writes along
/// the schema version genealogy.
struct WriteSet {
  std::vector<WriteOp> ops;

  bool empty() const { return ops.empty(); }
  void Add(WriteOp op) { ops.push_back(std::move(op)); }

  std::string ToString() const;
};

}  // namespace inverda

#endif  // INVERDA_MAPPING_WRITE_SET_H_
