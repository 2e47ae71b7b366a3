#ifndef INVERDA_STORAGE_TABLE_H_
#define INVERDA_STORAGE_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "schema/schema.h"
#include "types/row.h"
#include "util/status.h"

namespace inverda {

/// A physical table of the relational substrate: a row store keyed by the
/// InVerDa-managed identifier `p`. The key is unique per table, which gives
/// the rule sets their "unique key p" guarantee (Lemma 5) and makes the
/// multiset semantics of SQL fit the set semantics of the Datalog rules.
///
/// Rows live in one hash map, next to an ascending key index
/// (docs/storage.md). Every order-visible API (Scan, Rows, Keys, ToString)
/// walks that index, so scans are deterministic and present the rows in
/// ascending key order — the invariant the golden tests, the kernels and
/// the cross-validation suites rely on.
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  const TableSchema& schema() const { return schema_; }
  void set_schema(TableSchema schema) { schema_ = std::move(schema); }

  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  bool Contains(int64_t key) const { return rows_.count(key) > 0; }

  /// Pointer to the payload of row `key`, or nullptr.
  const Row* Find(int64_t key) const;

  /// Inserts (key, row). Fails with ConstraintViolation if the key exists or
  /// the payload width does not match the schema.
  Status Insert(int64_t key, Row row);

  /// Replaces the payload of row `key`. Fails with NotFound if absent.
  Status Update(int64_t key, Row row);

  /// Inserts or replaces, with width check only.
  Status Upsert(int64_t key, Row row);

  /// Deletes row `key`; returns true if a row was removed.
  bool Erase(int64_t key);

  void Clear();

  /// Calls `fn(key, row)` for every row in ascending key order.
  void Scan(const std::function<void(int64_t, const Row&)>& fn) const;

  /// All rows as keyed tuples, ascending by key.
  std::vector<KeyedRow> Rows() const;

  /// All keys, ascending.
  std::vector<int64_t> Keys() const { return order_; }

  /// Set equality: same schema column names/types and same keyed rows.
  bool ContentEquals(const Table& other) const;

  /// Multi-line debug rendering (ascending by key).
  std::string ToString() const;

 private:
  Status CheckWidth(const Row& row) const;
  /// Adds a freshly inserted key to the ascending index.
  void IndexKey(int64_t key);

  TableSchema schema_;
  std::unordered_map<int64_t, Row> rows_;
  // The ascending key index, maintained incrementally by every key-set
  // mutation (in-place updates leave it alone). The hash map has no
  // iteration order, and sorting on every Scan doubled the FK/COND
  // propagation path, which scans its aux tables once per propagated
  // operation. Keys are drawn from the monotonic global sequence, so the
  // sorted insert is an O(1) append in the common case. The index is only
  // written under the same exclusive table latch as the map it mirrors.
  std::vector<int64_t> order_;
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_TABLE_H_
