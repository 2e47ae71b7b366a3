#include "storage/table.h"

#include <algorithm>

namespace inverda {

Status Table::CheckWidth(const Row& row) const {
  if (static_cast<int>(row.size()) == schema_.num_columns()) {
    return Status::OK();
  }
  return Status::ConstraintViolation(
      "row width " + std::to_string(row.size()) + " does not match schema " +
      schema_.ToString());
}

void Table::IndexKey(int64_t key) {
  if (order_.empty() || key > order_.back()) {
    order_.push_back(key);  // monotonic sequence keys: the common case
    return;
  }
  order_.insert(std::lower_bound(order_.begin(), order_.end(), key), key);
}

const Row* Table::Find(int64_t key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

Status Table::Insert(int64_t key, Row row) {
  INVERDA_RETURN_IF_ERROR(CheckWidth(row));
  if (!rows_.emplace(key, std::move(row)).second) {
    return Status::ConstraintViolation("duplicate key " + std::to_string(key) +
                                       " in " + schema_.name());
  }
  IndexKey(key);
  return Status::OK();
}

Status Table::Update(int64_t key, Row row) {
  INVERDA_RETURN_IF_ERROR(CheckWidth(row));
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + std::to_string(key) + " not in " +
                            schema_.name());
  }
  it->second = std::move(row);
  return Status::OK();
}

Status Table::Upsert(int64_t key, Row row) {
  INVERDA_RETURN_IF_ERROR(CheckWidth(row));
  if (rows_.insert_or_assign(key, std::move(row)).second) IndexKey(key);
  return Status::OK();
}

bool Table::Erase(int64_t key) {
  if (rows_.erase(key) == 0) return false;
  auto it = std::lower_bound(order_.begin(), order_.end(), key);
  if (it != order_.end() && *it == key) order_.erase(it);
  return true;
}

void Table::Clear() {
  rows_.clear();
  order_.clear();
}

void Table::Scan(const std::function<void(int64_t, const Row&)>& fn) const {
  for (int64_t key : order_) fn(key, rows_.find(key)->second);
}

std::vector<KeyedRow> Table::Rows() const {
  std::vector<KeyedRow> out;
  out.reserve(order_.size());
  for (int64_t key : order_) out.push_back({key, rows_.find(key)->second});
  return out;
}

bool Table::ContentEquals(const Table& other) const {
  if (!(schema_ == other.schema_)) return false;
  if (size() != other.size()) return false;
  for (const auto& [key, row] : rows_) {
    const Row* theirs = other.Find(key);
    if (theirs == nullptr || !RowsEqual(row, *theirs)) return false;
  }
  return true;
}

std::string Table::ToString() const {
  std::string out = schema_.ToString() + " [" + std::to_string(size()) +
                    " rows]\n";
  Scan([&out](int64_t key, const Row& row) {
    out += "  p=" + std::to_string(key) + " " + RowToString(row) + "\n";
  });
  return out;
}

}  // namespace inverda
