#include "mapping/side.h"

#include <utility>

namespace inverda {

int64_t IdMemo::GetOrCreate(const std::string& role, const Row& payload,
                            Sequence& seq) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& map = maps_[role];
  auto it = map.find(payload);
  if (it != map.end()) return it->second;
  int64_t id = seq.Next();
  map.emplace(payload, id);
  return id;
}

void IdMemo::Seed(const std::string& role, const Row& payload, int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  maps_[role][payload] = id;
}

void IdMemo::Forget(const std::string& role, const Row& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(role);
  if (it != maps_.end()) it->second.erase(payload);
}

std::optional<int64_t> IdMemo::Find(const std::string& role,
                                    const Row& payload) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(role);
  if (it == maps_.end()) return std::nullopt;
  auto jt = it->second.find(payload);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second;
}

Result<Table*> SmoContext::Aux(const std::string& short_name) const {
  auto it = aux_names.find(short_name);
  if (it == aux_names.end()) {
    return Status::Internal("aux table " + short_name +
                            " not present in the current materialization of " +
                            smo->ToString());
  }
  return backend->db().GetTable(it->second);
}

bool AllNull(const Row& row) {
  for (const Value& v : row) {
    if (!v.is_null()) return false;
  }
  return true;
}

Row NullRow(int n) { return Row(static_cast<size_t>(n)); }

Row Project(const Row& row, const std::vector<int>& indexes) {
  Row out;
  out.reserve(indexes.size());
  for (int i : indexes) out.push_back(row[static_cast<size_t>(i)]);
  return out;
}

Result<RowMap> CollectVersion(AccessBackend* backend, TvId tv) {
  RowMap rows;
  INVERDA_RETURN_IF_ERROR(backend->ScanVersion(
      tv, [&rows](int64_t key, const Row& row) { rows[key] = row; }));
  return rows;
}

Status BatchFromTable(const Table& table, RowBatch* out) {
  INVERDA_RETURN_IF_ERROR(
      out->SetNumColumns(table.schema().num_columns()));
  out->Reserve(out->size() + table.size());
  Status status = Status::OK();
  table.Scan([&](int64_t key, const Row& row) {
    if (status.ok()) status = out->AppendRow(key, row);
  });
  return status;
}

}  // namespace inverda
