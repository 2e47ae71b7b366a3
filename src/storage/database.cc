#include "storage/database.h"

namespace inverda {

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

Status Database::CreateTable(TableSchema schema) {
  return AddTable(Table(std::move(schema)));
}

Status Database::AddTable(Table table) {
  const std::string name = table.schema().name();
  if (tables_.count(name) > 0) return Status::AlreadyExists("table " + name);
  tables_.emplace(name, std::move(table));
  return Status::OK();
}

Status Database::DropTable(const std::string& name) {
  if (tables_.erase(name) == 0) return Status::NotFound("table " + name);
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second;
}

Result<const Table*> Database::GetTableConst(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return &it->second;
}

Status Database::RenameTable(const std::string& from, const std::string& to) {
  auto it = tables_.find(from);
  if (it == tables_.end()) return Status::NotFound("table " + from);
  if (tables_.count(to) > 0) return Status::AlreadyExists("table " + to);
  Table table = std::move(it->second);
  tables_.erase(it);
  TableSchema schema = table.schema();
  schema.set_name(to);
  table.set_schema(std::move(schema));
  tables_.emplace(to, std::move(table));
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

int64_t Database::TotalRows() const {
  int64_t total = 0;
  for (const auto& [name, table] : tables_) {
    (void)name;
    total += table.size();
  }
  return total;
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, table] : tables_) {
    (void)name;
    out += table.ToString();
  }
  return out;
}

}  // namespace inverda
