#include "mapping/write_set.h"

namespace inverda {

std::string WriteSet::ToString() const {
  std::string out;
  for (const WriteOp& op : ops) {
    switch (op.kind) {
      case WriteOp::Kind::kInsert:
        out += "+";
        break;
      case WriteOp::Kind::kUpdate:
        out += "~";
        break;
      case WriteOp::Kind::kDelete:
        out += "-";
        break;
    }
    out += std::to_string(op.key);
    if (!op.row.empty()) out += RowToString(op.row);
    out += " ";
  }
  return out;
}

}  // namespace inverda
