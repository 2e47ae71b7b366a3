#include "mapping/kernels.h"

namespace inverda {

// ---------------------------------------------------------------------------
// IdentityKernel: RENAME TABLE / RENAME COLUMN
// ---------------------------------------------------------------------------

Result<std::optional<Row>> IdentityKernel::Derive(const SmoContext& ctx,
                                                  SmoSide side, int which,
                                                  int64_t key) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  return ctx.backend->FindVersion(other.id, key);
}

Status IdentityKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                       int which, RowBatch* out) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  return ctx.backend->ScanVersionBatch(other.id, out);
}

Status IdentityKernel::Propagate(const SmoContext& ctx, SmoSide side,
                                 int which, const WriteSet& writes) const {
  if (which != 0) return Status::Internal("identity SMO has one table");
  const TvRef& other = ctx.side(side == SmoSide::kSource ? SmoSide::kTarget
                                                         : SmoSide::kSource)[0];
  return ctx.backend->ApplyToVersion(other.id, writes);
}

// ---------------------------------------------------------------------------
// ColumnKernel: ADD COLUMN / DROP COLUMN
// ---------------------------------------------------------------------------

namespace {

// Resolved geometry of an ADD/DROP COLUMN instance.
struct ColumnRoles {
  SmoSide wide_side;        // side that has column b
  const TvRef* wide = nullptr;
  const TvRef* narrow = nullptr;
  int b_index = 0;          // position of b in the wide schema
  const Expression* fn = nullptr;  // computes b from the narrow payload
};

Result<ColumnRoles> ResolveColumnRoles(const SmoContext& ctx) {
  ColumnRoles roles;
  const std::string* column = nullptr;
  if (ctx.smo->kind() == SmoKind::kAddColumn) {
    const auto* smo = static_cast<const AddColumnSmo*>(ctx.smo);
    roles.wide_side = SmoSide::kTarget;
    roles.fn = smo->fn().get();
    column = &smo->column();
  } else {
    const auto* smo = static_cast<const DropColumnSmo*>(ctx.smo);
    roles.wide_side = SmoSide::kSource;
    roles.fn = smo->default_fn().get();
    column = &smo->column();
  }
  roles.wide = &ctx.side(roles.wide_side)[0];
  roles.narrow = &ctx.side(roles.wide_side == SmoSide::kTarget
                               ? SmoSide::kSource
                               : SmoSide::kTarget)[0];
  std::optional<int> idx = roles.wide->schema->FindColumn(*column);
  if (!idx) {
    return Status::Internal("column " + *column + " missing from " +
                            roles.wide->schema->ToString());
  }
  roles.b_index = *idx;
  return roles;
}

Row WidenRow(const Row& narrow, int b_index, Value b) {
  Row out;
  out.reserve(narrow.size() + 1);
  out.insert(out.end(), narrow.begin(),
             narrow.begin() + static_cast<Row::difference_type>(b_index));
  out.push_back(std::move(b));
  out.insert(out.end(),
             narrow.begin() + static_cast<Row::difference_type>(b_index),
             narrow.end());
  return out;
}

Row NarrowRow(const Row& wide, int b_index) {
  Row out;
  out.reserve(wide.size() - 1);
  for (size_t i = 0; i < wide.size(); ++i) {
    if (static_cast<int>(i) != b_index) out.push_back(wide[i]);
  }
  return out;
}

}  // namespace

Result<std::optional<Row>> ColumnKernel::Derive(const SmoContext& ctx,
                                                SmoSide side, int which,
                                                int64_t key) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side != roles.wide_side) {
    // Deriving the narrow side: data on the wide side; plain projection.
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> wide_row,
                             ctx.backend->FindVersion(roles.wide->id, key));
    if (!wide_row) return wide_row;
    return std::optional<Row>(NarrowRow(*wide_row, roles.b_index));
  }
  // Data on the narrow side; aux B is physical there. The stored b value
  // wins, the payload function fills in on an aux miss.
  INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> narrow_row,
                           ctx.backend->FindVersion(roles.narrow->id, key));
  if (!narrow_row) return narrow_row;
  Value b;
  if (const Row* stored = b_aux->Find(key)) {
    b = (*stored)[0];
  } else {
    INVERDA_ASSIGN_OR_RETURN(b,
                             roles.fn->Eval(*roles.narrow->schema, *narrow_row));
  }
  return std::optional<Row>(WidenRow(*narrow_row, roles.b_index, std::move(b)));
}

Status ColumnKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                     int which, RowBatch* out) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side != roles.wide_side) {
    // Narrow from wide: projection is one whole-column erase.
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersionBatch(roles.wide->id, out));
    out->RemoveColumn(roles.b_index);
    return Status::OK();
  }

  // Wide from narrow: scan the narrow side, then splice in the b column —
  // stored aux value per key, payload function on aux miss (the rule Derive
  // applies to one key).
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersionBatch(roles.narrow->id, out));
  INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
  std::vector<Value> b(static_cast<size_t>(out->size()));
  for (int64_t i = 0; i < out->size(); ++i) {
    if (!out->selected(i)) continue;
    if (const Row* stored = b_aux->Find(out->key_at(i))) {
      b[static_cast<size_t>(i)] = (*stored)[0];
      continue;
    }
    INVERDA_ASSIGN_OR_RETURN(
        b[static_cast<size_t>(i)],
        roles.fn->Eval(*roles.narrow->schema, out->RowAt(i)));
  }
  return out->InsertColumn(roles.b_index, std::move(b));
}

Status ColumnKernel::DeriveAux(const SmoContext& ctx,
                               const std::string& aux_short_name,
                               Table* out) const {
  if (aux_short_name != "B") {
    return Status::Internal("unknown aux " + aux_short_name);
  }
  // The narrow side is about to become the data side; preserve the current
  // b-values of the wide side so reads stay repeatable (rule 131).
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersion(
      roles.wide->id, [&](int64_t k, const Row& wide_row) {
        if (!status.ok()) return;
        status =
            out->Upsert(k, Row{wide_row[static_cast<size_t>(roles.b_index)]});
      }));
  return status;
}

Status ColumnKernel::Propagate(const SmoContext& ctx, SmoSide side, int which,
                               const WriteSet& writes) const {
  if (which != 0) return Status::Internal("column SMO has one table");
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));

  if (side == roles.wide_side) {
    // Writes on the wide (virtual) side; data on the narrow side.
    INVERDA_ASSIGN_OR_RETURN(Table * b_aux, ctx.Aux("B"));
    WriteSet narrow_writes;
    for (const WriteOp& op : writes.ops) {
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          narrow_writes.Add(
              WriteOp::Insert(op.key, NarrowRow(op.row, roles.b_index)));
          INVERDA_RETURN_IF_ERROR(b_aux->Upsert(
              op.key, Row{op.row[static_cast<size_t>(roles.b_index)]}));
          break;
        case WriteOp::Kind::kUpdate:
          narrow_writes.Add(
              WriteOp::Update(op.key, NarrowRow(op.row, roles.b_index)));
          INVERDA_RETURN_IF_ERROR(b_aux->Upsert(
              op.key, Row{op.row[static_cast<size_t>(roles.b_index)]}));
          break;
        case WriteOp::Kind::kDelete:
          narrow_writes.Add(WriteOp::Delete(op.key));
          b_aux->Erase(op.key);
          break;
      }
    }
    return ctx.backend->ApplyToVersion(roles.narrow->id, narrow_writes);
  }

  // Writes on the narrow (virtual) side; data on the wide side.
  WriteSet wide_writes;
  for (const WriteOp& op : writes.ops) {
    switch (op.kind) {
      case WriteOp::Kind::kInsert: {
        INVERDA_ASSIGN_OR_RETURN(
            Value b, roles.fn->Eval(*roles.narrow->schema, op.row));
        wide_writes.Add(WriteOp::Insert(
            op.key, WidenRow(op.row, roles.b_index, std::move(b))));
        break;
      }
      case WriteOp::Kind::kUpdate: {
        // Keep the wide side's current b value.
        INVERDA_ASSIGN_OR_RETURN(
            std::optional<Row> wide_row,
            ctx.backend->FindVersion(roles.wide->id, op.key));
        if (!wide_row) break;  // row vanished; nothing to update
        wide_writes.Add(WriteOp::Update(
            op.key,
            WidenRow(op.row, roles.b_index,
                     (*wide_row)[static_cast<size_t>(roles.b_index)])));
        break;
      }
      case WriteOp::Kind::kDelete:
        wide_writes.Add(WriteOp::Delete(op.key));
        break;
    }
  }
  return ctx.backend->ApplyToVersion(roles.wide->id, wide_writes);
}

Result<ColumnHopInfo> ResolveColumnHop(const SmoContext& ctx, SmoSide side) {
  INVERDA_ASSIGN_OR_RETURN(ColumnRoles roles, ResolveColumnRoles(ctx));
  ColumnHopInfo info;
  info.b_index = roles.b_index;
  info.widen = side == roles.wide_side;
  if (info.widen) {
    auto it = ctx.aux_names.find("B");
    if (it == ctx.aux_names.end()) {
      return Status::Internal("aux B not physical for " + ctx.smo->ToString());
    }
    info.aux_b = it->second;
    info.fn = roles.fn;
    info.narrow_schema = roles.narrow->schema;
  }
  return info;
}

}  // namespace inverda
