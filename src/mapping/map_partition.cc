#include "mapping/kernels.h"

#include <unordered_set>

namespace inverda {
namespace {

// Resolved geometry of a SPLIT/MERGE instance. "Union" side holds the
// unified table T; "partition" side holds R and optionally S.
struct PartitionRoles {
  SmoSide union_side;
  const TvRef* t = nullptr;
  const TvRef* r = nullptr;
  const TvRef* s = nullptr;  // nullptr for single-target SPLIT
  const Expression* c_r = nullptr;
  const Expression* c_s = nullptr;
  // Conditions are evaluated against this payload schema (all three tables
  // are union-compatible).
  const TableSchema* payload = nullptr;
};

Result<PartitionRoles> ResolveRoles(const SmoContext& ctx) {
  PartitionRoles roles;
  if (ctx.smo->kind() == SmoKind::kSplit) {
    const auto* smo = static_cast<const SplitSmo*>(ctx.smo);
    roles.union_side = SmoSide::kSource;
    roles.t = &ctx.sources[0];
    roles.r = &ctx.targets[0];
    roles.s = smo->has_s() ? &ctx.targets[1] : nullptr;
    roles.c_r = smo->r_cond().get();
    roles.c_s = smo->has_s() ? smo->s_cond().get() : nullptr;
  } else if (ctx.smo->kind() == SmoKind::kMerge) {
    const auto* smo = static_cast<const MergeSmo*>(ctx.smo);
    roles.union_side = SmoSide::kTarget;
    roles.t = &ctx.targets[0];
    roles.r = &ctx.sources[0];
    roles.s = &ctx.sources[1];
    roles.c_r = smo->r_cond().get();
    roles.c_s = smo->s_cond().get();
  } else {
    return Status::Internal("PartitionKernel applied to non-partition SMO");
  }
  roles.payload = roles.t->schema;
  return roles;
}

// The (r, s, t') state of one key on the partition side.
struct KeyState {
  std::optional<Row> r;
  std::optional<Row> s;
  std::optional<Row> t_prime;
};

// Evaluates a condition against a payload row, collapsing errors into the
// surrounding Status-based control flow.
Result<bool> EvalCond(const Expression* cond, const TableSchema& payload,
                      const Row& row) {
  return cond->EvalBool(payload, row);
}

// The canonical union-side encoding of one key's partition-side state,
// exactly the per-key reading of gamma_src (rules 18-25 of the paper):
//   T  = r, else s, else t'
//   R- = present iff !r && s && cR(s)
//   R* = present iff r && !cR(r)
//   S+ = s iff r && s && s != r
//   S- = present iff r && !s && cS(r)
//   S* = present iff s && !cS(s)
struct UnionState {
  std::optional<Row> t;
  bool r_minus = false;
  bool r_star = false;
  std::optional<Row> s_plus;
  bool s_minus = false;
  bool s_star = false;
};

Result<UnionState> EncodeUnion(const PartitionRoles& roles,
                               const KeyState& key_state) {
  UnionState u;
  const auto& [r, s, t_prime] = key_state;
  if (r) {
    u.t = r;
  } else if (s) {
    u.t = s;
  } else if (t_prime) {
    u.t = t_prime;
  }
  if (r) {
    INVERDA_ASSIGN_OR_RETURN(bool cr, EvalCond(roles.c_r, *roles.payload, *r));
    u.r_star = !cr;
    if (!s && roles.c_s != nullptr) {
      INVERDA_ASSIGN_OR_RETURN(bool cs,
                               EvalCond(roles.c_s, *roles.payload, *r));
      u.s_minus = cs;
    }
    if (s && !RowsEqual(*r, *s)) u.s_plus = s;
  } else if (s) {
    INVERDA_ASSIGN_OR_RETURN(bool cr, EvalCond(roles.c_r, *roles.payload, *s));
    u.r_minus = cr;
  }
  if (s) {
    INVERDA_ASSIGN_OR_RETURN(bool cs, EvalCond(roles.c_s, *roles.payload, *s));
    u.s_star = !cs;
  }
  return u;
}

// Reads the current union-side state of one key from physical storage:
// the T view via the backend (T may resolve further along the genealogy)
// and the union-side aux tables directly.
struct UnionAuxTables {
  Table* r_minus = nullptr;
  Table* r_star = nullptr;
  Table* s_plus = nullptr;
  Table* s_minus = nullptr;
  Table* s_star = nullptr;
};

Result<UnionAuxTables> GetUnionAux(const SmoContext& ctx, bool has_s) {
  UnionAuxTables aux;
  INVERDA_ASSIGN_OR_RETURN(aux.r_star, ctx.Aux("R_star"));
  if (has_s) {
    // R- only exists with a sibling partition (lost twins need a twin).
    INVERDA_ASSIGN_OR_RETURN(aux.r_minus, ctx.Aux("R_minus"));
    INVERDA_ASSIGN_OR_RETURN(aux.s_plus, ctx.Aux("S_plus"));
    INVERDA_ASSIGN_OR_RETURN(aux.s_minus, ctx.Aux("S_minus"));
    INVERDA_ASSIGN_OR_RETURN(aux.s_star, ctx.Aux("S_star"));
  }
  return aux;
}

Result<UnionState> ReadUnionState(const SmoContext& ctx,
                                  const PartitionRoles& roles,
                                  const UnionAuxTables& aux, int64_t key) {
  UnionState u;
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> t_row,
                           ctx.backend->FindVersion(roles.t->id, key));
  u.t = std::move(t_row);
  u.r_star = aux.r_star->Contains(key);
  if (roles.s != nullptr) {
    u.r_minus = aux.r_minus->Contains(key);
    if (const Row* sp = aux.s_plus->Find(key)) u.s_plus = *sp;
    u.s_minus = aux.s_minus->Contains(key);
    u.s_star = aux.s_star->Contains(key);
  }
  return u;
}

// Decodes the partition-side views of one key from a union-side state,
// exactly the per-key reading of gamma_tgt (rules 12-17):
//   R  = T if (cR(T) && !R-) || R*
//   S  = S+ if present, else T if (cS(T) && !S-) || S*
//   T' = T if !cR && !cS && !R* && !S*
Result<KeyState> DecodePartition(const PartitionRoles& roles,
                                 const UnionState& u) {
  KeyState out;
  if (u.s_plus) out.s = u.s_plus;
  if (!u.t) return out;
  const Row& t = *u.t;
  INVERDA_ASSIGN_OR_RETURN(bool cr, EvalCond(roles.c_r, *roles.payload, t));
  bool cs = false;
  if (roles.c_s != nullptr) {
    INVERDA_ASSIGN_OR_RETURN(cs, EvalCond(roles.c_s, *roles.payload, t));
  }
  if ((cr && !u.r_minus) || u.r_star) out.r = t;
  if (!out.s && roles.s != nullptr) {
    if ((cs && !u.s_minus) || u.s_star) out.s = t;
  }
  if (!cr && !cs && !u.r_star && !u.s_star) out.t_prime = t;
  return out;
}

// Emits the difference between two optional rows as a write op on `tv`.
Status EmitDiff(const SmoContext& ctx, TvId tv,
                const std::optional<Row>& before,
                const std::optional<Row>& after, int64_t key) {
  WriteSet ws;
  if (before && after) {
    if (!RowsEqual(*before, *after)) ws.Add(WriteOp::Update(key, *after));
  } else if (before && !after) {
    ws.Add(WriteOp::Delete(key));
  } else if (!before && after) {
    ws.Add(WriteOp::Insert(key, *after));
  }
  if (ws.empty()) return Status::OK();
  return ctx.backend->ApplyToVersion(tv, ws);
}

Status ApplyAuxFlag(Table* aux, int64_t key, bool present) {
  if (present) return aux->Upsert(key, Row{});
  aux->Erase(key);
  return Status::OK();
}

Status ApplyAuxRow(Table* aux, int64_t key, const std::optional<Row>& row) {
  if (row) return aux->Upsert(key, *row);
  aux->Erase(key);
  return Status::OK();
}

}  // namespace

Result<std::optional<Row>> PartitionKernel::Derive(const SmoContext& ctx,
                                                   SmoSide side, int which,
                                                   int64_t key) const {
  INVERDA_ASSIGN_OR_RETURN(PartitionRoles roles, ResolveRoles(ctx));

  if (side == roles.union_side) {
    // T = R, else S, else T' (rules 18-20).
    if (which != 0) return Status::Internal("union side has one table");
    INVERDA_ASSIGN_OR_RETURN(Table * t_prime, ctx.Aux("T_prime"));
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> r,
                             ctx.backend->FindVersion(roles.r->id, key));
    if (r) return r;
    if (roles.s != nullptr) {
      INVERDA_ASSIGN_OR_RETURN(std::optional<Row> s,
                               ctx.backend->FindVersion(roles.s->id, key));
      if (s) return s;
    }
    if (const Row* tp = t_prime->Find(key)) return std::optional<Row>(*tp);
    return std::optional<Row>();
  }

  // R (which == 0) or S (which == 1), decoded from the key's union state.
  bool want_r = (which == 0);
  if (!want_r && roles.s == nullptr) {
    return Status::Internal("single-target SPLIT has no S table");
  }
  INVERDA_ASSIGN_OR_RETURN(UnionAuxTables aux,
                           GetUnionAux(ctx, roles.s != nullptr));
  INVERDA_ASSIGN_OR_RETURN(UnionState u, ReadUnionState(ctx, roles, aux, key));
  INVERDA_ASSIGN_OR_RETURN(KeyState views, DecodePartition(roles, u));
  return want_r ? std::move(views.r) : std::move(views.s);
}

Status PartitionKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                        int which, RowBatch* out) const {
  INVERDA_ASSIGN_OR_RETURN(PartitionRoles roles, ResolveRoles(ctx));

  if (side == roles.union_side) {
    // T = R + (S \ R) + T' (rules 18-20): one batch scan of R, then the
    // leftovers appended and re-sorted.
    if (which != 0) return Status::Internal("union side has one table");
    INVERDA_ASSIGN_OR_RETURN(Table * t_prime, ctx.Aux("T_prime"));
    // Width is set after the scan, not before: the inner chain may pass
    // through width-changing hops that need the batch width-unset, and the
    // post-scan call still fixes the width of an empty bridge scan.
    INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersionBatch(roles.r->id, out));
    INVERDA_RETURN_IF_ERROR(
        out->SetNumColumns(roles.t->schema->num_columns()));
    std::unordered_set<int64_t> present;
    present.reserve(static_cast<size_t>(out->size()));
    for (int64_t i = 0; i < out->size(); ++i) {
      if (out->selected(i)) present.insert(out->key_at(i));
    }
    if (roles.s != nullptr) {
      RowBatch s;
      INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersionBatch(roles.s->id, &s));
      INVERDA_RETURN_IF_ERROR(
          s.SetNumColumns(roles.t->schema->num_columns()));
      for (int64_t i = 0; i < s.size(); ++i) {
        if (!s.selected(i)) continue;
        if (!present.insert(s.key_at(i)).second) continue;
        INVERDA_RETURN_IF_ERROR(out->AppendRow(s.key_at(i), s.RowAt(i)));
      }
    }
    Status status = Status::OK();
    t_prime->Scan([&](int64_t k, const Row& row) {
      if (status.ok() && present.insert(k).second) {
        status = out->AppendRow(k, row);
      }
    });
    INVERDA_RETURN_IF_ERROR(status);
    out->SortByKey();
    return Status::OK();
  }

  // R or S from the union side: one batch scan of T with a per-row
  // visibility filter on the selection bitmap (no data moves), plus (for S)
  // the separated twins from S+.
  bool want_r = (which == 0);
  if (!want_r && roles.s == nullptr) {
    return Status::Internal("single-target SPLIT has no S table");
  }
  INVERDA_ASSIGN_OR_RETURN(UnionAuxTables aux,
                           GetUnionAux(ctx, roles.s != nullptr));
  INVERDA_RETURN_IF_ERROR(ctx.backend->ScanVersionBatch(roles.t->id, out));
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(roles.t->schema->num_columns()));
  for (int64_t i = 0; i < out->size(); ++i) {
    if (!out->selected(i)) continue;
    int64_t k = out->key_at(i);
    if (!want_r && aux.s_plus->Find(k) != nullptr) {
      // Separated twin: the S+ payload replaces the T row (appended below).
      out->Deselect(i);
      continue;
    }
    UnionState u;
    u.t = out->RowAt(i);
    u.r_star = aux.r_star->Contains(k);
    if (roles.s != nullptr) {
      u.r_minus = aux.r_minus->Contains(k);
      u.s_minus = aux.s_minus->Contains(k);
      u.s_star = aux.s_star->Contains(k);
    }
    INVERDA_ASSIGN_OR_RETURN(KeyState views, DecodePartition(roles, u));
    if (!(want_r ? views.r : views.s)) out->Deselect(i);
  }
  if (!want_r) {
    Status status = Status::OK();
    aux.s_plus->Scan([&](int64_t k, const Row& row) {
      if (status.ok()) status = out->AppendRow(k, row);
    });
    INVERDA_RETURN_IF_ERROR(status);
    out->SortByKey();
  }
  return Status::OK();
}

Status PartitionKernel::DeriveAux(const SmoContext& ctx,
                                  const std::string& aux_short_name,
                                  Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(PartitionRoles roles, ResolveRoles(ctx));

  if (aux_short_name == "T_prime") {
    // Partition side is becoming the data side: T' = tuples of T matching
    // neither condition that are not claimed by R*/S* (rule 17).
    INVERDA_ASSIGN_OR_RETURN(UnionAuxTables aux,
                             GetUnionAux(ctx, roles.s != nullptr));
    Status status = Status::OK();
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersion(roles.t->id, [&](int64_t k, const Row& row) {
          if (!status.ok()) return;
          Result<bool> cr = EvalCond(roles.c_r, *roles.payload, row);
          if (!cr.ok()) {
            status = cr.status();
            return;
          }
          bool cs = false;
          if (roles.c_s != nullptr) {
            Result<bool> rcs = EvalCond(roles.c_s, *roles.payload, row);
            if (!rcs.ok()) {
              status = rcs.status();
              return;
            }
            cs = *rcs;
          }
          bool r_star = aux.r_star->Contains(k);
          bool s_star = aux.s_star != nullptr && aux.s_star->Contains(k);
          if (!*cr && !cs && !r_star && !s_star) status = out->Upsert(k, row);
        }));
    return status;
  }

  // Union side is becoming the data side: compute R-, R*, S+, S-, S* from
  // the current partition-side content (rules 21-25).
  INVERDA_ASSIGN_OR_RETURN(RowMap r_rows,
                           CollectVersion(ctx.backend, roles.r->id));
  RowMap s_rows;
  if (roles.s != nullptr) {
    INVERDA_ASSIGN_OR_RETURN(s_rows, CollectVersion(ctx.backend, roles.s->id));
  }
  if (aux_short_name == "R_minus") {
    for (const auto& [k, s] : s_rows) {
      if (r_rows.count(k)) continue;
      INVERDA_ASSIGN_OR_RETURN(bool cr, EvalCond(roles.c_r, *roles.payload, s));
      if (cr) INVERDA_RETURN_IF_ERROR(out->Upsert(k, Row{}));
    }
    return Status::OK();
  }
  if (aux_short_name == "R_star") {
    for (const auto& [k, r] : r_rows) {
      INVERDA_ASSIGN_OR_RETURN(bool cr, EvalCond(roles.c_r, *roles.payload, r));
      if (!cr) INVERDA_RETURN_IF_ERROR(out->Upsert(k, Row{}));
    }
    return Status::OK();
  }
  if (aux_short_name == "S_plus") {
    for (const auto& [k, s] : s_rows) {
      auto it = r_rows.find(k);
      if (it != r_rows.end() && !RowsEqual(it->second, s)) {
        INVERDA_RETURN_IF_ERROR(out->Upsert(k, s));
      }
    }
    return Status::OK();
  }
  if (aux_short_name == "S_minus") {
    for (const auto& [k, r] : r_rows) {
      if (s_rows.count(k)) continue;
      INVERDA_ASSIGN_OR_RETURN(bool cs, EvalCond(roles.c_s, *roles.payload, r));
      if (cs) INVERDA_RETURN_IF_ERROR(out->Upsert(k, Row{}));
    }
    return Status::OK();
  }
  if (aux_short_name == "S_star") {
    for (const auto& [k, s] : s_rows) {
      INVERDA_ASSIGN_OR_RETURN(bool cs, EvalCond(roles.c_s, *roles.payload, s));
      if (!cs) INVERDA_RETURN_IF_ERROR(out->Upsert(k, Row{}));
    }
    return Status::OK();
  }
  return Status::Internal("unknown aux " + aux_short_name);
}

Status PartitionKernel::Propagate(const SmoContext& ctx, SmoSide side,
                                  int which, const WriteSet& writes) const {
  INVERDA_ASSIGN_OR_RETURN(PartitionRoles roles, ResolveRoles(ctx));

  if (side != roles.union_side) {
    // Writes on R or S (partition side virtual); data on the union side.
    bool on_r = (which == 0);
    if (!on_r && roles.s == nullptr) {
      return Status::Internal("single-target SPLIT has no S table");
    }
    INVERDA_ASSIGN_OR_RETURN(UnionAuxTables aux,
                             GetUnionAux(ctx, roles.s != nullptr));
    for (const WriteOp& op : writes.ops) {
      INVERDA_ASSIGN_OR_RETURN(UnionState old_u,
                               ReadUnionState(ctx, roles, aux, op.key));
      INVERDA_ASSIGN_OR_RETURN(KeyState views, DecodePartition(roles, old_u));
      std::optional<Row>& target = on_r ? views.r : views.s;
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          if (target) {
            return Status::ConstraintViolation(
                "duplicate key " + std::to_string(op.key) + " in " +
                (on_r ? roles.r : roles.s)->schema->name());
          }
          if (!on_r && !views.r && old_u.t) {
            // The key is taken by a tuple that is invisible in both R and S
            // (e.g. a T' leftover); treat as a key collision.
            return Status::ConstraintViolation(
                "key " + std::to_string(op.key) +
                " already used by an invisible tuple");
          }
          if (on_r && old_u.t && !views.r && !views.s) {
            return Status::ConstraintViolation(
                "key " + std::to_string(op.key) +
                " already used by an invisible tuple");
          }
          target = op.row;
          break;
        case WriteOp::Kind::kUpdate:
          if (!target) continue;  // row not visible here: no-op
          target = op.row;
          break;
        case WriteOp::Kind::kDelete:
          if (!target) continue;
          target = std::nullopt;
          break;
      }
      INVERDA_ASSIGN_OR_RETURN(UnionState new_u, EncodeUnion(roles, views));
      // Apply the aux diffs directly, the T diff through the backend.
      INVERDA_RETURN_IF_ERROR(ApplyAuxFlag(aux.r_star, op.key, new_u.r_star));
      if (roles.s != nullptr) {
        INVERDA_RETURN_IF_ERROR(
            ApplyAuxFlag(aux.r_minus, op.key, new_u.r_minus));
        INVERDA_RETURN_IF_ERROR(ApplyAuxRow(aux.s_plus, op.key, new_u.s_plus));
        INVERDA_RETURN_IF_ERROR(
            ApplyAuxFlag(aux.s_minus, op.key, new_u.s_minus));
        INVERDA_RETURN_IF_ERROR(
            ApplyAuxFlag(aux.s_star, op.key, new_u.s_star));
      }
      INVERDA_RETURN_IF_ERROR(
          EmitDiff(ctx, roles.t->id, old_u.t, new_u.t, op.key));
    }
    return Status::OK();
  }

  // Writes on T (union side virtual); data on the partition side.
  if (which != 0) return Status::Internal("union side has one table");
  INVERDA_ASSIGN_OR_RETURN(Table * t_prime, ctx.Aux("T_prime"));
  for (const WriteOp& op : writes.ops) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> r,
                             ctx.backend->FindVersion(roles.r->id, op.key));
    std::optional<Row> s;
    if (roles.s != nullptr) {
      INVERDA_ASSIGN_OR_RETURN(s,
                               ctx.backend->FindVersion(roles.s->id, op.key));
    }
    std::optional<Row> tp;
    if (const Row* row = t_prime->Find(op.key)) tp = *row;
    std::optional<Row> t_view = r ? r : (s ? s : tp);

    std::optional<Row> t_new;
    switch (op.kind) {
      case WriteOp::Kind::kInsert:
        if (t_view) {
          return Status::ConstraintViolation("duplicate key " +
                                             std::to_string(op.key) + " in " +
                                             roles.t->schema->name());
        }
        t_new = op.row;
        break;
      case WriteOp::Kind::kUpdate:
        if (!t_view) continue;
        t_new = op.row;
        break;
      case WriteOp::Kind::kDelete:
        if (!t_view) continue;
        t_new = std::nullopt;
        break;
    }

    // The union-side aux of this key, derived from the *old* partition
    // state (rules 21-25); they are fixed while gamma_tgt recomputes the
    // partition side (Equation 48's inner composition).
    KeyState old_state{r, s, tp};
    INVERDA_ASSIGN_OR_RETURN(UnionState derived_aux,
                             EncodeUnion(roles, old_state));
    derived_aux.t = t_new;
    INVERDA_ASSIGN_OR_RETURN(KeyState new_state,
                             DecodePartition(roles, derived_aux));
    if (!t_new) {
      // A deleted T row deletes the primus twin; a separated twin in S
      // survives only through S+ (rule 15), which EncodeUnion retained.
      new_state.t_prime = std::nullopt;
    }
    INVERDA_RETURN_IF_ERROR(
        EmitDiff(ctx, roles.r->id, r, new_state.r, op.key));
    if (roles.s != nullptr) {
      INVERDA_RETURN_IF_ERROR(
          EmitDiff(ctx, roles.s->id, s, new_state.s, op.key));
    }
    if (new_state.t_prime) {
      INVERDA_RETURN_IF_ERROR(t_prime->Upsert(op.key, *new_state.t_prime));
    } else {
      t_prime->Erase(op.key);
    }
  }
  return Status::OK();
}

}  // namespace inverda
