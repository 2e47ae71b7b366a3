#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "mapping/kernels.h"
#include "util/strings.h"

namespace inverda {
namespace {

Status ApplyOneOp(const SmoContext& ctx, TvId tv, WriteOp op) {
  WriteSet ws;
  ws.Add(std::move(op));
  return ctx.backend->ApplyToVersion(tv, ws);
}

}  // namespace

// ---------------------------------------------------------------------------
// JoinPkKernel: inner JOIN ON PK (B.5)
// ---------------------------------------------------------------------------

namespace {

struct JoinPkRoles {
  const TvRef* left = nullptr;
  const TvRef* right = nullptr;
  const TvRef* joined = nullptr;
  int left_width = 0;
};

Result<JoinPkRoles> ResolveJoinPk(const SmoContext& ctx) {
  if (ctx.smo->kind() != SmoKind::kJoin) {
    return Status::Internal("JoinPkKernel applied to non-join SMO");
  }
  JoinPkRoles roles;
  roles.left = &ctx.sources[0];
  roles.right = &ctx.sources[1];
  roles.joined = &ctx.targets[0];
  roles.left_width = roles.left->schema->num_columns();
  return roles;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Row LeftPart(const JoinPkRoles& roles, const Row& joined) {
  return Row(joined.begin(),
             joined.begin() + static_cast<Row::difference_type>(
                                  roles.left_width));
}

Row RightPart(const JoinPkRoles& roles, const Row& joined) {
  return Row(joined.begin() + static_cast<Row::difference_type>(
                                  roles.left_width),
             joined.end());
}

}  // namespace

Result<std::optional<Row>> JoinPkKernel::Derive(const SmoContext& ctx,
                                                SmoSide side, int which,
                                                int64_t key) const {
  INVERDA_ASSIGN_OR_RETURN(JoinPkRoles roles, ResolveJoinPk(ctx));

  if (side == SmoSide::kTarget) {
    // The join result from S and T (rule 177).
    if (which != 0) return Status::Internal("join has one target");
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> a,
                             ctx.backend->FindVersion(roles.left->id, key));
    if (!a) return a;
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> b,
                             ctx.backend->FindVersion(roles.right->id, key));
    if (!b) return b;
    return std::optional<Row>(ConcatRows(*a, *b));
  }

  // S (which == 0) or T (which == 1) from the join result, else from the
  // keep-alive aux tables (rules 180-183).
  bool want_left = (which == 0);
  INVERDA_ASSIGN_OR_RETURN(Table * keep,
                           ctx.Aux(want_left ? "L_plus" : "R_plus"));
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                           ctx.backend->FindVersion(roles.joined->id, key));
  if (row) {
    return std::optional<Row>(want_left ? LeftPart(roles, *row)
                                        : RightPart(roles, *row));
  }
  if (const Row* kept = keep->Find(key)) return std::optional<Row>(*kept);
  return std::optional<Row>();
}

Status JoinPkKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                     int which, RowBatch* out) const {
  INVERDA_ASSIGN_OR_RETURN(JoinPkRoles roles, ResolveJoinPk(ctx));

  if (side == SmoSide::kTarget) {
    // The join result: hash-probe the right batch from the left one.
    if (which != 0) return Status::Internal("join has one target");
    RowBatch left, right;
    // Widths set post-scan: the inner chains may pass through
    // width-changing hops that need the batches width-unset on entry.
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersionBatch(roles.left->id, &left));
    INVERDA_RETURN_IF_ERROR(
        left.SetNumColumns(roles.left->schema->num_columns()));
    INVERDA_RETURN_IF_ERROR(
        ctx.backend->ScanVersionBatch(roles.right->id, &right));
    INVERDA_RETURN_IF_ERROR(
        right.SetNumColumns(roles.right->schema->num_columns()));
    std::unordered_map<int64_t, int64_t> right_at;
    right_at.reserve(static_cast<size_t>(right.size()));
    for (int64_t i = 0; i < right.size(); ++i) {
      if (right.selected(i)) right_at.emplace(right.key_at(i), i);
    }
    INVERDA_RETURN_IF_ERROR(
        out->SetNumColumns(roles.joined->schema->num_columns()));
    out->Reserve(out->size() + std::min(left.size(), right.size()));
    for (int64_t i = 0; i < left.size(); ++i) {
      if (!left.selected(i)) continue;
      auto it = right_at.find(left.key_at(i));
      if (it == right_at.end()) continue;
      INVERDA_RETURN_IF_ERROR(out->AppendRow(
          left.key_at(i), ConcatRows(left.RowAt(i), right.RowAt(it->second))));
    }
    return Status::OK();
  }

  // S or T from the join result: a columnar projection of the joined batch
  // plus the kept-alive unmatched tuples (rules 180-183).
  bool want_left = (which == 0);
  INVERDA_ASSIGN_OR_RETURN(Table * keep,
                           ctx.Aux(want_left ? "L_plus" : "R_plus"));
  RowBatch joined;
  int joined_width = roles.joined->schema->num_columns();
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersionBatch(roles.joined->id, &joined));
  INVERDA_RETURN_IF_ERROR(joined.SetNumColumns(joined_width));
  std::vector<int> indexes;
  int from = want_left ? 0 : roles.left_width;
  int to = want_left ? roles.left_width : joined_width;
  indexes.reserve(static_cast<size_t>(to - from));
  for (int i = from; i < to; ++i) indexes.push_back(i);
  std::unordered_set<int64_t> present;
  present.reserve(static_cast<size_t>(joined.size()));
  for (int64_t i = 0; i < joined.size(); ++i) {
    if (joined.selected(i)) present.insert(joined.key_at(i));
  }
  INVERDA_RETURN_IF_ERROR(out->AssignProjection(std::move(joined), indexes));
  Status status = Status::OK();
  keep->Scan([&](int64_t k, const Row& row) {
    if (status.ok() && !present.count(k)) status = out->AppendRow(k, row);
  });
  INVERDA_RETURN_IF_ERROR(status);
  out->SortByKey();
  return Status::OK();
}

Status JoinPkKernel::DeriveAux(const SmoContext& ctx,
                               const std::string& aux_short_name,
                               Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(JoinPkRoles roles, ResolveJoinPk(ctx));
  bool for_left = aux_short_name == "L_plus";
  if (!for_left && aux_short_name != "R_plus") {
    return Status::Internal("unknown aux " + aux_short_name);
  }
  // Unmatched tuples of one side (rules 178-179).
  const TvRef* own = for_left ? roles.left : roles.right;
  const TvRef* other = for_left ? roles.right : roles.left;
  INVERDA_ASSIGN_OR_RETURN(RowMap other_rows,
                           CollectVersion(ctx.backend, other->id));
  Status status = Status::OK();
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(own->id, [&](int64_t k, const Row& row) {
        if (status.ok() && !other_rows.count(k)) status = out->Upsert(k, row);
      }));
  return status;
}

Status JoinPkKernel::Propagate(const SmoContext& ctx, SmoSide side, int which,
                               const WriteSet& writes) const {
  INVERDA_ASSIGN_OR_RETURN(JoinPkRoles roles, ResolveJoinPk(ctx));

  if (side == SmoSide::kTarget) {
    // Writes on the join result; S and T hold the data.
    if (which != 0) return Status::Internal("join has one target");
    for (const WriteOp& op : writes.ops) {
      INVERDA_ASSIGN_OR_RETURN(std::optional<Row> old_a,
                               ctx.backend->FindVersion(roles.left->id, op.key));
      INVERDA_ASSIGN_OR_RETURN(
          std::optional<Row> old_b,
          ctx.backend->FindVersion(roles.right->id, op.key));
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          if (old_a || old_b) {
            return Status::ConstraintViolation(
                "duplicate key " + std::to_string(op.key) + " in " +
                roles.joined->schema->name());
          }
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.left->id,
              WriteOp::Insert(op.key, LeftPart(roles, op.row))));
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.right->id,
              WriteOp::Insert(op.key, RightPart(roles, op.row))));
          break;
        case WriteOp::Kind::kUpdate:
          if (!old_a || !old_b) continue;  // not visible in the join
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.left->id,
              WriteOp::Update(op.key, LeftPart(roles, op.row))));
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.right->id,
              WriteOp::Update(op.key, RightPart(roles, op.row))));
          break;
        case WriteOp::Kind::kDelete:
          if (!old_a || !old_b) continue;
          INVERDA_RETURN_IF_ERROR(
              ApplyOneOp(ctx, roles.left->id, WriteOp::Delete(op.key)));
          INVERDA_RETURN_IF_ERROR(
              ApplyOneOp(ctx, roles.right->id, WriteOp::Delete(op.key)));
          break;
      }
    }
    return Status::OK();
  }

  // Writes on S or T; the join result holds the data.
  bool on_left = (which == 0);
  INVERDA_ASSIGN_OR_RETURN(Table * own_keep,
                           ctx.Aux(on_left ? "L_plus" : "R_plus"));
  INVERDA_ASSIGN_OR_RETURN(Table * other_keep,
                           ctx.Aux(on_left ? "R_plus" : "L_plus"));
  for (const WriteOp& op : writes.ops) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> joined,
                             ctx.backend->FindVersion(roles.joined->id, op.key));
    bool in_own_keep = own_keep->Contains(op.key);
    switch (op.kind) {
      case WriteOp::Kind::kInsert: {
        if (joined || in_own_keep) {
          return Status::ConstraintViolation(
              "duplicate key " + std::to_string(op.key) + " in " +
              (on_left ? roles.left : roles.right)->schema->name());
        }
        if (const Row* partner = other_keep->Find(op.key)) {
          // Both sides present now: the pair becomes a joined row.
          Row row = on_left ? ConcatRows(op.row, *partner)
                            : ConcatRows(*partner, op.row);
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.joined->id, WriteOp::Insert(op.key, std::move(row))));
          other_keep->Erase(op.key);
        } else {
          INVERDA_RETURN_IF_ERROR(own_keep->Upsert(op.key, op.row));
        }
        break;
      }
      case WriteOp::Kind::kUpdate: {
        if (joined) {
          Row row = on_left
                        ? ConcatRows(op.row, RightPart(roles, *joined))
                        : ConcatRows(LeftPart(roles, *joined), op.row);
          INVERDA_RETURN_IF_ERROR(ApplyOneOp(
              ctx, roles.joined->id, WriteOp::Update(op.key, std::move(row))));
        } else if (in_own_keep) {
          INVERDA_RETURN_IF_ERROR(own_keep->Upsert(op.key, op.row));
        }
        break;
      }
      case WriteOp::Kind::kDelete: {
        if (joined) {
          // The partner survives as an unmatched tuple.
          Row partner = on_left ? RightPart(roles, *joined)
                                : LeftPart(roles, *joined);
          INVERDA_RETURN_IF_ERROR(
              other_keep->Upsert(op.key, std::move(partner)));
          INVERDA_RETURN_IF_ERROR(
              ApplyOneOp(ctx, roles.joined->id, WriteOp::Delete(op.key)));
        } else if (in_own_keep) {
          own_keep->Erase(op.key);
        }
        break;
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CondKernel: DECOMPOSE ON condition / [OUTER] JOIN ON condition (B.4/B.6)
// ---------------------------------------------------------------------------

namespace {

struct CondRoles {
  SmoSide combined_side;
  const TvRef* combined = nullptr;
  const TvRef* s = nullptr;
  const TvRef* t = nullptr;
  std::vector<int> a_indexes;
  std::vector<int> b_indexes;
  bool outer = true;
  const Expression* condition = nullptr;
};

Result<CondRoles> ResolveCond(const SmoContext& ctx) {
  CondRoles roles;
  if (ctx.smo->kind() == SmoKind::kDecompose) {
    const auto* smo = static_cast<const DecomposeSmo*>(ctx.smo);
    roles.combined_side = SmoSide::kSource;
    roles.combined = &ctx.sources[0];
    roles.s = &ctx.targets[0];
    roles.t = &ctx.targets[1];
    INVERDA_ASSIGN_OR_RETURN(
        roles.a_indexes,
        roles.combined->schema->ColumnIndexes(smo->s_columns()));
    INVERDA_ASSIGN_OR_RETURN(
        roles.b_indexes,
        roles.combined->schema->ColumnIndexes(smo->t_columns()));
    roles.outer = true;
    roles.condition = smo->condition().get();
    return roles;
  }
  if (ctx.smo->kind() == SmoKind::kJoin) {
    const auto* smo = static_cast<const JoinSmo*>(ctx.smo);
    roles.combined_side = SmoSide::kTarget;
    roles.combined = &ctx.targets[0];
    roles.s = &ctx.sources[0];
    roles.t = &ctx.sources[1];
    int pos = 0;
    for (int i = 0; i < roles.s->schema->num_columns(); ++i) {
      roles.a_indexes.push_back(pos++);
    }
    for (int i = 0; i < roles.t->schema->num_columns(); ++i) {
      roles.b_indexes.push_back(pos++);
    }
    roles.outer = smo->outer();
    roles.condition = smo->condition().get();
    return roles;
  }
  return Status::Internal("CondKernel applied to non-vertical SMO");
}

Row CondCombine(const CondRoles& roles, int width, const Row* a,
                const Row* b) {
  Row out(static_cast<size_t>(width));
  if (a != nullptr) {
    for (size_t i = 0; i < roles.a_indexes.size(); ++i) {
      out[static_cast<size_t>(roles.a_indexes[i])] = (*a)[i];
    }
  }
  if (b != nullptr) {
    for (size_t i = 0; i < roles.b_indexes.size(); ++i) {
      out[static_cast<size_t>(roles.b_indexes[i])] = (*b)[i];
    }
  }
  return out;
}

Result<bool> CondMatches(const SmoContext& ctx, const CondRoles& roles,
                         const Row& a, const Row& b) {
  (void)ctx;  // kept for signature symmetry with the other helpers
  int width = roles.combined->schema->num_columns();
  Row combined = CondCombine(roles, width, &a, &b);
  return roles.condition->EvalBool(*roles.combined->schema, combined);
}

using Pair = std::pair<int64_t, int64_t>;

// The ID(r, s, t) table as an in-memory index.
struct IdIndex {
  std::map<int64_t, Pair> by_r;
  std::set<Pair> pairs;
  std::map<int64_t, std::vector<int64_t>> by_s;  // s -> r*
  std::map<int64_t, std::vector<int64_t>> by_t;  // t -> r*
};

IdIndex LoadIdIndex(Table* id) {
  IdIndex idx;
  id->Scan([&](int64_t r, const Row& row) {
    if (row[0].is_null() || row[1].is_null()) return;
    Pair p{row[0].AsInt(), row[1].AsInt()};
    idx.by_r[r] = p;
    idx.pairs.insert(p);
    idx.by_s[p.first].push_back(r);
    idx.by_t[p.second].push_back(r);
  });
  return idx;
}

bool PairPresent(Table* tbl, int64_t s, int64_t t) {
  bool found = false;
  tbl->Scan([&](int64_t k, const Row& row) {
    (void)k;
    if (found || row[0].is_null() || row[1].is_null()) return;
    if (row[0].AsInt() == s && row[1].AsInt() == t) found = true;
  });
  return found;
}

Status AddPair(const SmoContext& ctx, Table* tbl, int64_t s, int64_t t) {
  if (PairPresent(tbl, s, t)) return Status::OK();
  return tbl->Upsert(ctx.seq().Next(),
                     Row{Value::Int(s), Value::Int(t)});
}

void RemovePairs(Table* tbl, std::optional<int64_t> s,
                 std::optional<int64_t> t) {
  std::vector<int64_t> doomed;
  tbl->Scan([&](int64_t k, const Row& row) {
    if (row[0].is_null() || row[1].is_null()) return;
    if (s && row[0].AsInt() != *s) return;
    if (t && row[1].AsInt() != *t) return;
    doomed.push_back(k);
  });
  for (int64_t k : doomed) tbl->Erase(k);
}

// Derived views of S and T while the combined side holds the data.
struct SplitViews {
  RowMap s;
  RowMap t;
};

Result<SplitViews> BuildSplitViews(const SmoContext& ctx,
                                   const CondRoles& roles, Table* id) {
  SplitViews views;
  IdIndex idx = LoadIdIndex(id);
  INVERDA_ASSIGN_OR_RETURN(RowMap combined,
                           CollectVersion(ctx.backend, roles.combined->id));
  for (const auto& [r, row] : combined) {
    auto it = idx.by_r.find(r);
    if (it != idx.by_r.end()) {
      views.s[it->second.first] = Project(row, roles.a_indexes);
      views.t[it->second.second] = Project(row, roles.b_indexes);
      continue;
    }
    Row a = Project(row, roles.a_indexes);
    Row b = Project(row, roles.b_indexes);
    if (!AllNull(a) && AllNull(b)) {
      // A lone left-hand tuple stored directly under its own key.
      views.s[r] = std::move(a);
      continue;
    }
    if (!AllNull(b) && AllNull(a)) {
      views.t[r] = std::move(b);
      continue;
    }
    if (AllNull(a) && AllNull(b)) continue;
    // A full row without an ID entry (e.g. written directly to physical
    // storage): assign deduplicated split-side ids and record the combo
    // (the idS/idT generation of rules 157-163).
    int64_t s_key = ctx.memo->GetOrCreate("S", a, ctx.seq());
    int64_t t_key = ctx.memo->GetOrCreate("T", b, ctx.seq());
    INVERDA_RETURN_IF_ERROR(
        id->Upsert(r, Row{Value::Int(s_key), Value::Int(t_key)}));
    views.s[s_key] = std::move(a);
    views.t[t_key] = std::move(b);
  }
  if (!roles.outer) {
    INVERDA_ASSIGN_OR_RETURN(Table * l_plus, ctx.Aux("L_plus"));
    INVERDA_ASSIGN_OR_RETURN(Table * r_plus, ctx.Aux("R_plus"));
    l_plus->Scan([&](int64_t k, const Row& row) {
      views.s.emplace(k, row);
    });
    r_plus->Scan([&](int64_t k, const Row& row) {
      views.t.emplace(k, row);
    });
  }
  return views;
}

// The full content of the `which`-th table on side `side`, keyed. Deriving
// either side is a whole-relation computation (condition matches pair every
// S row with every T row), so the point read and the scan share it.
Result<RowMap> DeriveCondRows(const SmoContext& ctx, SmoSide side,
                              int which) {
  INVERDA_ASSIGN_OR_RETURN(CondRoles roles, ResolveCond(ctx));
  INVERDA_ASSIGN_OR_RETURN(Table * id, ctx.Aux("ID"));
  int width = roles.combined->schema->num_columns();

  if (side != roles.combined_side) {
    // S (which == 0) or T (which == 1) from the combined side.
    INVERDA_ASSIGN_OR_RETURN(SplitViews views,
                             BuildSplitViews(ctx, roles, id));
    return which == 0 ? std::move(views.s) : std::move(views.t);
  }

  // The combined table from physical S and T. New condition matches
  // receive fresh memoized ids and are recorded in ID (rules 187-188 /
  // 165-166); R- suppresses deleted combinations.
  INVERDA_ASSIGN_OR_RETURN(Table * r_minus, ctx.Aux("R_minus"));
  INVERDA_ASSIGN_OR_RETURN(RowMap s_rows,
                           CollectVersion(ctx.backend, roles.s->id));
  INVERDA_ASSIGN_OR_RETURN(RowMap t_rows,
                           CollectVersion(ctx.backend, roles.t->id));
  IdIndex idx = LoadIdIndex(id);
  std::set<int64_t> matched_s, matched_t;

  // Existing combos whose endpoints still exist.
  std::map<int64_t, Pair> combos;
  for (const auto& [r, pair] : idx.by_r) {
    if (s_rows.count(pair.first) && t_rows.count(pair.second)) {
      combos[r] = pair;
      matched_s.insert(pair.first);
      matched_t.insert(pair.second);
    }
  }
  // New condition matches.
  for (const auto& [s_key, a] : s_rows) {
    for (const auto& [t_key, b] : t_rows) {
      Pair pair{s_key, t_key};
      if (idx.pairs.count(pair)) continue;
      if (PairPresent(r_minus, s_key, t_key)) continue;
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, a, b));
      if (!match) continue;
      int64_t r = ctx.memo->GetOrCreate(
          "R", Row{Value::Int(s_key), Value::Int(t_key)}, ctx.seq());
      INVERDA_RETURN_IF_ERROR(
          id->Upsert(r, Row{Value::Int(s_key), Value::Int(t_key)}));
      combos[r] = pair;
      idx.pairs.insert(pair);
      matched_s.insert(s_key);
      matched_t.insert(t_key);
    }
  }
  RowMap rows;
  for (const auto& [r, pair] : combos) {
    rows[r] = CondCombine(roles, width, &s_rows.at(pair.first),
                          &t_rows.at(pair.second));
  }
  if (roles.outer) {
    // Unmatched tuples appear ω-padded under their own key
    // (rules 170-171).
    for (const auto& [s_key, a] : s_rows) {
      if (!matched_s.count(s_key)) {
        rows[s_key] = CondCombine(roles, width, &a, nullptr);
      }
    }
    for (const auto& [t_key, b] : t_rows) {
      if (!matched_t.count(t_key)) {
        rows[t_key] = CondCombine(roles, width, nullptr, &b);
      }
    }
  }
  return rows;
}

}  // namespace

Result<std::optional<Row>> CondKernel::Derive(const SmoContext& ctx,
                                              SmoSide side, int which,
                                              int64_t key) const {
  INVERDA_ASSIGN_OR_RETURN(RowMap rows, DeriveCondRows(ctx, side, which));
  auto it = rows.find(key);
  if (it == rows.end()) return std::optional<Row>();
  return std::optional<Row>(std::move(it->second));
}

Status CondKernel::DeriveReadBatch(const SmoContext& ctx, SmoSide side,
                                   int which, RowBatch* out) const {
  INVERDA_ASSIGN_OR_RETURN(RowMap rows, DeriveCondRows(ctx, side, which));
  INVERDA_RETURN_IF_ERROR(out->SetNumColumns(
      ctx.side(side)[static_cast<size_t>(which)].schema->num_columns()));
  out->Reserve(out->size() + static_cast<int64_t>(rows.size()));
  for (auto& [k, row] : rows) {
    INVERDA_RETURN_IF_ERROR(out->AppendRow(k, std::move(row)));
  }
  return Status::OK();
}

Status CondKernel::DeriveAux(const SmoContext& ctx,
                             const std::string& aux_short_name,
                             Table* out) const {
  INVERDA_ASSIGN_OR_RETURN(CondRoles roles, ResolveCond(ctx));
  INVERDA_ASSIGN_OR_RETURN(Table * id, ctx.Aux("ID"));

  if (aux_short_name == "ID") {
    // ID is physically kept on both sides; carry it over verbatim.
    id->Scan([&](int64_t k, const Row& row) { (void)out->Upsert(k, row); });
    return Status::OK();
  }
  if (aux_short_name == "R_minus") {
    // Condition matches of the current split views that are not visible
    // combos (rule 200): suppressed combinations.
    INVERDA_ASSIGN_OR_RETURN(SplitViews views,
                             BuildSplitViews(ctx, roles, id));
    IdIndex idx = LoadIdIndex(id);
    for (const auto& [s_key, a] : views.s) {
      for (const auto& [t_key, b] : views.t) {
        if (idx.pairs.count({s_key, t_key})) continue;
        INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, a, b));
        if (match) {
          INVERDA_RETURN_IF_ERROR(out->Upsert(
              ctx.seq().Next(), Row{Value::Int(s_key), Value::Int(t_key)}));
        }
      }
    }
    return Status::OK();
  }
  if (aux_short_name == "L_plus" || aux_short_name == "R_plus") {
    // Unmatched tuples of one side (inner join only), computed from the
    // physical split side.
    bool for_left = aux_short_name == "L_plus";
    INVERDA_ASSIGN_OR_RETURN(RowMap s_rows,
                             CollectVersion(ctx.backend, roles.s->id));
    INVERDA_ASSIGN_OR_RETURN(RowMap t_rows,
                             CollectVersion(ctx.backend, roles.t->id));
    IdIndex idx = LoadIdIndex(id);
    std::set<int64_t> matched;
    for (const auto& [s_key, a] : s_rows) {
      for (const auto& [t_key, b] : t_rows) {
        bool combo = idx.pairs.count({s_key, t_key}) > 0;
        if (!combo) {
          INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, a, b));
          combo = match;
        }
        if (combo) matched.insert(for_left ? s_key : t_key);
      }
    }
    const RowMap& own = for_left ? s_rows : t_rows;
    for (const auto& [k, row] : own) {
      if (!matched.count(k)) INVERDA_RETURN_IF_ERROR(out->Upsert(k, row));
    }
    return Status::OK();
  }
  return Status::Internal("unknown aux " + aux_short_name);
}

namespace {

// Finds an existing row of a split-side table with exactly `payload`.
Result<std::optional<int64_t>> FindByPayload(const SmoContext& ctx, TvId tv,
                                             const Row& payload) {
  std::optional<int64_t> found;
  INVERDA_RETURN_IF_ERROR(
      ctx.backend->ScanVersion(tv, [&](int64_t k, const Row& row) {
        if (!found && RowsEqual(row, payload)) found = k;
      }));
  return found;
}

// Write on the combined table while S and T hold the data. Updates are
// realized as delete + insert under the same key (documented simplification;
// the generated r/s/t ids stay stable through the id memo).
Status PropagateCombinedCondWrite(const SmoContext& ctx,
                                  const CondRoles& roles, Table* id,
                                  Table* r_minus, int width, const WriteOp& op);

Status DeleteCombinedCondRow(const SmoContext& ctx, const CondRoles& roles,
                             Table* id, Table* r_minus, int64_t key) {
  IdIndex idx = LoadIdIndex(id);
  auto combo = idx.by_r.find(key);
  if (combo != idx.by_r.end()) {
    auto [s_key, t_key] = combo->second;
    id->Erase(key);
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> a,
                             ctx.backend->FindVersion(roles.s->id, s_key));
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> b,
                             ctx.backend->FindVersion(roles.t->id, t_key));
    bool keep_s = a && idx.by_s[s_key].size() > 1;
    bool keep_t = b && idx.by_t[t_key].size() > 1;
    if (a && !keep_s) {
      INVERDA_RETURN_IF_ERROR(
          ApplyOneOp(ctx, roles.s->id, WriteOp::Delete(s_key)));
      RemovePairs(r_minus, s_key, std::nullopt);
    }
    if (b && !keep_t) {
      INVERDA_RETURN_IF_ERROR(
          ApplyOneOp(ctx, roles.t->id, WriteOp::Delete(t_key)));
      RemovePairs(r_minus, std::nullopt, t_key);
    }
    if (keep_s && keep_t && a && b) {
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, *a, *b));
      if (match) INVERDA_RETURN_IF_ERROR(AddPair(ctx, r_minus, s_key, t_key));
    }
    return Status::OK();
  }
  // A lone one-sided tuple stored directly in S or T.
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> lone_s,
                           ctx.backend->FindVersion(roles.s->id, key));
  if (lone_s) {
    INVERDA_RETURN_IF_ERROR(ApplyOneOp(ctx, roles.s->id, WriteOp::Delete(key)));
    RemovePairs(r_minus, key, std::nullopt);
    return Status::OK();
  }
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> lone_t,
                           ctx.backend->FindVersion(roles.t->id, key));
  if (lone_t) {
    INVERDA_RETURN_IF_ERROR(ApplyOneOp(ctx, roles.t->id, WriteOp::Delete(key)));
    RemovePairs(r_minus, std::nullopt, key);
  }
  return Status::OK();
}

Status InsertCombinedCondRow(const SmoContext& ctx, const CondRoles& roles,
                             Table* id, Table* r_minus, int width,
                             const WriteOp& op) {
  Row a = Project(op.row, roles.a_indexes);
  Row b = Project(op.row, roles.b_indexes);
  (void)width;
  if (AllNull(a) && AllNull(b)) {
    return Status::InvalidArgument("cannot insert an all-NULL tuple through " +
                                   ctx.smo->ToString());
  }
  IdIndex idx = LoadIdIndex(id);
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> s_clash,
                           ctx.backend->FindVersion(roles.s->id, op.key));
  INVERDA_ASSIGN_OR_RETURN(std::optional<Row> t_clash,
                           ctx.backend->FindVersion(roles.t->id, op.key));
  if (idx.by_r.count(op.key) || s_clash || t_clash) {
    return Status::ConstraintViolation("duplicate key " +
                                       std::to_string(op.key) + " in " +
                                       roles.combined->schema->name());
  }
  INVERDA_ASSIGN_OR_RETURN(RowMap s_rows,
                           CollectVersion(ctx.backend, roles.s->id));
  INVERDA_ASSIGN_OR_RETURN(RowMap t_rows,
                           CollectVersion(ctx.backend, roles.t->id));

  if (AllNull(a)) {
    // A lone right-hand tuple: store it and suppress condition matches so
    // the insert is reflected exactly (rule 200).
    INVERDA_RETURN_IF_ERROR(
        ApplyOneOp(ctx, roles.t->id, WriteOp::Insert(op.key, b)));
    for (const auto& [s_key, s_row] : s_rows) {
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, s_row, b));
      if (match) INVERDA_RETURN_IF_ERROR(AddPair(ctx, r_minus, s_key, op.key));
    }
    return Status::OK();
  }
  if (AllNull(b)) {
    INVERDA_RETURN_IF_ERROR(
        ApplyOneOp(ctx, roles.s->id, WriteOp::Insert(op.key, a)));
    for (const auto& [t_key, t_row] : t_rows) {
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, a, t_row));
      if (match) INVERDA_RETURN_IF_ERROR(AddPair(ctx, r_minus, op.key, t_key));
    }
    return Status::OK();
  }

  // Full row: deduplicate both side payloads (the idS/idT memoization of
  // rules 194/197).
  INVERDA_ASSIGN_OR_RETURN(std::optional<int64_t> s_existing,
                           FindByPayload(ctx, roles.s->id, a));
  INVERDA_ASSIGN_OR_RETURN(std::optional<int64_t> t_existing,
                           FindByPayload(ctx, roles.t->id, b));
  int64_t s_key;
  bool new_s = !s_existing.has_value();
  if (new_s) {
    s_key = ctx.seq().Next();
    INVERDA_RETURN_IF_ERROR(
        ApplyOneOp(ctx, roles.s->id, WriteOp::Insert(s_key, a)));
  } else {
    s_key = *s_existing;
  }
  int64_t t_key;
  bool new_t = !t_existing.has_value();
  if (new_t) {
    t_key = ctx.seq().Next();
    INVERDA_RETURN_IF_ERROR(
        ApplyOneOp(ctx, roles.t->id, WriteOp::Insert(t_key, b)));
  } else {
    t_key = *t_existing;
  }
  RemovePairs(r_minus, s_key, t_key);
  INVERDA_RETURN_IF_ERROR(
      id->Upsert(op.key, Row{Value::Int(s_key), Value::Int(t_key)}));
  ctx.memo->Seed("R", Row{Value::Int(s_key), Value::Int(t_key)}, op.key);
  // Suppress condition matches that the new tuples would otherwise create.
  if (new_s) {
    for (const auto& [other_t, t_row] : t_rows) {
      if (other_t == t_key) continue;
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, a, t_row));
      if (match && !idx.pairs.count({s_key, other_t})) {
        INVERDA_RETURN_IF_ERROR(AddPair(ctx, r_minus, s_key, other_t));
      }
    }
  }
  if (new_t) {
    for (const auto& [other_s, s_row] : s_rows) {
      if (other_s == s_key) continue;
      INVERDA_ASSIGN_OR_RETURN(bool match, CondMatches(ctx, roles, s_row, b));
      if (match && !idx.pairs.count({other_s, t_key})) {
        INVERDA_RETURN_IF_ERROR(AddPair(ctx, r_minus, other_s, t_key));
      }
    }
  }
  return Status::OK();
}

Status PropagateCombinedCondWrite(const SmoContext& ctx,
                                  const CondRoles& roles, Table* id,
                                  Table* r_minus, int width,
                                  const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      return InsertCombinedCondRow(ctx, roles, id, r_minus, width, op);
    case WriteOp::Kind::kUpdate:
      INVERDA_RETURN_IF_ERROR(
          DeleteCombinedCondRow(ctx, roles, id, r_minus, op.key));
      return InsertCombinedCondRow(ctx, roles, id, r_minus, width, op);
    case WriteOp::Kind::kDelete:
      return DeleteCombinedCondRow(ctx, roles, id, r_minus, op.key);
  }
  return Status::Internal("unreachable write kind");
}

// Removes the "unmatched" representation of a split-side tuple once it
// participates in a combo: the ω-padded combined row (outer) or the keep-
// alive aux entry (inner).
Status ConsumeUnmatched(const SmoContext& ctx, const CondRoles& roles,
                        bool left, int64_t key) {
  if (roles.outer) {
    INVERDA_ASSIGN_OR_RETURN(std::optional<Row> row,
                             ctx.backend->FindVersion(roles.combined->id, key));
    if (row) {
      Row other_part = Project(*row, left ? roles.b_indexes : roles.a_indexes);
      if (AllNull(other_part)) {
        INVERDA_RETURN_IF_ERROR(
            ApplyOneOp(ctx, roles.combined->id, WriteOp::Delete(key)));
      }
    }
    return Status::OK();
  }
  INVERDA_ASSIGN_OR_RETURN(Table * keep,
                           ctx.Aux(left ? "L_plus" : "R_plus"));
  keep->Erase(key);
  return Status::OK();
}

// Records a split-side tuple that currently participates in no combo.
Status KeepUnmatched(const SmoContext& ctx, const CondRoles& roles, bool left,
                     int64_t key, const Row& payload, int width) {
  if (roles.outer) {
    Row row = left ? CondCombine(roles, width, &payload, nullptr)
                   : CondCombine(roles, width, nullptr, &payload);
    return ApplyOneOp(ctx, roles.combined->id,
                      WriteOp::Insert(key, std::move(row)));
  }
  INVERDA_ASSIGN_OR_RETURN(Table * keep,
                           ctx.Aux(left ? "L_plus" : "R_plus"));
  return keep->Upsert(key, payload);
}

Status DeleteSplitCondRow(const SmoContext& ctx, const CondRoles& roles,
                          Table* id, int width, bool on_s, int64_t key) {
  INVERDA_ASSIGN_OR_RETURN(SplitViews views, BuildSplitViews(ctx, roles, id));
  RowMap& own = on_s ? views.s : views.t;
  RowMap& other = on_s ? views.t : views.s;
  if (!own.count(key)) return Status::OK();  // not visible: no-op

  IdIndex idx = LoadIdIndex(id);
  auto& own_index = on_s ? idx.by_s : idx.by_t;
  auto& other_index = on_s ? idx.by_t : idx.by_s;
  auto combos = own_index.find(key);
  if (combos != own_index.end() && !combos->second.empty()) {
    for (int64_t r : combos->second) {
      Pair pair = idx.by_r.at(r);
      int64_t partner = on_s ? pair.second : pair.first;
      INVERDA_RETURN_IF_ERROR(
          ApplyOneOp(ctx, roles.combined->id, WriteOp::Delete(r)));
      id->Erase(r);
      // If the partner lost its last combo, keep it visible as unmatched.
      if (other_index[partner].size() <= 1 && other.count(partner)) {
        INVERDA_RETURN_IF_ERROR(KeepUnmatched(ctx, roles, !on_s, partner,
                                              other.at(partner), width));
      }
      other_index[partner].erase(
          std::remove(other_index[partner].begin(),
                      other_index[partner].end(), r),
          other_index[partner].end());
    }
    return Status::OK();
  }
  // Unmatched tuple: drop its representation.
  if (roles.outer) {
    return ApplyOneOp(ctx, roles.combined->id, WriteOp::Delete(key));
  }
  INVERDA_ASSIGN_OR_RETURN(Table * keep, ctx.Aux(on_s ? "L_plus" : "R_plus"));
  keep->Erase(key);
  return Status::OK();
}

Status InsertSplitCondRow(const SmoContext& ctx, const CondRoles& roles,
                          Table* id, int width, bool on_s,
                          const WriteOp& op) {
  INVERDA_ASSIGN_OR_RETURN(SplitViews views, BuildSplitViews(ctx, roles, id));
  RowMap& own = on_s ? views.s : views.t;
  RowMap& other = on_s ? views.t : views.s;
  if (own.count(op.key)) {
    return Status::ConstraintViolation(
        "duplicate key " + std::to_string(op.key) + " in " +
        (on_s ? roles.s : roles.t)->schema->name());
  }
  bool any_match = false;
  for (const auto& [partner, partner_row] : other) {
    INVERDA_ASSIGN_OR_RETURN(
        bool match, on_s ? CondMatches(ctx, roles, op.row, partner_row)
                         : CondMatches(ctx, roles, partner_row, op.row));
    if (!match) continue;
    any_match = true;
    int64_t s_key = on_s ? op.key : partner;
    int64_t t_key = on_s ? partner : op.key;
    int64_t r = ctx.memo->GetOrCreate(
        "R", Row{Value::Int(s_key), Value::Int(t_key)}, ctx.seq());
    const Row& a = on_s ? op.row : partner_row;
    const Row& b = on_s ? partner_row : op.row;
    INVERDA_RETURN_IF_ERROR(ConsumeUnmatched(ctx, roles, !on_s, partner));
    INVERDA_RETURN_IF_ERROR(
        ApplyOneOp(ctx, roles.combined->id,
                   WriteOp::Insert(r, CondCombine(roles, width, &a, &b))));
    INVERDA_RETURN_IF_ERROR(
        id->Upsert(r, Row{Value::Int(s_key), Value::Int(t_key)}));
  }
  if (!any_match) {
    INVERDA_RETURN_IF_ERROR(
        KeepUnmatched(ctx, roles, on_s, op.key, op.row, width));
  }
  return Status::OK();
}

// Write on a split-side table while the combined side holds the data.
// Updates are delete + insert under the same key; combo ids stay stable
// through the id memo.
Status PropagateSplitCondWrite(const SmoContext& ctx, const CondRoles& roles,
                               Table* id, int width, bool on_s,
                               const WriteOp& op) {
  switch (op.kind) {
    case WriteOp::Kind::kInsert:
      return InsertSplitCondRow(ctx, roles, id, width, on_s, op);
    case WriteOp::Kind::kUpdate:
      INVERDA_RETURN_IF_ERROR(
          DeleteSplitCondRow(ctx, roles, id, width, on_s, op.key));
      return InsertSplitCondRow(ctx, roles, id, width, on_s, op);
    case WriteOp::Kind::kDelete:
      return DeleteSplitCondRow(ctx, roles, id, width, on_s, op.key);
  }
  return Status::Internal("unreachable write kind");
}

}  // namespace

Status CondKernel::Propagate(const SmoContext& ctx, SmoSide side, int which,
                             const WriteSet& writes) const {
  INVERDA_ASSIGN_OR_RETURN(CondRoles roles, ResolveCond(ctx));
  INVERDA_ASSIGN_OR_RETURN(Table * id, ctx.Aux("ID"));
  int width = roles.combined->schema->num_columns();

  if (side == roles.combined_side) {
    // Writes on the combined table; S and T hold the data.
    INVERDA_ASSIGN_OR_RETURN(Table * r_minus, ctx.Aux("R_minus"));
    for (const WriteOp& op : writes.ops) {
      INVERDA_RETURN_IF_ERROR(PropagateCombinedCondWrite(
          ctx, roles, id, r_minus, width, op));
    }
    return Status::OK();
  }

  // Writes on S (which == 0) or T (which == 1); combined side physical.
  for (const WriteOp& op : writes.ops) {
    INVERDA_RETURN_IF_ERROR(
        PropagateSplitCondWrite(ctx, roles, id, width, which == 0, op));
  }
  return Status::OK();
}


// ---------------------------------------------------------------------------
// Kernel registry
// ---------------------------------------------------------------------------

Result<const Kernel*> KernelFor(SmoKind kind) {
  static const IdentityKernel* identity = new IdentityKernel();
  static const ColumnKernel* column = new ColumnKernel();
  static const PartitionKernel* partition = new PartitionKernel();
  static const VerticalPkKernel* vertical_pk = new VerticalPkKernel();
  static const JoinPkKernel* join_pk = new JoinPkKernel();
  static const FkKernel* fk = new FkKernel();
  static const CondKernel* cond = new CondKernel();
  switch (kind) {
    case SmoKind::kRenameTable:
    case SmoKind::kRenameColumn:
      return static_cast<const Kernel*>(identity);
    case SmoKind::kAddColumn:
    case SmoKind::kDropColumn:
      return static_cast<const Kernel*>(column);
    case SmoKind::kSplit:
    case SmoKind::kMerge:
      return static_cast<const Kernel*>(partition);
    case SmoKind::kDecompose:
    case SmoKind::kJoin:
      return Status::Internal(
          "vertical SMOs are dispatched by method; use KernelForSmo");
    case SmoKind::kCreateTable:
    case SmoKind::kDropTable:
      return Status::Internal("catalog-only SMO has no mapping kernel");
  }
  (void)vertical_pk;
  (void)join_pk;
  (void)fk;
  (void)cond;
  return Status::Internal("unknown SMO kind");
}

Result<const Kernel*> KernelForSmo(const Smo& smo) {
  static const VerticalPkKernel* vertical_pk = new VerticalPkKernel();
  static const JoinPkKernel* join_pk = new JoinPkKernel();
  static const FkKernel* fk = new FkKernel();
  static const CondKernel* cond = new CondKernel();
  switch (smo.kind()) {
    case SmoKind::kDecompose: {
      const auto& d = static_cast<const DecomposeSmo&>(smo);
      switch (d.method()) {
        case VerticalMethod::kPk:
          return static_cast<const Kernel*>(vertical_pk);
        case VerticalMethod::kFk:
          return static_cast<const Kernel*>(fk);
        case VerticalMethod::kCondition:
          return static_cast<const Kernel*>(cond);
      }
      return Status::Internal("unknown decompose method");
    }
    case SmoKind::kJoin: {
      const auto& j = static_cast<const JoinSmo&>(smo);
      switch (j.method()) {
        case VerticalMethod::kPk:
          if (j.outer()) {
            return static_cast<const Kernel*>(vertical_pk);
          }
          return static_cast<const Kernel*>(join_pk);
        case VerticalMethod::kFk:
          return static_cast<const Kernel*>(fk);
        case VerticalMethod::kCondition:
          return static_cast<const Kernel*>(cond);
      }
      return Status::Internal("unknown join method");
    }
    default:
      return KernelFor(smo.kind());
  }
}

}  // namespace inverda
