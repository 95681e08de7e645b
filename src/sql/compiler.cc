#include "sql/compiler.h"

namespace aedb::sql {

using types::EncKind;
using types::TypeId;

namespace {

/// Input-slot layout of a statement's programs: the main table's columns
/// first, then the join table's (if any), then parameters.
struct InputLayout {
  size_t table_columns = 0;
  size_t join_columns = 0;

  size_t ColumnSlot(int table_slot, int column_index) const {
    return table_slot == 0 ? static_cast<size_t>(column_index)
                           : table_columns + static_cast<size_t>(column_index);
  }
  size_t ParamSlot(int param_index) const {
    return table_columns + join_columns + static_cast<size_t>(param_index);
  }
};

/// Does this predicate atom need the enclave? (Set by the binder: encrypted
/// operands that are not host-comparable DET equality.)
bool IsEnclaveAtom(const Expr* e) {
  const Expr* operand = e->a.get();
  if (operand == nullptr || !operand->enc.is_encrypted()) return false;
  switch (e->kind) {
    case Expr::Kind::kCompare:
      return !(operand->enc.kind == EncKind::kDeterministic &&
               (e->cmp == es::CompareOp::kEq || e->cmp == es::CompareOp::kNe));
    case Expr::Kind::kLike:
    case Expr::Kind::kBetween:
    case Expr::Kind::kIsNull:
      return true;
    default:
      return false;
  }
}

class PredicateCompiler {
 public:
  PredicateCompiler(const InputLayout& layout,
                    const std::vector<BoundParam>& params)
      : layout_(layout), params_(params) {}

  Status Emit(const Expr* e, es::EsProgram* p);
  Status EmitValue(const Expr* e, es::EsProgram* p);

 private:
  /// Emits a plaintext-context operand (column/param/literal/arithmetic).
  Status EmitOperand(const Expr* e, es::EsProgram* p, bool as_binary);
  /// Emits a predicate atom whose operands must be shipped to the enclave.
  Status EmitEnclaveAtom(const Expr* e, es::EsProgram* host);
  /// Collects the leaf operands of an encrypted atom in evaluation order.
  Status CollectLeaves(const Expr* e, std::vector<const Expr*>* leaves);

  Result<size_t> HostSlot(const Expr* leaf) const;
  TypeId LeafType(const Expr* leaf) const;

  const InputLayout& layout_;
  const std::vector<BoundParam>& params_;
};

Result<size_t> PredicateCompiler::HostSlot(const Expr* leaf) const {
  switch (leaf->kind) {
    case Expr::Kind::kColumn:
      return layout_.ColumnSlot(leaf->table_slot, leaf->column_index);
    case Expr::Kind::kParam:
      return layout_.ParamSlot(leaf->param_index);
    default:
      return Status::Internal("not a slotted operand");
  }
}

TypeId PredicateCompiler::LeafType(const Expr* leaf) const {
  if (leaf->kind == Expr::Kind::kParam) return params_[leaf->param_index].type;
  return leaf->type;
}

Status PredicateCompiler::EmitOperand(const Expr* e, es::EsProgram* p,
                                      bool as_binary) {
  switch (e->kind) {
    case Expr::Kind::kColumn:
    case Expr::Kind::kParam: {
      size_t slot;
      AEDB_ASSIGN_OR_RETURN(slot, HostSlot(e));
      // Ciphertext is opaque VARBINARY to the host; the annotation is always
      // plaintext here — the host never decrypts.
      p->GetData(static_cast<uint32_t>(slot),
                 as_binary ? TypeId::kBinary : LeafType(e));
      return Status::OK();
    }
    case Expr::Kind::kLiteral:
      p->Const(e->literal);
      return Status::OK();
    case Expr::Kind::kArith: {
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      AEDB_RETURN_IF_ERROR(EmitOperand(e->b.get(), p, false));
      switch (e->arith) {
        case '+': p->Arith(es::OpCode::kAdd); break;
        case '-': p->Arith(es::OpCode::kSub); break;
        case '*': p->Arith(es::OpCode::kMul); break;
        default: p->Arith(es::OpCode::kDiv); break;
      }
      return Status::OK();
    }
    case Expr::Kind::kNeg:
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      p->Arith(es::OpCode::kNeg);
      return Status::OK();
    default:
      return Status::Internal("unexpected operand kind in compiler");
  }
}

Status PredicateCompiler::CollectLeaves(const Expr* e,
                                        std::vector<const Expr*>* leaves) {
  switch (e->kind) {
    case Expr::Kind::kColumn:
    case Expr::Kind::kParam:
      leaves->push_back(e);
      return Status::OK();
    default:
      // Encrypted atoms only ever have column/param operands — arithmetic
      // over ciphertext is rejected by the binder.
      return Status::Internal("encrypted atom has a non-slot operand");
  }
}

Status PredicateCompiler::EmitEnclaveAtom(const Expr* e, es::EsProgram* host) {
  std::vector<const Expr*> leaves;
  AEDB_RETURN_IF_ERROR(CollectLeaves(e->a.get(), &leaves));
  if (e->kind != Expr::Kind::kIsNull) {
    AEDB_RETURN_IF_ERROR(CollectLeaves(e->b.get(), &leaves));
  }
  if (e->kind == Expr::Kind::kBetween) {
    AEDB_RETURN_IF_ERROR(CollectLeaves(e->c.get(), &leaves));
  }

  // Host side: push each leaf's raw (ciphertext) bytes.
  for (const Expr* leaf : leaves) {
    AEDB_RETURN_IF_ERROR(EmitOperand(leaf, host, /*as_binary=*/true));
  }

  // Enclave side: decrypt-at-GetData, evaluate, return one clear boolean.
  es::EsProgram inner;
  auto get = [&](uint32_t i) {
    const Expr* leaf = leaves[i];
    inner.GetData(i, LeafType(leaf), leaf->enc);
  };
  switch (e->kind) {
    case Expr::Kind::kCompare:
      get(0);
      get(1);
      inner.Comp(e->cmp);
      break;
    case Expr::Kind::kLike:
      get(0);
      get(1);
      inner.Like();
      break;
    case Expr::Kind::kBetween:
      get(0);
      get(1);
      inner.Comp(es::CompareOp::kGe);
      get(0);
      get(2);
      inner.Comp(es::CompareOp::kLe);
      inner.Logic(es::OpCode::kAnd);
      break;
    case Expr::Kind::kIsNull:
      get(0);
      inner.IsNull();
      if (e->is_not) inner.Logic(es::OpCode::kNot);
      break;
    default:
      return Status::Internal("not an enclave atom");
  }
  inner.SetData(0, TypeId::kBool);

  host->TMEval(inner, static_cast<uint32_t>(leaves.size()), 1);
  return Status::OK();
}

Status PredicateCompiler::Emit(const Expr* e, es::EsProgram* p) {
  switch (e->kind) {
    case Expr::Kind::kAnd:
      AEDB_RETURN_IF_ERROR(Emit(e->a.get(), p));
      AEDB_RETURN_IF_ERROR(Emit(e->b.get(), p));
      p->Logic(es::OpCode::kAnd);
      return Status::OK();
    case Expr::Kind::kOr:
      AEDB_RETURN_IF_ERROR(Emit(e->a.get(), p));
      AEDB_RETURN_IF_ERROR(Emit(e->b.get(), p));
      p->Logic(es::OpCode::kOr);
      return Status::OK();
    case Expr::Kind::kNot:
      AEDB_RETURN_IF_ERROR(Emit(e->a.get(), p));
      p->Logic(es::OpCode::kNot);
      return Status::OK();
    case Expr::Kind::kCompare: {
      if (IsEnclaveAtom(e)) return EmitEnclaveAtom(e, p);
      // DET equality compiles to a VARBINARY comparison (paper §4.4).
      bool det = e->a->enc.is_encrypted();
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, det));
      AEDB_RETURN_IF_ERROR(EmitOperand(e->b.get(), p, det));
      p->Comp(e->cmp);
      return Status::OK();
    }
    case Expr::Kind::kLike: {
      if (IsEnclaveAtom(e)) return EmitEnclaveAtom(e, p);
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      AEDB_RETURN_IF_ERROR(EmitOperand(e->b.get(), p, false));
      p->Like();
      return Status::OK();
    }
    case Expr::Kind::kBetween: {
      if (IsEnclaveAtom(e)) return EmitEnclaveAtom(e, p);
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      AEDB_RETURN_IF_ERROR(EmitOperand(e->b.get(), p, false));
      p->Comp(es::CompareOp::kGe);
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      AEDB_RETURN_IF_ERROR(EmitOperand(e->c.get(), p, false));
      p->Comp(es::CompareOp::kLe);
      p->Logic(es::OpCode::kAnd);
      return Status::OK();
    }
    case Expr::Kind::kIsNull: {
      if (IsEnclaveAtom(e)) return EmitEnclaveAtom(e, p);
      AEDB_RETURN_IF_ERROR(EmitOperand(e->a.get(), p, false));
      p->IsNull();
      if (e->is_not) p->Logic(es::OpCode::kNot);
      return Status::OK();
    }
    case Expr::Kind::kColumn:
    case Expr::Kind::kParam:
    case Expr::Kind::kLiteral:
      // Bare boolean operand used as a predicate.
      return EmitOperand(e, p, false);
    default:
      return Status::Internal("unexpected predicate node");
  }
}

Status PredicateCompiler::EmitValue(const Expr* e, es::EsProgram* p) {
  bool binary = e->enc.is_encrypted();
  AEDB_RETURN_IF_ERROR(EmitOperand(e, p, binary));
  p->SetData(0, binary ? TypeId::kBinary : e->type);
  return Status::OK();
}

Result<es::EsProgram> CompilePredicate(const Expr* where,
                                       const InputLayout& layout,
                                       const std::vector<BoundParam>& params) {
  es::EsProgram program;
  if (where == nullptr) {
    program.Const(types::Value::Bool(true));
    program.SetData(0, TypeId::kBool);
    return program;
  }
  PredicateCompiler compiler(layout, params);
  AEDB_RETURN_IF_ERROR(compiler.Emit(where, &program));
  program.SetData(0, TypeId::kBool);
  return program;
}

/// Appends the program of one SET / VALUES expression to `bound->values`.
Status CompileValue(const Expr* expr, const InputLayout& layout,
                    BoundStatement* bound) {
  es::EsProgram program;
  PredicateCompiler compiler(layout, bound->params);
  AEDB_RETURN_IF_ERROR(compiler.EmitValue(expr, &program));
  bound->values.push_back(std::move(program));
  return Status::OK();
}

}  // namespace

Status CompileStatement(BoundStatement* bound) {
  const Statement& stmt = bound->stmt;
  InputLayout layout;
  layout.table_columns = bound->table->columns.size();
  if (bound->join_table != nullptr) {
    layout.join_columns = bound->join_table->columns.size();
  }
  const Expr* where = nullptr;
  switch (stmt.kind) {
    case Statement::Kind::kSelect:
      where = stmt.select->where.get();
      break;
    case Statement::Kind::kInsert:
      // VALUES cells see only the parameters: an empty table layout.
      for (const auto& row : stmt.insert->rows) {
        for (const ExprPtr& cell : row) {
          AEDB_RETURN_IF_ERROR(CompileValue(cell.get(), InputLayout{}, bound));
        }
      }
      return Status::OK();
    case Statement::Kind::kUpdate:
      where = stmt.update->where.get();
      for (const auto& [column, expr] : stmt.update->sets) {
        AEDB_RETURN_IF_ERROR(CompileValue(expr.get(), layout, bound));
      }
      break;
    case Statement::Kind::kDelete:
      where = stmt.del->where.get();
      break;
    default:
      return Status::InvalidArgument("only DML statements compile");
  }
  AEDB_ASSIGN_OR_RETURN(bound->filter,
                        CompilePredicate(where, layout, bound->params));
  return Status::OK();
}

}  // namespace aedb::sql
