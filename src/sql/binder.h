#ifndef AEDB_SQL_BINDER_H_
#define AEDB_SQL_BINDER_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/catalog.h"

namespace aedb::sql {

/// \brief Union-find solver for encryption-type inference (paper §4.3).
///
/// Each operand (column, parameter, literal) is a node. Columns enter with
/// their concrete encryption type, parameters and literals with unknown type
/// bounded by `τ ≤ Randomized`. Equality-typed operations merge equivalence
/// classes ("equality is only allowed if both operands have the same
/// encryption type"); kind restrictions tighten a class's upper bound.
/// Conflicts are detected eagerly at merge time — no separate solver pass.
/// Unresolved classes default to Plaintext ("our preference is to solve
/// using the Plaintext type").
class EncInference {
 public:
  int AddUnknown();
  int AddKnown(types::EncryptionType type);

  /// Merges the classes of a and b; fails with TypeCheckError if their
  /// concrete types conflict or a bound is violated.
  Status Equate(int a, int b, const std::string& context);

  /// Imposes τ ≤ max on the class.
  Status RestrictKind(int v, types::EncKind max, const std::string& context);

  /// The class's resolved type (Plaintext when still unknown).
  types::EncryptionType Resolve(int v);

 private:
  struct Node {
    int parent;
    bool known = false;
    types::EncryptionType concrete;
    types::EncKind max_kind = types::EncKind::kRandomized;
  };

  int Find(int v);

  std::vector<Node> nodes_;
};

/// A statement parameter with its deduced plaintext and encryption types —
/// one row of sp_describe_parameter_encryption's output (paper §3, §4.1).
struct BoundParam {
  std::string name;
  types::TypeId type = types::TypeId::kInt64;
  bool type_known = false;
  types::EncryptionType enc;
};

/// The binder's output: the annotated statement plus everything the driver
/// needs (parameter encryption types, enclave requirements).
struct BoundStatement {
  Statement stmt;
  const TableDef* table = nullptr;
  const TableDef* join_table = nullptr;
  std::vector<BoundParam> params;
  bool requires_enclave = false;
  /// CEK ids the enclave needs installed to evaluate this statement.
  std::vector<uint32_t> enclave_ceks;
  /// Expression-services programs, compiled once by CompileStatement and
  /// cached with the plan (paper §4.4). `filter` is the WHERE predicate
  /// (always true without one); `values` holds one program per INSERT
  /// VALUES cell (row-major) or per UPDATE SET expression.
  es::EsProgram filter;
  std::vector<es::EsProgram> values;
};

/// Resolves names against the catalog, deduces parameter plaintext types,
/// runs encryption-type inference, and validates AE's functionality
/// restrictions (paper §2.4.3: equality on DET; equality/range/LIKE on
/// enclave-enabled columns; nothing on enclave-disabled RND).
class Binder {
 public:
  explicit Binder(const Catalog* catalog) : catalog_(catalog) {}

  Result<BoundStatement> Bind(Statement stmt);

 private:
  struct ComparisonCheck {
    Expr* a;
    Expr* b;
    int class_var;
    es::CompareOp op;
    bool is_like;
  };

  struct Context {
    BoundStatement* out;
    EncInference inference;
    std::map<std::string, int> param_vars;    // name -> inference var
    std::map<std::string, size_t> param_ids;  // name -> index in out->params
    std::vector<ComparisonCheck> checks;      // validated post-solve
    // Param pairs whose types must match but were both unknown when compared;
    // resolved by fixpoint after binding.
    std::vector<std::pair<int, int>> type_links;
    // Binder-synthesized expressions (e.g. join predicates) referenced by
    // `checks`; deque so pointers stay stable until post-solve validation.
    std::deque<Expr> synthesized;
  };

  /// Walks the expression, annotating nodes and adding constraints. Returns
  /// the node's inference variable.
  Result<int> BindExpr(Expr* e, Context* ctx);
  Status BindComparisonPair(Expr* a, Expr* b, int va, int vb,
                            es::CompareOp op, bool is_like, Context* ctx);
  Status ValidateComparison(const ComparisonCheck& check, Context* ctx);
  Result<int> BindColumn(Expr* e, Context* ctx);
  Status UnifyTypes(Expr* a, Expr* b, Context* ctx);
  Status NoteEncryptedOperation(const types::EncryptionType& enc,
                                bool needs_enclave, Context* ctx);
  void SetParamType(const Expr* e, types::TypeId type, Context* ctx);

  const Catalog* catalog_;
};

}  // namespace aedb::sql

#endif  // AEDB_SQL_BINDER_H_
