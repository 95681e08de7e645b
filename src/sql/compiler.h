#ifndef AEDB_SQL_COMPILER_H_
#define AEDB_SQL_COMPILER_H_

#include "sql/binder.h"

namespace aedb::sql {

/// \brief Compiles a bound DML statement's expressions into host ES programs
/// (paper §4.4, Figure 7) and stores them on `bound` (`filter`, `values`).
///
/// Programs read their inputs from one slot layout: the main table's columns
/// first, then the join table's (if any), then parameters; INSERT VALUES
/// programs see parameters only. Plaintext subtrees become ordinary stack
/// code. DET equality becomes a host VARBINARY comparison on ciphertext.
/// Predicates over enclave-enabled encrypted operands become kTMEval stubs
/// embedding a serialized enclave-side program whose GetData instructions
/// carry the encryption annotations that make the enclave decrypt at
/// ingress. Value expressions (SET / VALUES) compile to plaintext arithmetic
/// or an opaque ciphertext move for encrypted targets.
Status CompileStatement(BoundStatement* bound);

}  // namespace aedb::sql

#endif  // AEDB_SQL_COMPILER_H_
