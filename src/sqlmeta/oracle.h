// Metamorphic oracle execution: run a NoREC or TLP check against a live
// connection and classify the outcome.
//
// A check executes the transformed queries (src/sqlmeta/transform.h) and
// compares results. The recombination arithmetic reuses the shared
// aggregation core (src/interp) with a *clean* EvalContext, so a mismatch
// is evidence of an engine bug, never of oracle-side drift — the same
// soundness argument the containment oracle makes by sharing the
// expression interpreter.
#ifndef PQS_SRC_SQLMETA_ORACLE_H_
#define PQS_SRC_SQLMETA_ORACLE_H_

#include <string>
#include <vector>

#include "src/engine/connection.h"
#include "src/sqlast/ast.h"
#include "src/sqlmeta/transform.h"

namespace pqs {
namespace sqlmeta {

enum class MetaVerdict {
  kOk,           // both sides agree
  kMismatch,     // metamorphic relation violated — the oracle's finding
  kEngineError,  // a transformed query failed (error-oracle territory)
  kEngineCrash,  // the engine died executing a transformed query
  kSkipped,      // query shape outside the transform's space (not a check)
};

struct MetaOutcome {
  MetaVerdict verdict = MetaVerdict::kOk;
  std::string message;
  // Every query the check executed, in execution order; the query that
  // decided the verdict is last. Callers splice these onto the session log
  // to build a replayable Finding.
  std::vector<StmtPtr> executed;
};

// NoREC: optimized `SELECT COUNT(*) FROM table WHERE p` must equal the
// number of truthy rows of unoptimized `SELECT p FROM table`.
MetaOutcome RunNorecCheck(Connection& conn, const std::string& table,
                          const Expr& predicate);

// TLP: `query` over the whole table must equal the recombination of the
// three partition queries under `predicate` (shape-dependent; see
// TlpShape). `query` itself is executed as the final statement.
MetaOutcome RunTlpCheck(Connection& conn, const SelectStmt& query,
                        const Expr& predicate);

}  // namespace sqlmeta
}  // namespace pqs

#endif  // PQS_SRC_SQLMETA_ORACLE_H_
