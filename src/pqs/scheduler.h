// Session action scheduler: drives each PQS session as a weighted
// statement stream (DESIGN §9).
//
// The paper's Algorithm 1 does not query one frozen database: between
// pivot checks it keeps mutating the state — more inserts, UPDATE/DELETE,
// index creation and removal, maintenance statements — and re-selects the
// pivot afterwards. The scheduler owns that stream: it draws the next
// statement kind from the constant weights in scheduler.cc and asks the
// Generator for a concrete statement. It reads the live indexes from the
// session's ground-truth model, whose catalogue holds exactly the indexes
// the model accepted and has not dropped, so DROP INDEX always names a real
// index and UPDATE knows which columns sit under a unique index. Every draw
// comes from the session's private RNG stream, so scheduling is
// deterministic under ShardPlan sharding.
#ifndef PQS_SRC_PQS_SCHEDULER_H_
#define PQS_SRC_PQS_SCHEDULER_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/pqs/generator.h"
#include "src/sqlast/ast.h"
#include "src/sqlstmt/stmt.h"

namespace pqs {

namespace minidb {
class Database;
}  // namespace minidb

// One step of the interleaved transaction stream: which logical session
// issues the statement. The runner prefixes a SetSessionStmt whenever the
// session differs from the previous action's, so the rendered statement log
// stays a flat replayable stream.
struct SessionAction {
  int session = 0;
  StmtPtr stmt;
};

class ActionScheduler {
 public:
  // `txn_sessions` is the number of logical sessions NextTxnBatch
  // interleaves (GeneratorOptions::txn_sessions). `model` is the session's
  // ground-truth model, which executes the plan and every drawn statement;
  // its index catalogue is the live index list.
  ActionScheduler(const Generator* generator, int txn_sessions,
                  const DatabasePlan* plan, const minidb::Database* model);

  // Mutation statements to execute before the next pivot check: keeps
  // drawing from the weighted mix until the pivot-check action comes up,
  // capped at kMaxActionsPerCheck draws.
  std::vector<StmtPtr> NextBatch(Rng* rng);

  // Interleaved transaction stream over the txn_sessions logical
  // sessions (DESIGN §14). Each drawn step picks a session from the RNG and
  // advances that session's state machine: an idle session BEGINs (with
  // kTxnBeginProbability) or issues one autocommit DML statement; an open
  // transaction COMMITs / ROLLBACKs / issues DML inside the transaction,
  // with a forced COMMIT once it reaches kMaxTxnStatements. The whole
  // interleaving is a pure function of the session's RNG stream, so
  // transaction schedules replay byte-identically under ShardPlan sharding.
  // DDL and maintenance never appear in the stream — indexes come from the
  // setup phase only, keeping every transactional statement MVCC-visible.
  std::vector<SessionAction> NextTxnBatch(Rng* rng);

  // Clone of a live partial-index predicate over `table`, gated on
  // kPartialProbeProbability; null otherwise. The runner ANDs it
  // in front of generated WHERE clauses so the partial-index scan planner
  // is reachable.
  ExprPtr MaybePartialIndexProbe(const std::string& table, Rng* rng) const;

  // Columns of `table` the UPDATE generator must restrict to literal
  // values: declared UNIQUE/PRIMARY KEY columns plus the key columns of
  // every live unique index over the table (DESIGN §9 explains why this
  // keeps constraint decisions row-order-independent).
  std::vector<std::string> LiteralOnlyColumns(const TableSchema& table) const;

  // Key and partial-predicate columns of every live index over `table`:
  // the columns whose updates actually move index entries.
  std::vector<std::string> IndexedColumns(const TableSchema& table) const;

 private:
  // State machine for one logical session of the transaction stream.
  struct TxnSession {
    bool in_txn = false;
    int stmts_in_txn = 0;
  };

  const TableSchema* PickTable(Rng* rng) const;
  // One DML statement (INSERT/UPDATE/DELETE by weight) for the transaction
  // stream; never DDL or maintenance.
  StmtPtr NextTxnDml(Rng* rng);

  const Generator* generator_;
  const DatabasePlan* plan_;
  const minidb::Database* model_;
  // CREATE INDEX statements drawn so far; the next one is named
  // plan_->IndexName(indexes_drawn_).
  int indexes_drawn_ = 0;
  // Per-session transaction state, one entry per logical session.
  std::vector<TxnSession> txn_sessions_;
};

}  // namespace pqs

#endif  // PQS_SRC_PQS_SCHEDULER_H_
