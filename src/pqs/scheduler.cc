#include "src/pqs/scheduler.h"

#include <memory>
#include <utility>

#include "src/minidb/database.h"
#include "src/obs/telemetry.h"

namespace pqs {

namespace {

// Statement-mix weights (DESIGN §9): each batch keeps drawing from the mix
// until the pivot-check action comes up, capped at kMaxActionsPerCheck.
constexpr double kPivotCheckWeight = 6.0;
constexpr double kInsertWeight = 1.0;
constexpr double kUpdateWeight = 1.2;
constexpr double kDeleteWeight = 0.7;
constexpr double kCreateIndexWeight = 0.5;
constexpr double kDropIndexWeight = 0.25;
constexpr double kMaintenanceWeight = 0.3;
constexpr int kMaxActionsPerCheck = 6;
// Probability a generated WHERE AND-prepends the predicate of a live
// partial index over the queried table, which is what makes the
// partial-index scan planner (and its bug classes) reachable.
constexpr double kPartialProbeProbability = 0.3;

// Transaction stream (DESIGN §14). Probability an idle session opens a
// transaction rather than issuing one autocommit DML statement.
constexpr double kTxnBeginProbability = 0.6;
// Per-step probability an open transaction COMMITs...
constexpr double kTxnCommitProbability = 0.35;
// ...or ROLLBACKs (else it issues another DML statement inside the
// transaction).
constexpr double kTxnRollbackProbability = 0.08;
// Forced-COMMIT cap on statements inside one transaction, so every
// transaction resolves within a bounded number of scheduler steps.
constexpr int kMaxTxnStatements = 6;

}  // namespace

ActionScheduler::ActionScheduler(const Generator* generator,
                                 int txn_sessions, const DatabasePlan* plan,
                                 const minidb::Database* model)
    : generator_(generator),
      plan_(plan),
      model_(model),
      txn_sessions_(static_cast<size_t>(txn_sessions)) {}

const TableSchema* ActionScheduler::PickTable(Rng* rng) const {
  return &plan_->tables[rng->Below(plan_->tables.size())];
}

std::vector<std::string> ActionScheduler::LiteralOnlyColumns(
    const TableSchema& table) const {
  std::vector<std::string> out;
  for (const ColumnDef& col : table.columns) {
    if (col.unique || col.primary_key) out.push_back(col.name);
  }
  for (size_t i = 0; i < model_->index_count(); ++i) {
    const minidb::IndexDef& index = model_->index(i);
    if (!index.unique || index.table_name != table.name) continue;
    for (const std::string& col : index.columns) out.push_back(col);
  }
  return out;
}

namespace {

void CollectColumnRefs(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) out->push_back(expr.column);
  for (const ExprPtr& a : expr.args) {
    if (a != nullptr) CollectColumnRefs(*a, out);
  }
}

}  // namespace

std::vector<std::string> ActionScheduler::IndexedColumns(
    const TableSchema& table) const {
  std::vector<std::string> out;
  for (size_t i = 0; i < model_->index_count(); ++i) {
    const minidb::IndexDef& index = model_->index(i);
    if (index.table_name != table.name) continue;
    for (const std::string& col : index.columns) out.push_back(col);
    if (index.where != nullptr) CollectColumnRefs(*index.where, &out);
  }
  return out;
}

std::vector<StmtPtr> ActionScheduler::NextBatch(Rng* rng) {
  // Drawing the batch is pure generation; covers every caller.
  obs::ScopedPhase span(obs::Phase::kGenerate);
  std::vector<StmtPtr> batch;
  double mutation_total = kInsertWeight + kUpdateWeight + kDeleteWeight +
                          kCreateIndexWeight + kDropIndexWeight +
                          kMaintenanceWeight;
  // The model's catalogue only changes once the batch executes, so the
  // statements already drawn this batch must be accounted for here:
  // an index chosen as a DROP victim cannot be dropped twice, and an
  // UPDATE drawn after a CREATE UNIQUE INDEX must already treat the new
  // index's key columns as literal-only (the row-visit-order-independence
  // invariant of DESIGN §9 — non-literal values on a column that *will*
  // be unique when the UPDATE executes could make constraint decisions
  // visit-order-dependent and diverge from real SQLite).
  std::vector<std::string> dropped_in_batch;
  std::vector<std::pair<std::string, std::string>> unique_cols_in_batch;
  for (int i = 0; i < kMaxActionsPerCheck; ++i) {
    double roll = rng->Unit() * (kPivotCheckWeight + mutation_total);
    if (roll < kPivotCheckWeight) break;  // the pivot check comes up
    roll -= kPivotCheckWeight;
    const TableSchema* table = PickTable(rng);
    if (roll < kInsertWeight) {
      batch.push_back(generator_->GenerateInsertRows(*table, rng));
      continue;
    }
    roll -= kInsertWeight;
    if (roll < kUpdateWeight) {
      std::vector<std::string> literal_only = LiteralOnlyColumns(*table);
      for (const auto& [index_table, col] : unique_cols_in_batch) {
        if (index_table == table->name) literal_only.push_back(col);
      }
      batch.push_back(generator_->GenerateUpdate(
          *table, literal_only, IndexedColumns(*table), rng));
      continue;
    }
    roll -= kUpdateWeight;
    if (roll < kDeleteWeight) {
      batch.push_back(generator_->GenerateDelete(*table, rng));
      continue;
    }
    roll -= kDeleteWeight;
    if (roll < kCreateIndexWeight) {
      auto index = generator_->GenerateIndex(
          *table, plan_->IndexName(indexes_drawn_++), rng);
      if (index->unique) {
        for (const std::string& col : index->columns) {
          unique_cols_in_batch.emplace_back(index->table_name, col);
        }
      }
      batch.push_back(std::move(index));
      continue;
    }
    roll -= kCreateIndexWeight;
    if (roll < kDropIndexWeight) {
      std::vector<const minidb::IndexDef*> droppable;
      for (size_t j = 0; j < model_->index_count(); ++j) {
        const minidb::IndexDef& index = model_->index(j);
        bool gone = false;
        for (const std::string& name : dropped_in_batch) {
          gone |= name == index.name;
        }
        if (!gone) droppable.push_back(&index);
      }
      if (droppable.empty()) continue;  // nothing to drop this slot
      const minidb::IndexDef& victim = *droppable[rng->Below(droppable.size())];
      auto drop = std::make_unique<DropIndexStmt>();
      drop->index_name = victim.name;
      drop->table_name = victim.table_name;
      dropped_in_batch.push_back(victim.name);
      batch.push_back(std::move(drop));
      continue;
    }
    auto maintenance = std::make_unique<MaintenanceStmt>();
    maintenance->table_name = table->name;
    batch.push_back(std::move(maintenance));
  }
  return batch;
}

StmtPtr ActionScheduler::NextTxnDml(Rng* rng) {
  const TableSchema* table = PickTable(rng);
  double roll = rng->Unit() * (kInsertWeight + kUpdateWeight + kDeleteWeight);
  if (roll < kInsertWeight) {
    return generator_->GenerateInsertRows(*table, rng);
  }
  roll -= kInsertWeight;
  if (roll < kUpdateWeight) {
    return generator_->GenerateUpdate(*table, LiteralOnlyColumns(*table),
                                      IndexedColumns(*table), rng);
  }
  return generator_->GenerateDelete(*table, rng);
}

std::vector<SessionAction> ActionScheduler::NextTxnBatch(Rng* rng) {
  obs::ScopedPhase span(obs::Phase::kGenerate);
  std::vector<SessionAction> batch;
  const size_t sessions = txn_sessions_.size();
  // The batch length mirrors NextBatch's weighted stopping rule (the pivot
  // check "comes up"), scaled by the session count so each session gets a
  // comparable number of steps between checks.
  double dml_total = kInsertWeight + kUpdateWeight + kDeleteWeight;
  int cap = kMaxActionsPerCheck * static_cast<int>(sessions);
  for (int i = 0; i < cap; ++i) {
    if (rng->Unit() * (kPivotCheckWeight + dml_total) < kPivotCheckWeight) {
      break;
    }
    size_t s = rng->Below(sessions);
    TxnSession& state = txn_sessions_[s];
    SessionAction action;
    action.session = static_cast<int>(s);
    if (!state.in_txn) {
      if (rng->Chance(kTxnBeginProbability)) {
        action.stmt = std::make_unique<BeginStmt>();
        state.in_txn = true;
        state.stmts_in_txn = 0;
      } else {
        action.stmt = NextTxnDml(rng);  // autocommit statement
      }
    } else if (state.stmts_in_txn >= kMaxTxnStatements) {
      // Forced resolution: every transaction commits within a bounded
      // number of steps, so no schedule ends with work stuck open.
      action.stmt = std::make_unique<CommitStmt>();
      state.in_txn = false;
    } else {
      double r = rng->Unit();
      if (r < kTxnCommitProbability) {
        action.stmt = std::make_unique<CommitStmt>();
        state.in_txn = false;
      } else if (r < kTxnCommitProbability + kTxnRollbackProbability) {
        action.stmt = std::make_unique<RollbackStmt>();
        state.in_txn = false;
      } else {
        action.stmt = NextTxnDml(rng);
        ++state.stmts_in_txn;
      }
    }
    batch.push_back(std::move(action));
  }
  return batch;
}

ExprPtr ActionScheduler::MaybePartialIndexProbe(const std::string& table,
                                                Rng* rng) const {
  if (!rng->Chance(kPartialProbeProbability)) return nullptr;
  std::vector<const minidb::IndexDef*> partial;
  for (size_t i = 0; i < model_->index_count(); ++i) {
    const minidb::IndexDef& index = model_->index(i);
    if (index.table_name == table && index.where != nullptr) {
      partial.push_back(&index);
    }
  }
  if (partial.empty()) return nullptr;
  return partial[rng->Below(partial.size())]->where->Clone();
}

}  // namespace pqs
