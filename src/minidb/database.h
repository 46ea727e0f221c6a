// MiniDB: the in-process SQL engine under test.
//
// Implements the pqs::Connection contract for all three dialect flavors.
// Semantics are interpreted directly over the typed AST (no SQL text round
// trip) using the shared src/interp evaluator, which is what makes the
// containment oracle exact on a clean engine. A BugConfig turns on injected
// bug classes from the registry in src/minidb/bug_registry.h; scan-level
// and statement-level bugs are implemented here, expression-level bugs in
// the evaluator.
#ifndef PQS_SRC_MINIDB_DATABASE_H_
#define PQS_SRC_MINIDB_DATABASE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/engine/bugs.h"
#include "src/engine/connection.h"
#include "src/interp/eval.h"
#include "src/minidb/buffer_pool.h"
#include "src/minidb/coverage.h"
#include "src/minidb/storage.h"
#include "src/sqlast/ast.h"
#include "src/sqlstmt/stmt.h"

namespace pqs {
namespace minidb {

// One entry of a Database's index catalogue: what CREATE INDEX declared.
struct IndexDef {
  std::string name;
  std::string table_name;
  std::vector<std::string> columns;
  std::vector<int> key_cols;  // column positions within the table
  bool unique = false;
  ExprPtr where;  // partial index predicate (nullable)
};

class Database : public Connection {
 public:
  // `storage` selects the paged (default) or flat row heap; see
  // StorageOptions. When `bugs` arms a storage-layer bug class, a paged
  // configuration is automatically tightened to StorageOptions::Stress()
  // so generator-scale tables (3-12 rows) still reach page splits and
  // eviction pressure — HuntBug's default budget depends on that.
  explicit Database(Dialect dialect, BugConfig bugs = BugConfig(),
                    StorageOptions storage = StorageOptions());

  StatementResult Execute(const Stmt& stmt) override;
  Dialect dialect() const override { return dialect_; }
  std::string EngineName() const override;
  bool alive() const override { return alive_; }
  // In-place reset back to an empty database. Dialect, bug config, and the
  // coverage sink are preserved; data, indexes, and a simulated crash are
  // not. The reducer relies on this to reuse one connection per reduction.
  bool Reset() override;

  // Feature coverage is recorded into an external sink so a whole session's
  // connections can share one map (bench_table4). Null disables tracking.
  void set_coverage_sink(CoverageMap* sink) { coverage_ = sink; }

  // The index catalogue, in creation order: an accepted CREATE INDEX
  // appends, an accepted DROP INDEX erases in place, and a rejected one
  // leaves it as it was.
  size_t index_count() const { return indexes_.size(); }
  const IndexDef& index(size_t i) const { return indexes_[i]; }

  // The logical session the last SetSessionStmt switched to (0 at first).
  int active_session() const { return active_session_; }

  // Read-only view of a table's committed rows in position order (nullptr
  // when the table does not exist): the row set an autocommit session's
  // bare `SELECT *` returns on a clean instance. Outside the MVCC epoch it
  // is the store itself; on a clean paged engine the materialized copy is
  // cached per table version, so repeated reads stay as cheap as direct
  // vector access. Inside the epoch it is the latest committed version of
  // each row, built from the autocommit read image, so tombstones and open
  // transactions' writes are left out. The runner's ground-truth state
  // comparisons read the model through this instead of paying for a full
  // SELECT round trip. The pointer is invalidated by the next mutation of
  // the same table and, inside the epoch, by the next call for it.
  const std::vector<std::vector<SqlValue>>* TableRows(const std::string& name);

  // Introspection for the storage tests and benches.
  const StorageOptions& storage_options() const { return storage_opts_; }
  const TableStore* table_store(const std::string& name) {
    TableData* table = FindTable(name);
    return table != nullptr ? &table->store : nullptr;
  }

  // MVCC introspection for the transaction tests. The engine is "in the
  // epoch" from the first BEGIN until the next quiescent point (no open
  // transaction), when version history is pruned back to a flat heap.
  bool in_mvcc_epoch() const { return in_epoch_; }
  uint64_t commit_clock() const { return commit_clock_; }
  size_t open_transactions() const { return txns_.size(); }

 private:
  // --- MVCC transaction layer (DESIGN §14). ------------------------------
  // Timestamps are commit-clock values: 0 = predates the epoch, kTsInf =
  // still current. A row version is visible to snapshot S iff
  // begin_ts <= S < end_ts.
  static constexpr uint64_t kTsInf = ~uint64_t{0};
  struct RowVersion {
    uint64_t begin_ts = 0;
    uint64_t end_ts = kTsInf;
    std::vector<SqlValue> data;
  };
  // Per-position version metadata, active only during the epoch. The store
  // row at the position is the newest committed version ([begin_ts,
  // end_ts)); `older` holds superseded versions, oldest first. Deleted rows
  // stay in the store as tombstones (end_ts set) until PruneHistory.
  struct RowMeta {
    uint64_t begin_ts = 0;
    uint64_t end_ts = kTsInf;
    std::vector<RowVersion> older;
  };
  // One transaction's buffered write set for one table. Nothing touches the
  // store until COMMIT; statement-level rollback is free because failing
  // statements never reach the buffer.
  struct TxnWrites {
    std::vector<std::vector<SqlValue>> inserted;
    std::vector<char> inserted_alive;  // parallel; 0 = deleted again in-txn
    std::map<size_t, std::vector<SqlValue>> updated;  // store pos → new row
    std::set<size_t> deleted;                         // store positions

    bool Empty() const {
      if (!updated.empty() || !deleted.empty()) return false;
      for (char a : inserted_alive) {
        if (a) return false;
      }
      return true;
    }
    bool UpdatesOnly() const {
      if (updated.empty() || !deleted.empty()) return false;
      for (char a : inserted_alive) {
        if (a) return false;
      }
      return true;
    }
  };
  struct Transaction {
    uint64_t begin_ts = 0;  // snapshot: sees commits with ts <= begin_ts
    std::map<std::string, TxnWrites> writes;
  };
  // One row of a transaction's read image, with provenance so the DML paths
  // can route writes back to the store position or own-insert they hit.
  struct ImageRow {
    std::vector<SqlValue> data;
    size_t pos = 0;       // store position (valid when own_insert < 0)
    int own_insert = -1;  // index into the transaction's inserted list
  };
  struct TableData {
    std::string name;
    std::vector<ColumnDef> columns;
    // Single-table row schema, built once at CREATE TABLE. Every scan,
    // constraint check, and index-maintenance path borrows this instead of
    // re-materializing (table, column) string pairs per statement.
    RowSchema schema;
    // The row heap: flat or paged behind the connection's buffer pool
    // (storage.h). Row *positions* (page-strided ids, dense on a clean
    // engine) replace the old vector indexes everywhere — index entries,
    // UPDATE journals, constraint exclusions.
    TableStore store;
    // Version metadata by store position, populated only during the MVCC
    // epoch (EnterEpoch fills it, PruneHistory clears it). Outside the
    // epoch the store alone is the truth and this map is empty.
    std::map<size_t, RowMeta> meta;
    // TableRows' answer inside the epoch, rebuilt on every call there.
    std::vector<std::vector<SqlValue>> committed_image;
  };
  struct IndexData : IndexDef {
    // B-tree-ish ordered secondary index: (key tuple, row position) pairs
    // kept sorted by key (ValueCompare lexicographic, position tie-break).
    // Positions reference TableData::store; every maintenance path (INSERT
    // append, UPDATE/DELETE rebuild, REINDEX) keeps them consistent —
    // unless an injected index or storage bug is the one corrupting them
    // (scans bounds-guard every position through the page cursor).
    std::vector<std::pair<std::vector<SqlValue>, size_t>> entries;
    // Per-entry version visibility, parallel to `entries` and populated only
    // while the MVCC epoch is active: the planner filters out entries whose
    // [begin_ts, end_ts) window does not cover the reading snapshot. Empty
    // outside the epoch (every entry visible).
    struct EntryVis {
      uint64_t begin_ts = 0;
      uint64_t end_ts = kTsInf;
    };
    std::vector<EntryVis> vis;
  };

  StatementResult ExecuteCreateTable(const CreateTableStmt& stmt);
  StatementResult ExecuteCreateIndex(const CreateIndexStmt& stmt);
  StatementResult ExecuteDropIndex(const DropIndexStmt& stmt);
  StatementResult ExecuteInsert(const InsertStmt& stmt);
  StatementResult ExecuteSelect(const SelectStmt& stmt);
  StatementResult ExecuteUpdate(const UpdateStmt& stmt);
  StatementResult ExecuteDelete(const DeleteStmt& stmt);
  StatementResult ExecuteMaintenance(const MaintenanceStmt& stmt);

  // --- MVCC transaction execution (DESIGN §14). --------------------------
  StatementResult ExecuteBegin();
  StatementResult ExecuteCommit();
  StatementResult ExecuteRollback();
  // During the epoch all DML is diverted here: `into` buffers into the
  // session's open transaction, or into an implicit single-statement
  // transaction committed immediately (autocommit).
  template <typename S>
  StatementResult ExecuteTxnDml(
      const S& stmt,
      StatementResult (Database::*into)(const S&, TableData*, Transaction*));
  StatementResult TxnInsertInto(const InsertStmt& stmt, TableData* table,
                                Transaction* txn);
  StatementResult TxnUpdateInto(const UpdateStmt& stmt, TableData* table,
                                Transaction* txn);
  StatementResult TxnDeleteInto(const DeleteStmt& stmt, TableData* table,
                                Transaction* txn);
  // Returns the active session's open transaction, or nullptr.
  Transaction* CurrentTxn();
  // Starts version bookkeeping on first BEGIN: every existing row gets meta
  // {0, kTsInf} and index entries get visibility windows.
  void EnterEpoch();
  // When the last transaction closes: materializes the latest committed
  // version of every table back into a flat heap, drops version history and
  // tombstones, rebuilds indexes, and leaves the epoch. The commit clock
  // stays monotonic so later epochs never reuse timestamps.
  void PruneHistory();
  void PruneIfQuiescent();
  // First-committer-wins check + version-chain apply at a fresh commit
  // timestamp. Returns false on write conflict (nothing applied).
  bool CommitConflicts(const Transaction& txn) const;
  void ApplyCommit(Transaction* txn);
  // The rows `txn` (nullable = autocommit reader) sees in `table`:
  // snapshot-visible committed versions overlaid with the transaction's own
  // writes. `for_select` enables the read-path bug hooks (dirty read /
  // uncommitted-version read), which must not leak into DML matched sets.
  std::vector<ImageRow> BuildReadImage(TableData* table,
                                       const Transaction* txn,
                                       bool for_select);
  // Rebuilds `index->vis` from the owning table's row meta (clears it
  // outside the epoch).
  void RefreshIndexVis(IndexData* index, const TableData& table);
  // kTxnRollbackStaleIndex: rebuilds the aborted transaction's written
  // indexes from its discarded overlay image, as if ROLLBACK forgot to undo
  // index maintenance; PruneHistory then skips repairing them.
  void CorruptIndexesFromAbort(TableData* table, const Transaction& txn);

  TableData* FindTable(const std::string& name);
  IndexData* FindIndex(const std::string& name);

  // --- Secondary-index maintenance. ------------------------------------
  // Appends entries for `table`'s row at `pos` (skipping rows a partial
  // predicate does not cover), keeping the entry list key-sorted.
  void AddIndexEntry(IndexData* index, const TableData& table, size_t pos);
  // Rebuilds the index from the table's current rows.
  void RebuildIndex(IndexData* index, const TableData& table);

  // --- Scan planner. -----------------------------------------------------
  // Decides whether a single-table SELECT's WHERE can be answered through
  // a secondary index: a non-partial index needs a `col <cmp> literal`
  // conjunct over one of its key columns; a partial index additionally
  // requires its own predicate to appear as a top-level WHERE conjunct
  // (structural equality), which is what makes using it sound. On success
  // fills `positions` with the candidate row positions in table order.
  bool PlanIndexScan(const TableData& table, const Expr& where,
                     const EvalContext& ctx, std::vector<size_t>* positions,
                     bool* used_partial);

  // --- DML front half (DESIGN §14). --------------------------------------
  // Shared by the plain write path and the MVCC one; only the back halves
  // (store apply vs. write-set buffering) differ. Each reads the
  // statement's row source: the table's store, rows by position, when
  // `image` is null; else a transaction's read image, rows by index.
  using Assignments = std::vector<std::pair<size_t, const Expr*>>;
  // Returns an error/violation result if `candidate` (to be added to
  // `table`) breaks a declared constraint, against the source's rows and
  // the statement's own `pending` rows. `exclude_row` (≥ 0) skips the
  // source's row of that position or index in the collision scans — the
  // row an UPDATE is about to replace.
  StatementResult CheckConstraints(
      const TableData& table, const std::vector<SqlValue>& candidate,
      const std::vector<ImageRow>* image,
      const std::vector<std::vector<SqlValue>>& pending, int exclude_row);
  // Evaluates, coerces and checks every row of an INSERT into `*accepted`,
  // stopping at the first failure (the whole statement then aborts).
  StatementResult BuildInsertRows(
      const InsertStmt& stmt, const TableData& table,
      const std::vector<ImageRow>* image,
      std::vector<std::vector<SqlValue>>* accepted);
  // Resolves an UPDATE's SET list to (column position, value) targets and
  // marks the statement's coverage features.
  StatementResult ResolveAssignments(const UpdateStmt& stmt,
                                     const TableData& table,
                                     Assignments* targets);
  // Applies `targets` to the pre-update row `pre` into `*updated`, coerces
  // the new values and checks the result, skipping the replaced row
  // `exclude_row` of the source.
  StatementResult BuildUpdatedRow(const TableData& table,
                                  const Assignments& targets,
                                  const std::vector<SqlValue>& pre,
                                  const std::vector<ImageRow>* image,
                                  int exclude_row,
                                  std::vector<SqlValue>* updated);
  // Collects the source rows (positions or image indexes) on which `where`
  // (null = every row) is TRUE. Returns false if evaluating `where` fails.
  bool MatchRows(const TableData& table, const std::vector<ImageRow>* image,
                 const Expr* where, std::vector<size_t>* matched) const;
  // Applies dialect insert-position coercion of `value` into `col`.
  // Returns false (and fills *failure) when the dialect rejects the value.
  bool CoerceForInsert(const ColumnDef& col, SqlValue* value,
                       StatementResult* failure);

  void Mark(Feature f) {
    if (coverage_ != nullptr) coverage_->Mark(f);
  }
  void MarkExprFeatures(const Expr& expr);

  bool BugOn(BugId id) const { return bugs_.enabled(id); }
  StatementResult Crash(const std::string& why);

  Dialect dialect_;
  BugConfig bugs_;
  // Declared before pool_/tables_: the pool and every TableStore borrow
  // &bugs_ and &storage_opts_ for their lifetime.
  StorageOptions storage_opts_;
  BufferPool pool_;
  CoverageMap* coverage_ = nullptr;
  bool alive_ = true;
  // Monotonic across Reset(): a recycled id could match a stale frame of a
  // destroyed table still sitting in the pool.
  uint32_t next_table_id_ = 0;
  std::vector<TableData> tables_;
  std::vector<IndexData> indexes_;

  // --- MVCC transaction state. ------------------------------------------
  // Open transactions by logical session id; entries are erased at
  // COMMIT/ROLLBACK, so `txns_.empty()` means quiescent.
  std::map<int, Transaction> txns_;
  int active_session_ = 0;  // switched by SetSessionStmt
  // Commit timestamps, monotonic across epochs (PruneHistory never rewinds
  // it). Snapshot of a new transaction = current value.
  uint64_t commit_clock_ = 0;
  bool in_epoch_ = false;
  // Last commit timestamp that wrote each table — the whole first-committer
  // -wins check, sound because generated DML is single-table.
  std::map<std::string, uint64_t> last_write_ts_;
  // Tables whose indexes kTxnRollbackStaleIndex corrupted; PruneHistory
  // skips rebuilding them once, leaving stale entries behind.
  std::set<std::string> rollback_corrupted_;
};

}  // namespace minidb
}  // namespace pqs

#endif  // PQS_SRC_MINIDB_DATABASE_H_
