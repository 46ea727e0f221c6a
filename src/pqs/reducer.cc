#include "src/pqs/reducer.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/interp/eval.h"

namespace pqs {

namespace {

// Replays all statements but the last; returns false if the engine died.
// Setup errors (e.g. an INSERT whose CREATE TABLE was removed) are
// tolerated — the final differential decides whether the candidate still
// reproduces.
bool ReplaySetup(Connection* conn, const std::vector<StmtPtr>& statements) {
  for (size_t i = 0; i + 1 < statements.size(); ++i) {
    if (statements[i] == nullptr) continue;
    if (conn->Execute(*statements[i]).status == StatementStatus::kCrash) {
      return false;
    }
  }
  return true;
}

// Holds one buggy and one reference connection for the lifetime of a
// reduction. A ddmin reduction runs hundreds of replay probes; engines
// whose Connection::Reset() can clear back to an empty database are
// constructed once and recycled across probes instead of once per probe.
// Engines without in-place reset transparently fall back to the factory.
class ProbeEngines {
 public:
  ProbeEngines(const EngineFactory& buggy, const EngineFactory& reference)
      : buggy_factory_(buggy), reference_factory_(reference) {}

  // A fresh, empty buggy engine; null if the factory failed.
  Connection* FreshBuggy() { return Fresh(buggy_factory_, &buggy_conn_); }

  // A fresh, empty reference engine; null if the factory failed.
  Connection* FreshReference() {
    return Fresh(reference_factory_, &reference_conn_);
  }

 private:
  static Connection* Fresh(const EngineFactory& factory, ConnectionPtr* slot) {
    if (*slot != nullptr && (*slot)->Reset()) return slot->get();
    *slot = factory();
    return slot->get();
  }

  const EngineFactory& buggy_factory_;
  const EngineFactory& reference_factory_;
  ConnectionPtr buggy_conn_;
  ConnectionPtr reference_conn_;
};

// Replays `statements` on a fresh buggy and a fresh reference engine and
// decides, by `oracle`, whether the last statement still shows the bug.
bool Reproduces(ProbeEngines& engines,
                const std::vector<StmtPtr>& statements, OracleKind oracle) {
  if (statements.empty() || statements.back() == nullptr) return false;
  Connection* buggy_conn = engines.FreshBuggy();
  if (buggy_conn == nullptr) return false;
  if (!ReplaySetup(buggy_conn, statements)) return false;
  StatementResult buggy_result = buggy_conn->Execute(*statements.back());

  Connection* ref_conn = engines.FreshReference();
  if (ref_conn == nullptr || !ReplaySetup(ref_conn, statements)) return false;
  StatementResult reference_result = ref_conn->Execute(*statements.back());

  switch (oracle) {
    case OracleKind::kCrash:
      return buggy_result.status == StatementStatus::kCrash &&
             reference_result.status != StatementStatus::kCrash;
    case OracleKind::kError:
      return (buggy_result.status == StatementStatus::kError ||
              buggy_result.status ==
                  StatementStatus::kConstraintViolation) &&
             reference_result.ok();
    case OracleKind::kContainment:
    case OracleKind::kNorec:
    case OracleKind::kTlp:
    case OracleKind::kTxnSerial:
      // The decisive (last) SELECT must succeed on both engines and return
      // a different row multiset (row order is engine-defined). For a
      // metamorphic finding that SELECT is the last transformed query: a
      // finding whose disagreement sat in an earlier one does not reproduce
      // and is kept unreduced, never wrongly shrunk. For a transaction
      // finding it is the snapshot or committed-state fetch, and the
      // BEGIN/COMMIT/ROLLBACK statements a ddmin chunk removes merely
      // reshape the replayed schedule.
      return buggy_result.ok() && reference_result.ok() &&
             !SameRowMultiset(buggy_result.rows, reference_result.rows);
  }
  return false;
}

// Splits every multi-row INSERT into single-row INSERT statements.
std::vector<StmtPtr> NormalizeStatements(
    const std::vector<StmtPtr>& statements) {
  std::vector<StmtPtr> out;
  for (const StmtPtr& stmt : statements) {
    if (stmt == nullptr) continue;
    if (stmt->kind() == StmtKind::kInsert) {
      const auto& insert = static_cast<const InsertStmt&>(*stmt);
      if (insert.rows.size() > 1) {
        for (const auto& row : insert.rows) {
          auto single = std::make_unique<InsertStmt>();
          single->table_name = insert.table_name;
          single->rows.emplace_back();
          for (const ExprPtr& v : row) {
            single->rows.back().push_back(v ? v->Clone() : nullptr);
          }
          out.push_back(std::move(single));
        }
        continue;
      }
    }
    out.push_back(stmt->Clone());
  }
  return out;
}

std::vector<StmtPtr> CloneStatements(const std::vector<StmtPtr>& statements) {
  std::vector<StmtPtr> out;
  out.reserve(statements.size());
  for (const StmtPtr& s : statements) {
    out.push_back(s ? s->Clone() : nullptr);
  }
  return out;
}

}  // namespace

bool FindingReproduces(const EngineFactory& buggy, const Finding& finding,
                       const EngineFactory* reference) {
  ProbeEngines engines(buggy, *reference);
  return Reproduces(engines, finding.statements, finding.oracle);
}

Finding ReduceFinding(const EngineFactory& buggy, const Finding& finding,
                      const EngineFactory* reference) {
  Finding out;
  out.oracle = finding.oracle;
  out.dialect = finding.dialect;
  out.pivot = finding.pivot;
  out.message = finding.message;
  // The reduced finding keeps the original's flight-recorder provenance:
  // the events describe the session that *found* the bug, which the
  // shrunken statement list no longer replays on its own.
  out.flight = finding.flight;

  // One connection pair serves every probe of this reduction.
  ProbeEngines engines(buggy, *reference);

  std::vector<StmtPtr> current = NormalizeStatements(finding.statements);
  if (!Reproduces(engines, current, finding.oracle)) {
    // Normalization (or the finding itself) does not replay; return the
    // original statements untouched.
    out.statements = CloneStatements(finding.statements);
    return out;
  }

  // Greedy ddmin over the setup prefix; the triggering statement (last) is
  // pinned. Chunk sizes halve from n/2 down to 1; repeat whole passes until
  // none removes anything.
  bool progress = true;
  while (progress) {
    progress = false;
    size_t setup = current.size() - 1;
    size_t chunk = setup / 2 > 0 ? setup / 2 : 1;
    while (true) {
      size_t start = 0;
      while (start < current.size() - 1) {
        size_t end = start + chunk;
        if (end > current.size() - 1) end = current.size() - 1;
        std::vector<StmtPtr> candidate;
        candidate.reserve(current.size() - (end - start));
        for (size_t i = 0; i < current.size(); ++i) {
          if (i >= start && i < end) continue;
          candidate.push_back(current[i]->Clone());
        }
        if (Reproduces(engines, candidate, finding.oracle)) {
          current = std::move(candidate);
          progress = true;
          // Keep `start` in place: later statements shifted left into it.
        } else {
          start = end;
        }
      }
      if (chunk == 1) break;
      chunk /= 2;
    }
  }

  out.statements = std::move(current);
  return out;
}

}  // namespace pqs
