#include "src/pqs/reducer.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/interp/eval.h"

namespace pqs {

namespace {

// Multiset equality of result rows (row order is engine-defined and may
// legitimately differ once rows are dropped).
bool SameResultRows(const StatementResult& a, const StatementResult& b) {
  return SameRowMultiset(a.rows, b.rows);
}

// Replays all statements but the last; returns false if the engine died.
// Setup errors (e.g. an INSERT whose CREATE TABLE was removed) are
// tolerated — the final differential decides whether the candidate still
// reproduces.
bool ReplaySetup(Connection* conn, const std::vector<StmtPtr>& statements) {
  for (size_t i = 0; i + 1 < statements.size(); ++i) {
    if (statements[i] == nullptr) continue;
    StatementResult r = conn->Execute(*statements[i]);
    if (r.status == StatementStatus::kCrash ||
        r.status == StatementStatus::kUnsupported) {
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
  ProbeEngines(const EngineFactory& buggy, const EngineFactory* reference)
      : buggy_factory_(buggy), reference_factory_(reference) {}

  // A fresh, empty buggy engine; null if the factory failed.
  Connection* FreshBuggy() { return Fresh(buggy_factory_, &buggy_conn_); }

  // A fresh, empty reference engine; null if none was supplied or the
  // factory failed.
  Connection* FreshReference() {
    if (reference_factory_ == nullptr) return nullptr;
    return Fresh(*reference_factory_, &reference_conn_);
  }

 private:
  static Connection* Fresh(const EngineFactory& factory, ConnectionPtr* slot) {
    if (*slot != nullptr && (*slot)->Reset()) return slot->get();
    *slot = factory();
    return slot->get();
  }

  const EngineFactory& buggy_factory_;
  const EngineFactory* reference_factory_;
  ConnectionPtr buggy_conn_;
  ConnectionPtr reference_conn_;
};

bool Reproduces(ProbeEngines& engines,
                const std::vector<StmtPtr>& statements, OracleKind oracle,
                const std::vector<SqlValue>& pivot) {
  if (statements.empty() || statements.back() == nullptr) return false;
  Connection* buggy_conn = engines.FreshBuggy();
  if (buggy_conn == nullptr) return false;
  if (!ReplaySetup(buggy_conn, statements)) return false;
  StatementResult buggy_result = buggy_conn->Execute(*statements.back());

  StatementResult reference_result;
  bool have_reference = false;
  Connection* ref_conn = engines.FreshReference();
  if (ref_conn != nullptr && ReplaySetup(ref_conn, statements)) {
    reference_result = ref_conn->Execute(*statements.back());
    have_reference = true;
  }

  switch (oracle) {
    case OracleKind::kCrash:
      if (buggy_result.status != StatementStatus::kCrash) return false;
      return !have_reference ||
             reference_result.status != StatementStatus::kCrash;
    case OracleKind::kError:
      if (buggy_result.status != StatementStatus::kError &&
          buggy_result.status != StatementStatus::kConstraintViolation) {
        return false;
      }
      return !have_reference || reference_result.ok();
    case OracleKind::kContainment:
      if (!buggy_result.ok()) return false;
      if (have_reference) {
        return reference_result.ok() &&
               !SameResultRows(buggy_result, reference_result);
      }
      // Pivot-based fallback when no reference engine is available.
      return !pivot.empty() && !ResultContainsRow(buggy_result, pivot);
    case OracleKind::kNorec:
    case OracleKind::kTlp:
    case OracleKind::kTxnSerial:
      // Transaction findings reduce differentially, like the metamorphic
      // oracles: the decisive SELECT (snapshot or committed-state fetch)
      // must still disagree with a clean engine replaying the same
      // interleaved stream. BEGIN/COMMIT/ROLLBACK statements removed by a
      // ddmin chunk merely reshape the schedule — the final differential
      // decides whether the shrunken schedule still reproduces.
      // Metamorphic findings reduce differentially: the decisive (last)
      // transformed query must still disagree with the reference engine.
      // Without a reference — or when the disagreement sat in an earlier
      // transformed query — nothing reproduces and the finding is kept
      // unreduced, never wrongly shrunk.
      if (!buggy_result.ok()) return false;
      return have_reference && reference_result.ok() &&
             !SameResultRows(buggy_result, reference_result);
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
  ProbeEngines engines(buggy, reference);
  return Reproduces(engines, finding.statements, finding.oracle,
                    finding.pivot);
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
  ProbeEngines engines(buggy, reference);

  std::vector<StmtPtr> current = NormalizeStatements(finding.statements);
  if (!Reproduces(engines, current, finding.oracle, finding.pivot)) {
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
        if (Reproduces(engines, candidate, finding.oracle, finding.pivot)) {
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
