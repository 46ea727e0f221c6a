// PQS test oracles and test-case analysis.
//
// PQS detects bugs with three oracles (paper §3.3):
//  - containment: the rectified query must return the pivot row;
//  - error: a statement the generator guarantees valid must not fail;
//  - crash: the engine must not die.
// A Finding is the self-contained evidence for one oracle violation: the
// full statement log that provoked it (replayable SQL), which oracle fired,
// and — for containment — the pivot row that went missing.
#ifndef PQS_SRC_PQS_ORACLES_H_
#define PQS_SRC_PQS_ORACLES_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/connection.h"
#include "src/obs/flight_recorder.h"
#include "src/sqlast/ast.h"
#include "src/sqlvalue/value.h"

namespace pqs {

// kTxnSerial: the committed state of the concurrent K-session workload
// diverged from a serial replay of the committed transactions in commit
// order — the MVCC anomaly oracle (sound under snapshot isolation with
// table-granular first-committer-wins; DESIGN §14).
enum class OracleKind { kContainment, kError, kCrash, kNorec, kTlp,
                        kTxnSerial };

const char* OracleName(OracleKind kind);

// Which oracle family a campaign runs its query phase with. Error and
// crash detection are always on; the family chooses the semantic check:
// PQS pivot containment, NoREC's optimized-vs-unoptimized count compare,
// or TLP's ternary partition recombination (the only family that can
// judge aggregate/GROUP BY queries). kAuto lets HuntBug pick the family
// a bug's registry entry names as its intended finder.
enum class OracleFamily { kAuto, kContainment, kNorec, kTlp };

// The family that runs a given oracle's semantic check: kNorec/kTlp map to
// their own families, everything else (containment, error, crash) to
// kContainment — error and crash findings surface under every family.
OracleFamily FamilyForOracle(OracleKind kind);

struct Finding {
  OracleKind oracle = OracleKind::kContainment;
  Dialect dialect = Dialect::kSqliteFlex;
  // Everything executed on the connection, in order; the statement that
  // triggered the oracle is last.
  std::vector<StmtPtr> statements;
  // Containment only: the joined pivot row the query should have returned.
  std::vector<SqlValue> pivot;
  std::string message;
  // Flight-recorder provenance: the session's most recent events
  // (statements, pivots, oracle checks, evictions, txn markers) at the
  // moment the finding was recorded, oldest first. Never empty for a
  // runner finding: the last event is always its kFindingRecorded marker.
  std::vector<obs::FlightEvent> flight;

  Finding() = default;
  Finding(Finding&&) = default;
  Finding& operator=(Finding&&) = default;
};

// Containment check used by the runner: does the result set contain `pivot`
// as one of its rows?
bool ResultContainsRow(const StatementResult& result,
                       const std::vector<SqlValue>& pivot);

// ---------------------------------------------------------------------------
// Reduced-test-case analysis (Figures 2 and 3, §4.3)
// ---------------------------------------------------------------------------

struct TestCaseStats {
  size_t statement_count = 0;
  std::set<std::string> categories;   // statement categories present
  std::string trigger_category;       // category of the triggering statement
  std::string oracle_name;            // oracle that fired
  bool has_unique = false;            // UNIQUE column constraint present
  bool has_primary_key = false;
  bool has_create_index = false;
  bool single_table = false;          // exactly one table created
  // Query-space feature buckets (PR 3): explicit JOIN syntax (with LEFT
  // singled out), DISTINCT, ORDER BY, and LIMIT in any SELECT.
  bool has_explicit_join = false;
  bool has_left_join = false;
  bool has_distinct = false;
  bool has_order_by = false;
  bool has_limit = false;
  // Typed-expression buckets (PR 4): registry function calls, CAST, CASE,
  // and COLLATE anywhere in a SELECT's expressions, plus the maximum
  // expression depth seen across the test case's WHERE/ON predicates.
  bool has_function_call = false;
  bool has_cast = false;
  bool has_case = false;
  bool has_collate = false;
  int max_expr_depth = 0;
  // Statement-mutation buckets (PR 5): the state-changing statement kinds
  // of the action stream present in the test case.
  bool has_update = false;
  bool has_delete = false;
  bool has_drop_index = false;
  bool has_maintenance = false;
};

struct CategoryStat {
  size_t test_cases_containing = 0;
  // Oracle name → number of test cases whose triggering statement has this
  // category and fired that oracle.
  std::map<std::string, size_t> trigger_by_oracle;
};

// The reduced test cases of a campaign. Every figure is counted on demand
// from the per-case stats, so each feature is named once, in TestCaseStats.
struct AggregateStats {
  std::vector<TestCaseStats> cases;

  void Add(TestCaseStats tc) { cases.push_back(std::move(tc)); }
  // Value merge of per-shard aggregates: appends `other`'s test cases, so
  // Merge(a, b) of disjoint shards equals Add()-ing every test case.
  void Merge(const AggregateStats& other);
  // Test cases with `flag` set, e.g. Count(&TestCaseStats::has_unique).
  size_t Count(bool TestCaseStats::*flag) const;
  // Deepest WHERE/ON expression seen across all test cases.
  int MaxExprDepth() const;
  // Per statement category, in name order.
  std::map<std::string, CategoryStat> PerCategory() const;
  double AverageLoc() const;
  size_t MaxLoc() const;
  // Fraction of test cases with statement count <= loc.
  double CdfAt(size_t loc) const;
};

TestCaseStats AnalyzeTestCase(const Finding& finding);

}  // namespace pqs

#endif  // PQS_SRC_PQS_ORACLES_H_
