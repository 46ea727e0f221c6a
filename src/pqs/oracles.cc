#include "src/pqs/oracles.h"

#include "src/sqlstmt/stmt.h"

namespace pqs {

const char* OracleName(OracleKind kind) {
  switch (kind) {
    case OracleKind::kContainment:
      return "contains";
    case OracleKind::kError:
      return "error";
    case OracleKind::kCrash:
      return "crash";
    case OracleKind::kNorec:
      return "norec";
    case OracleKind::kTlp:
      return "tlp";
    case OracleKind::kTxnSerial:
      return "txn-serial";
  }
  return "?";
}

OracleFamily FamilyForOracle(OracleKind kind) {
  switch (kind) {
    case OracleKind::kNorec:
      return OracleFamily::kNorec;
    case OracleKind::kTlp:
      return OracleFamily::kTlp;
    default:
      return OracleFamily::kContainment;
  }
}

bool ResultContainsRow(const StatementResult& result,
                       const std::vector<SqlValue>& pivot) {
  for (const auto& row : result.rows) {
    if (row.size() != pivot.size()) continue;
    bool match = true;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!ValueEquals(row[i], pivot[i])) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

void AggregateStats::Merge(const AggregateStats& other) {
  cases.insert(cases.end(), other.cases.begin(), other.cases.end());
}

size_t AggregateStats::Count(bool TestCaseStats::*flag) const {
  size_t count = 0;
  for (const TestCaseStats& tc : cases) count += tc.*flag ? 1 : 0;
  return count;
}

int AggregateStats::MaxExprDepth() const {
  int max = 0;
  for (const TestCaseStats& tc : cases) {
    max = tc.max_expr_depth > max ? tc.max_expr_depth : max;
  }
  return max;
}

std::map<std::string, CategoryStat> AggregateStats::PerCategory() const {
  std::map<std::string, CategoryStat> per_category;
  for (const TestCaseStats& tc : cases) {
    for (const std::string& category : tc.categories) {
      ++per_category[category].test_cases_containing;
    }
    if (!tc.trigger_category.empty() && !tc.oracle_name.empty()) {
      ++per_category[tc.trigger_category].trigger_by_oracle[tc.oracle_name];
    }
  }
  return per_category;
}

double AggregateStats::AverageLoc() const {
  if (cases.empty()) return 0.0;
  size_t sum = 0;
  for (const TestCaseStats& tc : cases) sum += tc.statement_count;
  return static_cast<double>(sum) / static_cast<double>(cases.size());
}

size_t AggregateStats::MaxLoc() const {
  size_t max = 0;
  for (const TestCaseStats& tc : cases) {
    max = tc.statement_count > max ? tc.statement_count : max;
  }
  return max;
}

double AggregateStats::CdfAt(size_t loc) const {
  if (cases.empty()) return 0.0;
  size_t below = 0;
  for (const TestCaseStats& tc : cases) {
    below += tc.statement_count <= loc ? 1 : 0;
  }
  return static_cast<double>(below) / static_cast<double>(cases.size());
}

TestCaseStats AnalyzeTestCase(const Finding& finding) {
  TestCaseStats stats;
  stats.statement_count = finding.statements.size();
  stats.oracle_name = OracleName(finding.oracle);
  size_t tables_created = 0;
  for (const StmtPtr& s : finding.statements) {
    if (s == nullptr) continue;
    stats.categories.insert(StatementCategory(*s));
    switch (s->kind()) {
      case StmtKind::kCreateTable: {
        ++tables_created;
        const auto& ct = static_cast<const CreateTableStmt&>(*s);
        for (const ColumnDef& col : ct.columns) {
          stats.has_unique |= col.unique;
          stats.has_primary_key |= col.primary_key;
        }
        break;
      }
      case StmtKind::kCreateIndex:
        stats.has_create_index = true;
        break;
      case StmtKind::kUpdate: {
        stats.has_update = true;
        const auto& up = static_cast<const UpdateStmt&>(*s);
        if (up.where != nullptr) {
          int depth = up.where->Depth();
          if (depth > stats.max_expr_depth) stats.max_expr_depth = depth;
        }
        break;
      }
      case StmtKind::kDelete: {
        stats.has_delete = true;
        const auto& del = static_cast<const DeleteStmt&>(*s);
        if (del.where != nullptr) {
          int depth = del.where->Depth();
          if (depth > stats.max_expr_depth) stats.max_expr_depth = depth;
        }
        break;
      }
      case StmtKind::kDropIndex:
        stats.has_drop_index = true;
        break;
      case StmtKind::kMaintenance:
        stats.has_maintenance = true;
        break;
      case StmtKind::kSelect: {
        const auto& sel = static_cast<const SelectStmt&>(*s);
        stats.has_explicit_join |= !sel.joins.empty();
        auto scan_expr = [&stats](const Expr& e) {
          stats.has_function_call |= e.ContainsKind(ExprKind::kFunctionCall);
          stats.has_cast |= e.ContainsKind(ExprKind::kCast);
          stats.has_case |= e.ContainsKind(ExprKind::kCase);
          stats.has_collate |= e.ContainsKind(ExprKind::kCollate);
          int depth = e.Depth();
          if (depth > stats.max_expr_depth) stats.max_expr_depth = depth;
        };
        for (const JoinClause& join : sel.joins) {
          stats.has_left_join |= join.kind == JoinKind::kLeft;
          if (join.on != nullptr) scan_expr(*join.on);
        }
        if (sel.where != nullptr) scan_expr(*sel.where);
        for (const ExprPtr& item : sel.select_list) {
          if (item != nullptr) scan_expr(*item);
        }
        if (sel.having != nullptr) scan_expr(*sel.having);
        stats.has_distinct |= sel.distinct;
        stats.has_order_by |= !sel.order_by.empty();
        stats.has_limit |= sel.limit >= 0;
        break;
      }
      default:
        break;
    }
  }
  if (!finding.statements.empty() && finding.statements.back() != nullptr) {
    stats.trigger_category = StatementCategory(*finding.statements.back());
  }
  stats.single_table = tables_created == 1;
  return stats;
}

}  // namespace pqs
