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

void AggregateStats::Add(const TestCaseStats& tc) {
  ++total_cases;
  loc_values.push_back(tc.statement_count);
  for (const std::string& category : tc.categories) {
    ++per_category[category].test_cases_containing;
  }
  if (!tc.trigger_category.empty() && !tc.oracle_name.empty()) {
    ++per_category[tc.trigger_category].trigger_by_oracle[tc.oracle_name];
  }
  with_unique += tc.has_unique ? 1 : 0;
  with_primary_key += tc.has_primary_key ? 1 : 0;
  with_create_index += tc.has_create_index ? 1 : 0;
  single_table += tc.single_table ? 1 : 0;
  with_explicit_join += tc.has_explicit_join ? 1 : 0;
  with_left_join += tc.has_left_join ? 1 : 0;
  with_distinct += tc.has_distinct ? 1 : 0;
  with_order_by += tc.has_order_by ? 1 : 0;
  with_limit += tc.has_limit ? 1 : 0;
  with_function_call += tc.has_function_call ? 1 : 0;
  with_cast += tc.has_cast ? 1 : 0;
  with_case += tc.has_case ? 1 : 0;
  with_collate += tc.has_collate ? 1 : 0;
  if (tc.max_expr_depth > max_expr_depth) {
    max_expr_depth = tc.max_expr_depth;
  }
  with_update += tc.has_update ? 1 : 0;
  with_delete += tc.has_delete ? 1 : 0;
  with_drop_index += tc.has_drop_index ? 1 : 0;
  with_maintenance += tc.has_maintenance ? 1 : 0;
}

void AggregateStats::Merge(const AggregateStats& other) {
  total_cases += other.total_cases;
  loc_values.insert(loc_values.end(), other.loc_values.begin(),
                    other.loc_values.end());
  for (const auto& [category, stat] : other.per_category) {
    CategoryStat& mine = per_category[category];
    mine.test_cases_containing += stat.test_cases_containing;
    for (const auto& [oracle, count] : stat.trigger_by_oracle) {
      mine.trigger_by_oracle[oracle] += count;
    }
  }
  with_unique += other.with_unique;
  with_primary_key += other.with_primary_key;
  with_create_index += other.with_create_index;
  single_table += other.single_table;
  with_explicit_join += other.with_explicit_join;
  with_left_join += other.with_left_join;
  with_distinct += other.with_distinct;
  with_order_by += other.with_order_by;
  with_limit += other.with_limit;
  with_function_call += other.with_function_call;
  with_cast += other.with_cast;
  with_case += other.with_case;
  with_collate += other.with_collate;
  if (other.max_expr_depth > max_expr_depth) {
    max_expr_depth = other.max_expr_depth;
  }
  with_update += other.with_update;
  with_delete += other.with_delete;
  with_drop_index += other.with_drop_index;
  with_maintenance += other.with_maintenance;
}

double AggregateStats::AverageLoc() const {
  if (loc_values.empty()) return 0.0;
  size_t sum = 0;
  for (size_t v : loc_values) sum += v;
  return static_cast<double>(sum) / static_cast<double>(loc_values.size());
}

size_t AggregateStats::MaxLoc() const {
  size_t max = 0;
  for (size_t v : loc_values) max = v > max ? v : max;
  return max;
}

double AggregateStats::CdfAt(size_t loc) const {
  if (loc_values.empty()) return 0.0;
  size_t below = 0;
  for (size_t v : loc_values) below += v <= loc ? 1 : 0;
  return static_cast<double>(below) / static_cast<double>(loc_values.size());
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
