// Typed expression subsystem (PR 4): per-function semantics checks against
// the shared evaluator, registry shape/availability checks, the new
// injected bug classes, GeneratorOptions validation, a rectified-
// containment property over deep expression-heavy predicates, and an
// always-on differential sweep of generated expression queries against
// real sqlite3 (0 false findings expected).
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property here is worker-count-invariant.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/pqs/campaign.h"
#include "src/pqs/runner.h"
#include "src/sqlexpr/rectify.h"
#include "src/sqlexpr/registry.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int expr_workers = 1;

// Cranked expression-feature probabilities shared by the property tests
// and the differential sweep.
GeneratorOptions DenseExprOptions() {
  GeneratorOptions gen;
  gen.max_predicate_depth = 5;
  gen.function_probability = 0.5;
  gen.cast_probability = 0.3;
  gen.case_probability = 0.25;
  gen.collate_probability = 0.5;
  gen.like_escape_probability = 0.5;
  gen.in_list_null_probability = 0.4;
  return gen;
}

// ---------------------------------------------------------------------------
// Evaluator unit checks (no engine, no rows)
// ---------------------------------------------------------------------------

SqlValue Eval(ExprPtr e, Dialect d = Dialect::kSqliteFlex,
              const BugConfig* bugs = nullptr, bool* error = nullptr) {
  EvalContext ctx{d, bugs};
  RowView no_row;
  EvalResult r = Evaluate(*e, no_row, ctx);
  if (error != nullptr) *error = r.error;
  return r.error ? SqlValue::Null() : r.value;
}

ExprPtr Call(FuncId f, std::vector<ExprPtr> args) {
  return MakeFunctionCall(f, std::move(args));
}

std::vector<ExprPtr> Args(ExprPtr a) {
  std::vector<ExprPtr> out;
  out.push_back(std::move(a));
  return out;
}

std::vector<ExprPtr> Args(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> out;
  out.push_back(std::move(a));
  out.push_back(std::move(b));
  return out;
}

std::vector<ExprPtr> Args(ExprPtr a, ExprPtr b, ExprPtr c) {
  std::vector<ExprPtr> out;
  out.push_back(std::move(a));
  out.push_back(std::move(b));
  out.push_back(std::move(c));
  return out;
}

void TestFunctionSemantics() {
  // ABS: integer stays integer, real stays real, NULL propagates.
  CHECK(ValueEquals(Eval(Call(FuncId::kAbs, Args(MakeIntLiteral(-3)))),
                    SqlValue::Int(3)));
  SqlValue abs_real = Eval(Call(FuncId::kAbs, Args(MakeRealLiteral(-0.5))));
  CHECK(abs_real.cls == StorageClass::kReal && abs_real.r == 0.5);
  CHECK(Eval(Call(FuncId::kAbs, Args(MakeNullLiteral()))).is_null());

  // LENGTH: byte count of text; NULL propagates.
  CHECK(ValueEquals(Eval(Call(FuncId::kLength, Args(MakeTextLiteral("ab")))),
                    SqlValue::Int(2)));
  CHECK(ValueEquals(Eval(Call(FuncId::kLength, Args(MakeTextLiteral("")))),
                    SqlValue::Int(0)));
  CHECK(Eval(Call(FuncId::kLength, Args(MakeNullLiteral()))).is_null());

  // UPPER / LOWER: ASCII folding.
  CHECK(ValueEquals(Eval(Call(FuncId::kUpper, Args(MakeTextLiteral("aB1")))),
                    SqlValue::Text("AB1")));
  CHECK(ValueEquals(Eval(Call(FuncId::kLower, Args(MakeTextLiteral("aB1")))),
                    SqlValue::Text("ab1")));

  // COALESCE: first non-NULL, lazily; all NULL → NULL.
  CHECK(ValueEquals(Eval(Call(FuncId::kCoalesce,
                              Args(MakeNullLiteral(), MakeIntLiteral(2)))),
                    SqlValue::Int(2)));
  CHECK(ValueEquals(
      Eval(Call(FuncId::kCoalesce,
                Args(MakeIntLiteral(1), MakeNullLiteral()))),
      SqlValue::Int(1)));
  CHECK(Eval(Call(FuncId::kCoalesce,
                  Args(MakeNullLiteral(), MakeNullLiteral())))
            .is_null());

  // NULLIF: NULL on equality, first arg otherwise; NULL probe stays NULL.
  CHECK(Eval(Call(FuncId::kNullif, Args(MakeIntLiteral(1),
                                        MakeIntLiteral(1))))
            .is_null());
  CHECK(ValueEquals(Eval(Call(FuncId::kNullif, Args(MakeIntLiteral(1),
                                                    MakeIntLiteral(2)))),
                    SqlValue::Int(1)));
  CHECK(Eval(Call(FuncId::kNullif, Args(MakeNullLiteral(),
                                        MakeIntLiteral(2))))
            .is_null());

  // Scalar MIN/MAX (LEAST/GREATEST): any NULL argument wins, else order.
  CHECK(ValueEquals(Eval(Call(FuncId::kLeast,
                              Args(MakeIntLiteral(2), MakeIntLiteral(1),
                                   MakeIntLiteral(3)))),
                    SqlValue::Int(1)));
  CHECK(ValueEquals(Eval(Call(FuncId::kGreatest,
                              Args(MakeIntLiteral(2), MakeIntLiteral(1),
                                   MakeIntLiteral(3)))),
                    SqlValue::Int(3)));
  CHECK(Eval(Call(FuncId::kLeast, Args(MakeIntLiteral(2),
                                       MakeNullLiteral())))
            .is_null());
  // SQLite's binary text order: 'B' < 'a'.
  CHECK(ValueEquals(Eval(Call(FuncId::kLeast, Args(MakeTextLiteral("a"),
                                                   MakeTextLiteral("B")))),
                    SqlValue::Text("B")));

  // IFNULL: two-argument COALESCE where available.
  CHECK(ValueEquals(Eval(Call(FuncId::kIfnull,
                              Args(MakeNullLiteral(),
                                   MakeTextLiteral("x")))),
                    SqlValue::Text("x")));
  // ...and an error where the registry says it does not exist.
  bool error = false;
  Eval(Call(FuncId::kIfnull, Args(MakeNullLiteral(), MakeIntLiteral(1))),
       Dialect::kPostgresStrict, nullptr, &error);
  CHECK_MSG(error, "IFNULL must not exist in the strict dialect");

  // Strict typing: text into numeric-only functions is an error.
  error = false;
  Eval(Call(FuncId::kAbs, Args(MakeTextLiteral("x"))),
       Dialect::kPostgresStrict, nullptr, &error);
  CHECK_MSG(error, "abs(text) must error in the strict dialect");
}

void TestCastSemantics() {
  // REAL → INTEGER truncates toward zero (both signs).
  CHECK(ValueEquals(Eval(MakeCast(MakeRealLiteral(1.5), Affinity::kInteger)),
                    SqlValue::Int(1)));
  CHECK(ValueEquals(Eval(MakeCast(MakeRealLiteral(-0.5),
                                  Affinity::kInteger)),
                    SqlValue::Int(0)));
  // TEXT → INTEGER takes the integer prefix; no prefix → 0.
  CHECK(ValueEquals(Eval(MakeCast(MakeTextLiteral("12ab"),
                                  Affinity::kInteger)),
                    SqlValue::Int(12)));
  CHECK(ValueEquals(Eval(MakeCast(MakeTextLiteral("abc"),
                                  Affinity::kInteger)),
                    SqlValue::Int(0)));
  // TEXT → REAL takes the numeric prefix.
  SqlValue r = Eval(MakeCast(MakeTextLiteral("-3"), Affinity::kReal));
  CHECK(r.cls == StorageClass::kReal && r.r == -3.0);
  // Anything → TEXT renders like the engine ('2.0', not '2').
  CHECK(ValueEquals(Eval(MakeCast(MakeRealLiteral(2.0), Affinity::kText)),
                    SqlValue::Text("2.0")));
  CHECK(Eval(MakeCast(MakeNullLiteral(), Affinity::kInteger)).is_null());
  // Strict: text → numeric cast is a runtime error.
  bool error = false;
  Eval(MakeCast(MakeTextLiteral("abc"), Affinity::kInteger),
       Dialect::kPostgresStrict, nullptr, &error);
  CHECK_MSG(error, "strict CAST(text AS INTEGER) must error");
}

ExprPtr CaseOf(std::vector<std::pair<ExprPtr, ExprPtr>> arms,
               ExprPtr else_value) {
  return MakeCase(std::move(arms), std::move(else_value));
}

void TestCaseSemantics() {
  // First true WHEN wins.
  std::vector<std::pair<ExprPtr, ExprPtr>> arms;
  arms.emplace_back(MakeIntLiteral(0), MakeTextLiteral("first"));
  arms.emplace_back(MakeIntLiteral(1), MakeTextLiteral("second"));
  CHECK(ValueEquals(Eval(CaseOf(std::move(arms), MakeTextLiteral("else"))),
                    SqlValue::Text("second")));
  // No match → ELSE.
  arms.clear();
  arms.emplace_back(MakeIntLiteral(0), MakeTextLiteral("x"));
  CHECK(ValueEquals(Eval(CaseOf(std::move(arms), MakeTextLiteral("else"))),
                    SqlValue::Text("else")));
  // No match, no ELSE → NULL; a NULL WHEN is not a match.
  arms.clear();
  arms.emplace_back(MakeNullLiteral(), MakeTextLiteral("x"));
  CHECK(Eval(CaseOf(std::move(arms), nullptr)).is_null());
}

void TestLikeEscapeAndCollate() {
  // Escaped wildcard matches itself literally; unescaped stays a wildcard.
  CHECK(LikeMatch("a%b", "a!%%", /*case_insensitive=*/true, '!'));
  CHECK(!LikeMatch("axb", "a!%%", /*case_insensitive=*/true, '!'));
  CHECK(LikeMatch("axb", "a%", /*case_insensitive=*/true, '!'));
  CHECK(LikeMatch("_x", "!_%", /*case_insensitive=*/true, '!'));
  CHECK(!LikeMatch("ax", "!_%", /*case_insensitive=*/true, '!'));
  // Escape folding: escaped literals still compare case-insensitively.
  CHECK(LikeMatch("A%B", "a!%b", /*case_insensitive=*/true, '!'));
  // A pattern ending in a bare escape character matches nothing (real
  // SQLite: 'ab!' LIKE 'ab!' ESCAPE '!' is 0).
  CHECK(!LikeMatch("ab!", "ab!", /*case_insensitive=*/true, '!'));
  CHECK(!LikeMatch("ab", "ab!", /*case_insensitive=*/true, '!'));

  // The evaluator end: value LIKE pattern ESCAPE '!'.
  CHECK(ValueEquals(Eval(MakeLikeEscape(MakeTextLiteral("a%b"),
                                        MakeTextLiteral("a!%%"),
                                        MakeTextLiteral("!"),
                                        /*negated=*/false)),
                    SqlValue::Bool(true)));
  // A multi-character ESCAPE expression is an error.
  bool error = false;
  Eval(MakeLikeEscape(MakeTextLiteral("a"), MakeTextLiteral("a"),
                      MakeTextLiteral("!!"), false),
       Dialect::kSqliteFlex, nullptr, &error);
  CHECK_MSG(error, "multi-character ESCAPE must error");

  // COLLATE NOCASE flips equality and ordering of ASCII text.
  auto nocase_cmp = [](BinaryOp op, const char* a, const char* b) {
    return Eval(MakeBinary(op,
                           MakeCollate(MakeTextLiteral(a),
                                       Collation::kNocase),
                           MakeTextLiteral(b)));
  };
  CHECK(ValueEquals(nocase_cmp(BinaryOp::kEq, "aB", "Ab"),
                    SqlValue::Bool(true)));
  // Ordering flips: binary has 'B'(0x42) < 'a'(0x61), NOCASE folds to
  // 'a' < 'b'.
  CHECK(ValueEquals(nocase_cmp(BinaryOp::kLt, "a", "B"),
                    SqlValue::Bool(true)));
  CHECK(ValueEquals(Eval(MakeBinary(BinaryOp::kLt,
                                    MakeCollate(MakeTextLiteral("B"),
                                                Collation::kBinary),
                                    MakeTextLiteral("a"))),
                    SqlValue::Bool(true)));
}

void TestRegistryShape() {
  CHECK_EQ(FunctionRegistry().size(),
           static_cast<size_t>(FuncId::kNumFuncs));
  for (size_t i = 0; i < FunctionRegistry().size(); ++i) {
    CHECK(FunctionRegistry()[i].id == static_cast<FuncId>(i));
  }
  // Per-dialect naming: SQLite spells scalar min/max MIN/MAX, the other
  // dialects LEAST/GREATEST.
  const FunctionSig& least = LookupFunction(FuncId::kLeast);
  CHECK_EQ(std::string(least.NameFor(Dialect::kSqliteFlex)), "MIN");
  CHECK_EQ(std::string(least.NameFor(Dialect::kMysqlLike)), "LEAST");
  CHECK_EQ(std::string(least.NameFor(Dialect::kPostgresStrict)), "LEAST");
  // Availability: IFNULL exists in SQLite/MySQL, not PostgreSQL.
  const FunctionSig& ifnull = LookupFunction(FuncId::kIfnull);
  CHECK(ifnull.available(Dialect::kSqliteFlex));
  CHECK(ifnull.available(Dialect::kMysqlLike));
  CHECK(!ifnull.available(Dialect::kPostgresStrict));
  CHECK_EQ(FunctionsForDialect(Dialect::kPostgresStrict).size(),
           FunctionRegistry().size() - 1);
}

// ---------------------------------------------------------------------------
// Injected expression bug classes flip exactly the modeled behavior
// ---------------------------------------------------------------------------

void TestExpressionBugHooks() {
  // like-escape-miss: the ESCAPE clause is ignored.
  BugConfig like_bug = BugConfig::Single(BugId::kLikeEscapeMiss);
  ExprPtr like = MakeLikeEscape(MakeTextLiteral("a%b"),
                                MakeTextLiteral("a!%%"),
                                MakeTextLiteral("!"), false);
  CHECK(ValueEquals(Eval(like->Clone()), SqlValue::Bool(true)));
  CHECK(ValueEquals(Eval(like->Clone(), Dialect::kSqliteFlex, &like_bug),
                    SqlValue::Bool(false)));

  // cast-trunc-affinity: REAL → INTEGER rounds instead of truncating.
  BugConfig cast_bug = BugConfig::Single(BugId::kCastTruncAffinity);
  ExprPtr cast = MakeCast(MakeRealLiteral(1.5), Affinity::kInteger);
  CHECK(ValueEquals(Eval(cast->Clone()), SqlValue::Int(1)));
  CHECK(ValueEquals(Eval(cast->Clone(), Dialect::kSqliteFlex, &cast_bug),
                    SqlValue::Int(2)));

  // collate-nocase-range: NOCASE honored for equality, lost for ranges.
  BugConfig coll_bug = BugConfig::Single(BugId::kCollateNocaseRange);
  ExprPtr range = MakeBinary(BinaryOp::kLt,
                             MakeCollate(MakeTextLiteral("a"),
                                         Collation::kNocase),
                             MakeTextLiteral("B"));
  CHECK(ValueEquals(Eval(range->Clone()), SqlValue::Bool(true)));
  CHECK(ValueEquals(Eval(range->Clone(), Dialect::kSqliteFlex, &coll_bug),
                    SqlValue::Bool(false)));
  ExprPtr eq = MakeBinary(BinaryOp::kEq,
                          MakeCollate(MakeTextLiteral("aB"),
                                      Collation::kNocase),
                          MakeTextLiteral("Ab"));
  CHECK(ValueEquals(Eval(eq->Clone(), Dialect::kSqliteFlex, &coll_bug),
                    SqlValue::Bool(true)));

  // coalesce-first-null: a NULL first argument poisons the whole call.
  BugConfig coal_bug = BugConfig::Single(BugId::kCoalesceFirstNull);
  ExprPtr coal = Call(FuncId::kCoalesce,
                      Args(MakeNullLiteral(), MakeIntLiteral(7)));
  CHECK(ValueEquals(Eval(coal->Clone()), SqlValue::Int(7)));
  CHECK(Eval(coal->Clone(), Dialect::kSqliteFlex, &coal_bug).is_null());

  // case-else-skip: the ELSE arm is skipped when no WHEN matches.
  BugConfig case_bug = BugConfig::Single(BugId::kCaseElseSkip);
  std::vector<std::pair<ExprPtr, ExprPtr>> arms;
  arms.emplace_back(MakeIntLiteral(0), MakeIntLiteral(1));
  ExprPtr case_expr = CaseOf(std::move(arms), MakeIntLiteral(9));
  CHECK(ValueEquals(Eval(case_expr->Clone()), SqlValue::Int(9)));
  CHECK(Eval(case_expr->Clone(), Dialect::kSqliteFlex, &case_bug).is_null());

  // in-list-null-semantics: UNKNOWN from a NULL element collapses.
  BugConfig in_bug = BugConfig::Single(BugId::kInListNullSemantics);
  std::vector<ExprPtr> list;
  list.push_back(MakeIntLiteral(1));
  list.push_back(MakeNullLiteral());
  ExprPtr in = MakeInList(MakeIntLiteral(2), std::move(list), false);
  CHECK(Eval(in->Clone()).is_null());
  CHECK(ValueEquals(Eval(in->Clone(), Dialect::kSqliteFlex, &in_bug),
                    SqlValue::Bool(false)));
}

// ---------------------------------------------------------------------------
// Structure-aware rectification
// ---------------------------------------------------------------------------

void TestRectifyStructure() {
  // TRUE keeps φ.
  ExprPtr t = RectifyToTrue(MakeIntLiteral(1), Bool3::kTrue);
  CHECK(t->kind == ExprKind::kLiteral);
  // FALSE on a negatable node flips the flag instead of wrapping.
  ExprPtr like = MakeLike(MakeTextLiteral("a"), MakeTextLiteral("b"),
                          /*negated=*/false);
  ExprPtr flipped = RectifyToTrue(std::move(like), Bool3::kFalse);
  CHECK(flipped->kind == ExprKind::kLike && flipped->negated);
  // FALSE on NOT φ unwraps to φ.
  ExprPtr not_cmp = MakeUnary(UnaryOp::kNot,
                              MakeBinary(BinaryOp::kEq, MakeIntLiteral(1),
                                         MakeIntLiteral(1)));
  ExprPtr unwrapped = RectifyToTrue(std::move(not_cmp), Bool3::kFalse);
  CHECK(unwrapped->kind == ExprKind::kBinary);
  // NULL wraps in IS NULL — also for function results.
  ExprPtr call = Call(FuncId::kCoalesce,
                      Args(MakeNullLiteral(), MakeNullLiteral()));
  ExprPtr wrapped = RectifyToTrue(std::move(call), Bool3::kNull);
  CHECK(wrapped->kind == ExprKind::kIsNull && !wrapped->negated);

  // Depth buckets: 1-2 / 3-4 / 5-6 / 7-8 / ≥9.
  CHECK_EQ(ExprDepthBucket(1), 0);
  CHECK_EQ(ExprDepthBucket(2), 0);
  CHECK_EQ(ExprDepthBucket(3), 1);
  CHECK_EQ(ExprDepthBucket(8), 3);
  CHECK_EQ(ExprDepthBucket(40), 4);
}

// ---------------------------------------------------------------------------
// GeneratorOptions validation
// ---------------------------------------------------------------------------

void TestGeneratorOptionsValidate() {
  GeneratorOptions ok;
  CHECK_EQ(ok.Validate(), std::string(""));

  GeneratorOptions bad_depth;
  bad_depth.max_predicate_depth = -1;
  CHECK(!bad_depth.Validate().empty());

  GeneratorOptions bad_rows;
  bad_rows.min_rows = 10;
  bad_rows.max_rows = 3;
  CHECK(!bad_rows.Validate().empty());

  GeneratorOptions bad_prob;
  bad_prob.function_probability = 1.5;
  CHECK(!bad_prob.Validate().empty());
  bad_prob.function_probability = -0.1;
  CHECK(!bad_prob.Validate().empty());

  GeneratorOptions bad_sessions;
  bad_sessions.txn_sessions = 0;
  CHECK(!bad_sessions.Validate().empty());
  bad_sessions.txn_sessions = 9;
  CHECK(!bad_sessions.Validate().empty());
  bad_sessions.txn_sessions = 8;
  CHECK_EQ(bad_sessions.Validate(), std::string(""));

  // The runner refuses to run on invalid options and says why.
  RunnerOptions ro;
  ro.gen.case_probability = 2.0;
  PqsRunner runner(
      []() -> ConnectionPtr {
        return std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
      },
      ro);
  RunReport report = runner.Run();
  CHECK(!report.invalid_options.empty());
  CHECK_EQ(report.stats.databases_created, uint64_t{0});

  // The campaign layer refuses too.
  CampaignOptions co;
  co.gen.in_list_null_probability = -1.0;
  BugHuntResult hunt = HuntBug(BugId::kLikeEscapeMiss, co);
  CHECK(!hunt.detected);
  CHECK(!hunt.invalid_options.empty());  // never-hunted is distinguishable
  CHECK_EQ(hunt.databases_used, uint64_t{0});
}

// ---------------------------------------------------------------------------
// Rectified-containment property at depth 5 with dense expression features
// ---------------------------------------------------------------------------

void TestRectifiedExpressionContainment() {
  uint64_t total_checked = 0;
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    RunnerOptions opts;
    opts.seed = 0x5eed4 + static_cast<uint64_t>(dialect);
    opts.databases = 80;
    opts.queries_per_database = 10;
    opts.workers = expr_workers;
    opts.gen = DenseExprOptions();
    int workers = expr_workers > 0 ? expr_workers : 1;
    std::vector<minidb::CoverageMap> per_worker(
        static_cast<size_t>(workers));
    WorkerEngineFactory factory = [dialect, &per_worker](int worker)
        -> ConnectionPtr {
      auto db = std::make_unique<minidb::Database>(dialect);
      db->set_coverage_sink(&per_worker[static_cast<size_t>(worker)]);
      return db;
    };
    PqsRunner runner(std::move(factory), opts);
    RunReport report = runner.Run();
    CHECK_MSG(report.findings.empty(),
              "dialect %s: %zu false finding(s) on a clean engine",
              DialectName(dialect), report.findings.size());
    total_checked += report.stats.queries_checked;

    // Every new expression feature is actually reached (COLLATE only
    // exists in the SQLite dialect).
    minidb::CoverageMap merged;
    for (const minidb::CoverageMap& m : per_worker) merged.Merge(m);
    std::vector<minidb::Feature> expected = {
        minidb::Feature::kExprFunction,
        minidb::Feature::kExprFunctionVariadic,
        minidb::Feature::kExprCast,
        minidb::Feature::kExprCase,
        minidb::Feature::kExprCaseElse,
        minidb::Feature::kExprLikeEscape,
        minidb::Feature::kExprInListNull,
    };
    if (dialect == Dialect::kSqliteFlex) {
      expected.push_back(minidb::Feature::kExprCollate);
    }
    for (minidb::Feature f : expected) {
      CHECK_MSG(merged.Hits(f) > 0, "dialect %s: feature %s never exercised",
                DialectName(dialect), minidb::FeatureName(f));
    }

    // Depth-bucketed stats: depth-5 generation reaches past the first
    // histogram bucket, and the tallies cover every checked predicate.
    uint64_t bucket_sum = 0;
    for (int b = 0; b < RunStats::kDepthBuckets; ++b) {
      bucket_sum += report.stats.predicate_depth_buckets[b];
    }
    CHECK(bucket_sum >= report.stats.queries_checked);
    CHECK(report.stats.predicate_depth_buckets[2] +
              report.stats.predicate_depth_buckets[3] +
              report.stats.predicate_depth_buckets[4] >
          0);
    CHECK(report.stats.predicates_with_function > 0);
    CHECK(report.stats.function_calls_generated >=
          report.stats.predicates_with_function);
  }
  CHECK_MSG(total_checked >= 2000,
            "only %llu rectified queries checked across dialects",
            static_cast<unsigned long long>(total_checked));
}

// ---------------------------------------------------------------------------
// Differential sweep vs real sqlite3 (always on when the library exists)
// ---------------------------------------------------------------------------

void TestRealSqliteExpressionSweep() {
  RunnerOptions opts;
  opts.seed = 0xE445;
  opts.databases = 120;
  opts.queries_per_database = 12;
  opts.workers = expr_workers;
  opts.gen = DenseExprOptions();
  EngineFactory factory = []() -> ConnectionPtr {
    return std::make_unique<SqliteConnection>();
  };
  PqsRunner runner(factory, opts);
  RunReport report = runner.Run();
  CHECK_MSG(report.findings.empty(),
            "real sqlite: %zu false finding(s) in %llu checked queries",
            report.findings.size(),
            static_cast<unsigned long long>(report.stats.queries_checked));
  CHECK(report.stats.queries_checked > 700);
  CHECK(report.stats.predicates_with_function > 0);
}

// ---------------------------------------------------------------------------
// Every new bug class is found by HuntBug within the default budget
// ---------------------------------------------------------------------------

void TestNewBugsDetectedByExpectedOracle() {
  CampaignOptions options;
  options.seed = 20200604;
  options.reduce = false;  // reduction has its own test
  options.workers = expr_workers;
  for (BugId bug : {BugId::kLikeEscapeMiss, BugId::kCastTruncAffinity,
                    BugId::kCollateNocaseRange, BugId::kCoalesceFirstNull,
                    BugId::kCaseElseSkip, BugId::kInListNullSemantics}) {
    BugHuntResult r = HuntBug(bug, options);
    CHECK_MSG(r.detected, "bug %s not detected within the default budget",
              r.name);
    CHECK_MSG(r.oracle == minidb::LookupBug(bug).oracle,
              "bug %s fired the %s oracle", r.name, OracleName(r.oracle));
  }
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::expr_workers = std::atoi(argv[i + 1]);
      ++i;
    }
  }
  pqs::TestFunctionSemantics();
  pqs::TestCastSemantics();
  pqs::TestCaseSemantics();
  pqs::TestLikeEscapeAndCollate();
  pqs::TestRegistryShape();
  pqs::TestExpressionBugHooks();
  pqs::TestRectifyStructure();
  pqs::TestGeneratorOptionsValidate();
  pqs::TestRectifiedExpressionContainment();
  pqs::TestRealSqliteExpressionSweep();
  pqs::TestNewBugsDetectedByExpectedOracle();
  return pqs::test::Summary("test_expr_semantics");
}
