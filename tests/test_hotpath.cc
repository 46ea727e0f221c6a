// Hot-path substrate tests (DESIGN §11): the expression evaluator must
// reproduce a recorded golden corpus of outcomes in every dialect, the node
// pool must actually recycle memory across churn cycles, and the interner
// must round-trip symbols.
//
// The golden corpus pins evaluator semantics without a second evaluator to
// compare against: every generated predicate's value class, value, error
// flag and error message on every corpus row. Run with `--workers N` (the
// TSan CI job uses 4) to drive the thread-local NodePool caches and the
// interner's global table from concurrent evaluation threads.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/common/interner.h"
#include "src/common/rng.h"
#include "src/engine/connection.h"
#include "src/interp/eval.h"
#include "src/pqs/generator.h"
#include "src/sqlast/ast.h"
#include "src/sqlvalue/value.h"
#include "tests/test_util.h"

#ifndef PQS_SOURCE_DIR
#define PQS_SOURCE_DIR "."
#endif

namespace pqs {
namespace {

// ---------------------------------------------------------------------------
// NodePool (via Expr::operator new/delete)
// ---------------------------------------------------------------------------

void TestNodePoolRecycles() {
  // Warm up: push the pool past one slab's worth of live Expr nodes, then
  // free them all back to the thread cache.
  std::vector<Expr*> live;
  live.reserve(300);
  for (int i = 0; i < 300; ++i) {
    Expr* e = new Expr();
    e->kind = ExprKind::kLiteral;
    e->literal = SqlValue::Int(i);
    live.push_back(e);
  }
  for (Expr* e : live) delete e;
  live.clear();
  CHECK(NodePool::SlabsAllocated() > 0);
  CHECK(NodePool::ThreadCacheSize() > 0);

  // Steady-state churn at the warmed-up live count must be served entirely
  // from recycled slots: the slab count may never grow again.
  size_t slabs = NodePool::SlabsAllocated();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 300; ++i) live.push_back(new Expr());
    for (Expr* e : live) delete e;
    live.clear();
  }
  CHECK_EQ(NodePool::SlabsAllocated(), slabs);
}

// ---------------------------------------------------------------------------
// Interner
// ---------------------------------------------------------------------------

void TestInternerRoundTrip() {
  size_t size_before = Interner::Size();
  int32_t a = Interner::Intern("hotpath_tbl");
  int32_t b = Interner::Intern("hotpath_col");
  CHECK(a != b);
  CHECK(a != Interner::kInvalidSymbol);
  CHECK_EQ(Interner::Intern("hotpath_tbl"), a);  // stable across calls
  CHECK_EQ(Interner::Name(a), std::string("hotpath_tbl"));
  CHECK_EQ(Interner::Name(b), std::string("hotpath_col"));
  CHECK_EQ(Interner::Name(Interner::kInvalidSymbol), std::string());
  CHECK_EQ(Interner::Name(1 << 30), std::string());
  CHECK(Interner::Size() >= size_before + 2);
}

// ---------------------------------------------------------------------------
// Evaluator golden corpus
// ---------------------------------------------------------------------------

// One evaluation outcome in the golden file's notation: `N`, `I<int>`,
// `R<real>`, `T<'text'>` (the renderer's literal spelling after the class
// letter), or `E:<message>` for an evaluation error.
std::string ResultCode(const EvalResult& r) {
  if (r.error) return "E:" + r.message;
  switch (r.value.cls) {
    case StorageClass::kNull:
      return "N";
    case StorageClass::kInteger:
      return "I" + r.value.ToSqlLiteral();
    case StorageClass::kReal:
      return "R" + r.value.ToSqlLiteral();
    case StorageClass::kText:
      return "T" + r.value.ToSqlLiteral();
  }
  return "?";
}

// Random cell for `affinity`: mostly affinity-correct (plus NULLs), with a
// small cross-class minority so the comparison kernels' coercion paths run
// too. Text draws from a tiny alphabet that includes LIKE wildcards and the
// generator's escape character.
SqlValue RandomCell(Affinity affinity, Rng* rng) {
  if (rng->Chance(0.22)) return SqlValue::Null();
  if (rng->Chance(0.1)) affinity = rng->Pick({Affinity::kInteger,
                                              Affinity::kReal,
                                              Affinity::kText});
  switch (affinity) {
    case Affinity::kInteger:
      return SqlValue::Int(rng->IntIn(-6, 18));
    case Affinity::kReal:
      return SqlValue::Real(static_cast<double>(rng->IntIn(-40, 40)) / 4.0);
    case Affinity::kText: {
      static const char kAlphabet[] = "abAB%_!3";
      std::string s;
      for (int64_t n = rng->IntIn(0, 4); n > 0; --n) {
        s.push_back(kAlphabet[rng->Below(sizeof kAlphabet - 1)]);
      }
      return SqlValue::Text(s);
    }
  }
  return SqlValue::Null();
}

// One worker's slice of the corpus for one dialect: `seeds` generated
// schemas, `preds_per_seed` predicates each, every predicate evaluated on
// several rows (including an all-NULL row). Returns one line per predicate:
// its corpus index, then the outcome on each row, tab-separated.
std::vector<std::string> RunCorpusSlice(Dialect dialect, uint64_t seed_lo,
                                        uint64_t seed_hi, int preds_per_seed) {
  GeneratorOptions gopts;
  // Crank the typed-expression features so the corpus is dense in the
  // constructs with their own evaluation order or laziness: functions,
  // CAST, CASE, IN, LIKE ESCAPE, and collations.
  gopts.max_predicate_depth = 4;
  gopts.function_probability = 0.5;
  gopts.cast_probability = 0.35;
  gopts.case_probability = 0.25;
  gopts.collate_probability = 0.5;
  gopts.like_escape_probability = 0.5;
  gopts.in_list_null_probability = 0.4;
  Generator gen(gopts, dialect);
  EvalContext ctx;
  ctx.dialect = dialect;

  std::vector<std::string> lines;
  for (uint64_t seed = seed_lo; seed < seed_hi; ++seed) {
    Rng rng(Rng::StreamSeed(0x407b47c5ull,
                            seed * 3 + static_cast<uint64_t>(dialect)));
    DatabasePlan plan = gen.GenerateDatabase(&rng);
    std::vector<const TableSchema*> tables;
    RowSchema schema;
    for (const TableSchema& t : plan.tables) {
      tables.push_back(&t);
      for (const ColumnDef& c : t.columns) schema.Add(t.name, c.name);
    }

    // A handful of rows per schema: random cells plus one all-NULL row.
    std::vector<std::vector<SqlValue>> rows;
    for (int r = 0; r < 3; ++r) {
      std::vector<SqlValue> row;
      for (const TableSchema* t : tables) {
        for (const ColumnDef& c : t->columns) {
          row.push_back(RandomCell(c.affinity, &rng));
        }
      }
      rows.push_back(std::move(row));
    }
    rows.emplace_back(schema.cols.size());  // all-NULL row

    for (int p = 0; p < preds_per_seed; ++p) {
      ExprPtr expr = gen.GeneratePredicate(tables, &rng);
      std::string line = std::to_string(seed * preds_per_seed + p);
      for (const std::vector<SqlValue>& row : rows) {
        line += '\t';
        line += ResultCode(Evaluate(*expr, RowView{&schema, &row}, ctx));
      }
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

// Every predicate's outcome (value class, value, error flag, message) on
// every corpus row, per dialect, against tests/golden/eval_corpus.golden.
// The corpus was recorded with the evaluator this repository had before
// its evaluator rewrite, so a diff here is an evaluator semantics change
// (regenerate with PQS_UPDATE_GOLDEN=1 only for a deliberate one). The
// workers split each dialect's seeds; lines are joined in seed order, so
// the bytes do not depend on the worker count.
void TestEvaluatorGoldenCorpus(int workers) {
  constexpr uint64_t kSeeds = 250;  // per dialect
  constexpr int kPredsPerSeed = 20;  // 250 * 20 = 5000 exprs per dialect
  const Dialect dialects[] = {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                              Dialect::kPostgresStrict};
  std::string golden;
  for (Dialect dialect : dialects) {
    std::vector<std::vector<std::string>> slices(static_cast<size_t>(workers));
    std::vector<std::thread> threads;
    uint64_t per = (kSeeds + workers - 1) / workers;
    for (int w = 0; w < workers; ++w) {
      uint64_t lo = static_cast<uint64_t>(w) * per;
      uint64_t hi = lo + per < kSeeds ? lo + per : kSeeds;
      if (lo >= hi) break;
      threads.emplace_back([&slices, w, dialect, lo, hi]() {
        slices[static_cast<size_t>(w)] =
            RunCorpusSlice(dialect, lo, hi, kPredsPerSeed);
      });
    }
    for (std::thread& t : threads) t.join();
    size_t exprs = 0;
    golden += std::string("# ") + DialectName(dialect) + "\n";
    for (const std::vector<std::string>& slice : slices) {
      for (const std::string& line : slice) {
        golden += line;
        golden += '\n';
        ++exprs;
      }
    }
    std::printf("  golden corpus [%s]: %zu exprs\n", DialectName(dialect),
                exprs);
    CHECK_EQ(exprs, static_cast<size_t>(kSeeds * kPredsPerSeed));
  }
  test::CheckGolden(std::string(PQS_SOURCE_DIR) +
                        "/tests/golden/eval_corpus.golden",
                    golden);
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  int workers = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[i + 1]);
      if (workers < 1) workers = 1;
    }
  }
  pqs::TestNodePoolRecycles();
  pqs::TestInternerRoundTrip();
  pqs::TestEvaluatorGoldenCorpus(workers);
  return pqs::test::Summary("test_hotpath");
}
