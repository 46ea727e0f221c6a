// Hot-path substrate tests (DESIGN §11): the expression evaluator must
// reproduce a recorded golden corpus of outcomes in every dialect, the
// size-classed node pool must recycle memory within each class without
// aliasing across classes or threads, and libsqlite3's memory methods over
// the pool must keep SQLite's allocator contract.
//
// The golden corpus pins evaluator semantics without a second evaluator to
// compare against: every generated predicate's value class, value, error
// flag and error message on every corpus row. Run with `--workers N` (the
// TSan CI job uses 4) to drive the thread-local NodePool caches and the
// cross-thread block handoff from concurrent threads.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/engine/connection.h"
#include "src/interp/eval.h"
#include "src/pqs/generator.h"
#include "src/sqlast/ast.h"
#include "src/sqlite3db/sqlite_connection.h"
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
  // Warm up: 300 live Expr nodes, then free them all back to the thread
  // cache.
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
  CHECK(NodePool::ThreadCacheBlocks(sizeof(Expr)) > 0);

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

// Every size maps to the class that fits it, blocks are 16-byte aligned,
// and a freed block is the next one handed out for any size of its class.
void TestNodePoolRecyclesWithinEachClass() {
  for (size_t cls = 0; cls < NodePool::kClasses; ++cls) {
    size_t bytes = NodePool::ClassBytes(cls);
    size_t smallest = bytes - NodePool::kGranule + 1;
    CHECK_EQ(NodePool::ClassOf(bytes), cls);
    CHECK_EQ(NodePool::ClassOf(smallest), cls);
    void* p = NodePool::Take(bytes);
    CHECK_EQ(reinterpret_cast<uintptr_t>(p) % NodePool::kGranule,
             static_cast<uintptr_t>(0));
    size_t cached = NodePool::ThreadCacheBlocks(bytes);
    NodePool::Put(p, bytes);
    CHECK_EQ(NodePool::ThreadCacheBlocks(bytes), cached + 1);
    void* q = NodePool::Take(smallest);
    CHECK(q == p);
    NodePool::Put(q, smallest);
  }
}

// One live block of every class at once, each filled with its own byte:
// no two blocks overlap, and no fill reaches another class's block.
void TestNodePoolClassesDoNotAlias() {
  struct Block {
    unsigned char* p;
    size_t bytes;
  };
  std::vector<Block> blocks;
  for (size_t cls = 0; cls < NodePool::kClasses; ++cls) {
    size_t bytes = NodePool::ClassBytes(cls);
    auto* p = static_cast<unsigned char*>(NodePool::Take(bytes));
    std::memset(p, static_cast<int>(cls + 1), bytes);
    blocks.push_back({p, bytes});
  }
  size_t corrupted = 0;
  for (size_t cls = 0; cls < blocks.size(); ++cls) {
    for (size_t i = 0; i < blocks[cls].bytes; ++i) {
      if (blocks[cls].p[i] != cls + 1) ++corrupted;
    }
  }
  CHECK_EQ(corrupted, static_cast<size_t>(0));
  std::vector<Block> sorted = blocks;
  std::sort(sorted.begin(), sorted.end(),
            [](const Block& a, const Block& b) { return a.p < b.p; });
  for (size_t i = 1; i < sorted.size(); ++i) {
    CHECK(sorted[i - 1].p + sorted[i - 1].bytes <= sorted[i].p);
  }
  for (const Block& b : blocks) NodePool::Put(b.p, b.bytes);
}

// Blocks taken here, freed on other threads and taken again there are
// reused, not duplicated: each worker gets back exactly the blocks it
// freed. The workers' caches are donated when they exit, so taking every
// block again here carves no new slab. Under TSan (`--workers 4`) this is
// the handoff a finding's expression tree makes across the shard merge.
void TestNodePoolCrossThreadReuse(int workers) {
  constexpr size_t kBytes = 200;
  constexpr size_t kBlocks = 300;
  std::vector<std::vector<void*>> given(static_cast<size_t>(workers));
  std::vector<std::vector<void*>> reused(static_cast<size_t>(workers));
  for (std::vector<void*>& blocks : given) {
    for (size_t i = 0; i < kBlocks; ++i) {
      void* p = NodePool::Take(kBytes);
      std::memset(p, 0x5a, kBytes);
      blocks.push_back(p);
    }
  }
  size_t slabs = NodePool::SlabsAllocated();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&given, &reused, w]() {
      std::vector<void*>& mine = reused[static_cast<size_t>(w)];
      for (void* p : given[static_cast<size_t>(w)]) NodePool::Put(p, kBytes);
      for (size_t i = 0; i < kBlocks; ++i) {
        void* p = NodePool::Take(kBytes);
        std::memset(p, w, kBytes);
        mine.push_back(p);
      }
      for (void* p : mine) NodePool::Put(p, kBytes);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < workers; ++w) {
    std::vector<void*>& a = given[static_cast<size_t>(w)];
    std::vector<void*>& b = reused[static_cast<size_t>(w)];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    CHECK(a == b);
  }
  std::vector<void*> again;
  for (size_t i = 0; i < kBlocks * static_cast<size_t>(workers); ++i) {
    again.push_back(NodePool::Take(kBytes));
  }
  CHECK_EQ(NodePool::SlabsAllocated(), slabs);
  for (void* p : again) NodePool::Put(p, kBytes);
}

// Churn at a fixed peak of live blocks carves slabs for the peak only — at
// most one per slab's worth of live blocks, plus the partly carved one —
// and none at all once warm.
void TestNodePoolSlabsBoundedByPeakLive() {
  constexpr size_t kBytes = 1000;
  constexpr size_t kPeak = 1000;
  size_t before = NodePool::SlabsAllocated();
  size_t warm = 0;
  std::vector<void*> live;
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (size_t i = 0; i < kPeak; ++i) live.push_back(NodePool::Take(kBytes));
    for (void* p : live) NodePool::Put(p, kBytes);
    live.clear();
    if (cycle == 0) warm = NodePool::SlabsAllocated();
  }
  size_t per_slab =
      NodePool::kSlabBytes / NodePool::ClassBytes(NodePool::ClassOf(kBytes));
  CHECK(warm - before <= (kPeak + per_slab - 1) / per_slab + 1);
  CHECK_EQ(NodePool::SlabsAllocated(), warm);
}

// ---------------------------------------------------------------------------
// SqliteHeap: libsqlite3's memory methods over NodePool
// ---------------------------------------------------------------------------

void FillPattern(void* p, int bytes, unsigned seed) {
  auto* b = static_cast<unsigned char*>(p);
  for (int i = 0; i < bytes; ++i) b[i] = static_cast<unsigned char>(seed + i);
}

bool HasPattern(const void* p, int bytes, unsigned seed) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (int i = 0; i < bytes; ++i) {
    if (b[i] != static_cast<unsigned char>(seed + i)) return false;
  }
  return true;
}

// SQLite's allocator contract at and around every class boundary (a
// payload that exactly fills a class after the 16-byte header) and above
// the largest class: Size >= the request and equal to Roundup, Roundup(n)
// >= n, Realloc keeps the common prefix whether it grows, shrinks or
// crosses between the pool and malloc.
void TestSqliteHeapContract() {
  constexpr int kHeader = 16;
  std::vector<int> sizes = {1, 2, 8};
  for (size_t cls = 1; cls < NodePool::kClasses; ++cls) {
    int fill = static_cast<int>(NodePool::ClassBytes(cls)) - kHeader;
    sizes.insert(sizes.end(), {fill - 1, fill, fill + 1});
  }
  sizes.insert(sizes.end(), {1500, 4096, 65537});
  for (int n : sizes) {
    CHECK(SqliteHeap::Roundup(n) >= n);
    void* p = SqliteHeap::Malloc(n);
    CHECK(p != nullptr);
    CHECK_EQ(reinterpret_cast<uintptr_t>(p) % 8, static_cast<uintptr_t>(0));
    CHECK_MSG(SqliteHeap::Size(p) >= n, "Size %d < request %d",
              SqliteHeap::Size(p), n);
    CHECK_EQ(SqliteHeap::Size(p), SqliteHeap::Roundup(n));
    FillPattern(p, n, static_cast<unsigned>(n));
    int have = n;
    for (int m : {n / 2 + 1, n + 1, n + 17, 2 * n + 1000, n}) {
      void* q = SqliteHeap::Realloc(p, m);
      CHECK(q != nullptr);
      CHECK(SqliteHeap::Size(q) >= m);
      CHECK_MSG(HasPattern(q, std::min(have, m), static_cast<unsigned>(n)),
                "realloc %d -> %d lost the prefix", have, m);
      FillPattern(q, m, static_cast<unsigned>(n));
      p = q;
      have = m;
    }
    SqliteHeap::Free(p);
  }
  SqliteHeap::Free(nullptr);
  CHECK_EQ(SqliteHeap::Size(nullptr), 0);

  // A realloc inside the block's rounded size keeps it in place: SQLite
  // skips the call when Size(p) == Roundup(n), so the two must agree.
  void* small = SqliteHeap::Malloc(20);
  CHECK(SqliteHeap::Realloc(small, SqliteHeap::Size(small)) == small);
  SqliteHeap::Free(small);

  // The largest pooled payload goes back to the largest class; one byte
  // more takes the malloc path and leaves every class cache untouched.
  int largest = static_cast<int>(NodePool::kMaxBlock) - kHeader;
  void* top = SqliteHeap::Malloc(largest);
  size_t top_cached = NodePool::ThreadCacheBlocks(NodePool::kMaxBlock);
  SqliteHeap::Free(top);
  CHECK_EQ(NodePool::ThreadCacheBlocks(NodePool::kMaxBlock), top_cached + 1);
  std::vector<size_t> cached;
  for (size_t cls = 0; cls < NodePool::kClasses; ++cls) {
    cached.push_back(NodePool::ThreadCacheBlocks(NodePool::ClassBytes(cls)));
  }
  size_t slabs = NodePool::SlabsAllocated();
  for (int n : {largest + 1, 4096, 1 << 20}) {
    void* big = SqliteHeap::Malloc(n);
    CHECK(big != nullptr);
    SqliteHeap::Free(big);
  }
  CHECK_EQ(NodePool::SlabsAllocated(), slabs);
  for (size_t cls = 0; cls < NodePool::kClasses; ++cls) {
    CHECK_EQ(NodePool::ThreadCacheBlocks(NodePool::ClassBytes(cls)),
             cached[cls]);
  }
}

// The first connection installs the heap (unless SQLite was initialized
// earlier, which test_sqlite_preinit covers) and SQLite runs on it.
void TestSqliteRunsOnPooledHeap() {
  SqliteConnection conn;
  CHECK(conn.alive());
  CHECK(SqliteHeap::Installed());
  CreateTableStmt ct;
  ct.table_name = "t";
  ColumnDef col;
  col.name = "a";
  col.declared_type = "TEXT";
  ct.columns = {col};
  CHECK(conn.Execute(ct).ok());
  InsertStmt ins;
  ins.table_name = "t";
  ins.rows.emplace_back();
  ins.rows.back().push_back(MakeLiteral(SqlValue::Text("pooled")));
  CHECK(conn.Execute(ins).ok());
  SelectStmt sel;
  sel.from_tables = {"t"};
  StatementResult r = conn.Execute(sel);
  CHECK(r.ok());
  CHECK_EQ(r.rows.size(), static_cast<size_t>(1));
  CHECK(r.rows.size() == 1 && r.rows[0][0].cls == StorageClass::kText &&
        r.rows[0][0].t == "pooled");
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
    rows.emplace_back(schema.size());  // all-NULL row

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
  pqs::TestNodePoolRecyclesWithinEachClass();
  pqs::TestNodePoolClassesDoNotAlias();
  pqs::TestNodePoolCrossThreadReuse(workers);
  pqs::TestNodePoolSlabsBoundedByPeakLive();
  pqs::TestSqliteHeapContract();
  pqs::TestSqliteRunsOnPooledHeap();
  pqs::TestEvaluatorGoldenCorpus(workers);
  return pqs::test::Summary("test_hotpath");
}
