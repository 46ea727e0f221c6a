// PR-8 paged storage layer: buffer-pool unit checks (pin/unpin, clock
// eviction determinism, dirty write-back, emergency growth), TableStore
// page layout and cursor bounds, the auto-Stress arming rule for storage
// bug classes, a 2k-session paged property run at the forced-tiny pool
// (scan-with-index == scan-without, paged state == flat ground truth),
// byte-identical runner reports with paging on/off and 1 vs N workers,
// and default-budget HuntBug detection of the four storage bug classes.
//
// Accepts `--workers N` (the CI ThreadSanitizer job passes 4); every
// property is worker-count-invariant.
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/minidb/buffer_pool.h"
#include "src/obs/telemetry.h"
#include "src/minidb/coverage.h"
#include "src/minidb/database.h"
#include "src/pqs/campaign.h"
#include "src/pqs/generator.h"
#include "src/pqs/runner.h"
#include "src/pqs/scheduler.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlparser/render.h"
#include "tests/test_util.h"

namespace pqs {
namespace {

int property_workers = 1;

using minidb::BufferPool;
using minidb::DiskPage;
using minidb::StorageOptions;

// ---------------------------------------------------------------------------
// Buffer pool units
// ---------------------------------------------------------------------------

std::vector<DiskPage> MakeDisk(int pages) {
  std::vector<DiskPage> disk(pages);
  for (int p = 0; p < pages; ++p) {
    disk[p].rows = {{SqlValue::Int(p)}};
  }
  return disk;
}

// The pool counts its work only in the installed session's registry.
void TestPoolPinUnpin() {
  obs::SessionTelemetry session;
  obs::ScopedSessionTelemetry install(&session);
  BufferPool pool(4, 1, nullptr);
  std::vector<DiskPage> disk = MakeDisk(8);

  int f = pool.Fetch(0, 0, &disk[0], BufferPool::Intent::kRead);
  CHECK_EQ(pool.frame(f).pins, 1);
  CHECK_EQ(session.metrics.counter(obs::Counter::kPoolMisses), uint64_t{1});
  // A hit pins the same frame again.
  int f2 = pool.Fetch(0, 0, &disk[0], BufferPool::Intent::kRead);
  CHECK_EQ(f, f2);
  CHECK_EQ(pool.frame(f).pins, 2);
  CHECK_EQ(session.metrics.counter(obs::Counter::kPoolHits), uint64_t{1});
  CHECK_EQ(session.metrics.counter(obs::Counter::kPoolMisses), uint64_t{1});
  pool.Unpin(f);
  pool.Unpin(f);
  CHECK_EQ(pool.frame(f).pins, 0);
  CHECK_EQ(pool.pinned_frames(), 0);
}

void TestPoolDirtyWriteBack() {
  obs::SessionTelemetry session;
  obs::ScopedSessionTelemetry install(&session);
  BufferPool pool(4, 1, nullptr);
  std::vector<DiskPage> disk = MakeDisk(8);

  int f = pool.Fetch(0, 1, &disk[1], BufferPool::Intent::kWrite);
  pool.frame(f).rows[0][0] = SqlValue::Int(100);
  pool.Unpin(f);
  // Cycle enough other pages through the 4-frame pool to force page 1 out.
  for (uint32_t p = 2; p < 8; ++p) {
    int g = pool.Fetch(0, p, &disk[p], BufferPool::Intent::kRead);
    pool.Unpin(g);
  }
  CHECK(session.metrics.counter(obs::Counter::kPoolEvictions) > 0);
  CHECK(session.metrics.counter(obs::Counter::kPoolWritebacks) > 0);
  CHECK_EQ(disk[1].rows[0][0].i, static_cast<int64_t>(100));
  // Clean pages are never written back: page 2's disk image is untouched.
  CHECK_EQ(disk[2].rows[0][0].i, static_cast<int64_t>(2));
}

void TestPoolEmergencyGrowth() {
  obs::SessionTelemetry session;
  obs::ScopedSessionTelemetry install(&session);
  BufferPool pool(4, 1, nullptr);
  std::vector<DiskPage> disk = MakeDisk(8);
  std::vector<int> held;
  for (uint32_t p = 0; p < 4; ++p) {
    held.push_back(pool.Fetch(0, p, &disk[p], BufferPool::Intent::kRead));
  }
  CHECK_EQ(pool.pinned_frames(), 4);
  // Every frame pinned: the fifth fetch must grow, not deadlock or evict.
  int extra = pool.Fetch(0, 4, &disk[4], BufferPool::Intent::kRead);
  CHECK_EQ(pool.frame_count(), static_cast<size_t>(5));
  CHECK_EQ(session.metrics.counter(obs::Counter::kPoolEvictions), uint64_t{0});
  pool.Unpin(extra);
  for (int h : held) pool.Unpin(h);
  // Reset shrinks back to the configured frame count.
  pool.Reset();
  CHECK_EQ(pool.frame_count(), static_cast<size_t>(4));
}

// The pool's eviction trace now arrives through the flight recorder
// (src/obs): each eviction is a kEviction event carrying (table, page).
// These tests install a session telemetry context and read the events
// back, replacing the old bespoke set_trace()/eviction_log() API.
std::vector<std::pair<uint32_t, uint32_t>> EvictionsFrom(
    const obs::FlightRecorder& recorder) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  for (const obs::FlightEvent& e : recorder.Dump()) {
    if (e.kind == obs::EventKind::kEviction) out.emplace_back(e.a, e.b);
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> DriveEvictions(uint64_t seed) {
  // A ring large enough that no eviction of this drive is overwritten.
  obs::SessionTelemetry session(4096);
  obs::ScopedSessionTelemetry install(&session);
  BufferPool pool(4, seed, nullptr);
  std::vector<DiskPage> disk = MakeDisk(16);
  for (int i = 0; i < 200; ++i) {
    uint32_t p = static_cast<uint32_t>((i * 7 + 3) % 16);
    int f = pool.Fetch(0, p, &disk[p], BufferPool::Intent::kRead);
    pool.Unpin(f);
  }
  return EvictionsFrom(session.recorder);
}

void TestEvictionOrderDeterministic() {
  // Same seed + same access sequence ⇒ identical eviction order, run to
  // run — the property every replay and N-worker byte-identity claim
  // leans on.
  std::vector<std::pair<uint32_t, uint32_t>> log = DriveEvictions(7);
  CHECK(!log.empty());
  CHECK(log == DriveEvictions(7));
  CHECK(log == DriveEvictions(7));

  // Reset rewinds the clock hand to its seed-derived start: driving the
  // same sequence after a Reset evicts the same pages in the same order
  // (each drive recorded under its own session ring).
  BufferPool pool(4, 7, nullptr);
  std::vector<DiskPage> disk = MakeDisk(16);
  auto drive = [&]() {
    obs::SessionTelemetry session(4096);
    obs::ScopedSessionTelemetry install(&session);
    for (int i = 0; i < 200; ++i) {
      uint32_t p = static_cast<uint32_t>((i * 7 + 3) % 16);
      int f = pool.Fetch(0, p, &disk[p], BufferPool::Intent::kRead);
      pool.Unpin(f);
    }
    return EvictionsFrom(session.recorder);
  };
  std::vector<std::pair<uint32_t, uint32_t>> first = drive();
  CHECK(!first.empty());
  pool.Reset();
  CHECK(first == drive());
}

// ---------------------------------------------------------------------------
// TableStore layout + Database storage arming
// ---------------------------------------------------------------------------

void MakeIntTable(minidb::Database* db, const std::string& name) {
  CreateTableStmt ct;
  ct.table_name = name;
  ColumnDef def;
  def.name = "a";
  def.declared_type = "INT";
  def.affinity = Affinity::kInteger;
  ct.columns.push_back(def);
  CHECK(db->Execute(ct).ok());
}

void InsertInts(minidb::Database* db, const std::string& table, int from,
                int to) {
  InsertStmt ins;
  ins.table_name = table;
  for (int v = from; v < to; ++v) {
    std::vector<ExprPtr> row;
    row.push_back(MakeIntLiteral(v));
    ins.rows.push_back(std::move(row));
  }
  CHECK(db->Execute(ins).ok());
}

void TestTableStorePagedLayout() {
  minidb::Database db(Dialect::kSqliteFlex, BugConfig(),
                      StorageOptions::Stress());
  MakeIntTable(&db, "t");
  InsertInts(&db, "t", 0, 7);

  const minidb::TableStore* store = db.table_store("t");
  CHECK(store != nullptr);
  CHECK(store->paged());
  CHECK_EQ(store->page_rows(), static_cast<uint32_t>(2));
  CHECK_EQ(store->size(), static_cast<size_t>(7));
  CHECK_EQ(store->page_count(), static_cast<size_t>(4));

  // Materialized returns the rows in position (= insertion) order.
  const std::vector<std::vector<SqlValue>>& rows = store->Materialized();
  CHECK_EQ(rows.size(), static_cast<size_t>(7));
  for (size_t i = 0; i < rows.size(); ++i) {
    CHECK_EQ(rows[i][0].i, static_cast<int64_t>(i));
  }

  // Cursor resolves every live position and bounds-guards the rest.
  minidb::TableStore::Cursor cursor(*store);
  for (size_t pos = 0; pos < 7; ++pos) {
    const std::vector<SqlValue>* row = cursor.TryRow(pos);
    CHECK(row != nullptr);
    if (row != nullptr) CHECK_EQ((*row)[0].i, static_cast<int64_t>(pos));
  }
  CHECK(cursor.TryRow(7) == nullptr);     // tail slot of the last page
  CHECK(cursor.TryRow(1000) == nullptr);  // far past the extent
}

void TestStorageBugArmsStressPool() {
  minidb::Database clean(Dialect::kSqliteFlex);
  CHECK_EQ(clean.storage_options().page_rows, StorageOptions().page_rows);

  // A storage bug on a paged engine tightens to the Stress geometry so
  // generator-scale tables reach splits and eviction.
  minidb::Database buggy(Dialect::kSqliteFlex,
                         BugConfig::Single(BugId::kEvictDropsDirtyPage));
  CHECK_EQ(buggy.storage_options().page_rows,
           StorageOptions::Stress().page_rows);
  CHECK_EQ(buggy.storage_options().pool_frames,
           StorageOptions::Stress().pool_frames);

  // A non-storage bug leaves the default geometry alone.
  minidb::Database other(Dialect::kSqliteFlex,
                         BugConfig::Single(BugId::kLikeAnchored));
  CHECK_EQ(other.storage_options().page_rows, StorageOptions().page_rows);

  // An explicitly flat configuration is never forced into paging.
  minidb::Database flat(Dialect::kSqliteFlex,
                        BugConfig::Single(BugId::kEvictDropsDirtyPage),
                        StorageOptions::Flat());
  CHECK(!flat.storage_options().paged);
}

// ---------------------------------------------------------------------------
// Paged session property: index on == index off == flat ground truth
// ---------------------------------------------------------------------------

// One Stress engine runs every session, and each generated SELECT must come
// back row-for-row identical to the same SELECT with its WHERE wrapped as
// NOT (NOT p), which the planner declines (no `col op literal` conjunct
// and no partial-index predicate at the top level), so it is the engine's
// own full scan. A flat engine replays the stream as ground truth.
void TestPagedSessionProperty() {
  uint64_t sessions = 0;
  uint64_t selects_compared = 0;
  uint64_t tables_compared = 0;
  // Pool counts of the Stress engine's stream and planned SELECTs: only
  // those Execute calls run with this session installed.
  obs::SessionTelemetry paged_counts;
  minidb::CoverageMap coverage;
  for (Dialect dialect : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                          Dialect::kPostgresStrict}) {
    GeneratorOptions gopts;
    Generator generator(gopts, dialect);
    for (uint64_t s = 0; s < 667; ++s) {
      Rng rng(Rng::StreamSeed(0xba6e + static_cast<uint64_t>(dialect), s));
      DatabasePlan plan = generator.GenerateDatabase(&rng);
      // Forced-tiny pool: every multi-row table spans pages, every scan
      // cycles the 4 frames.
      minidb::Database paged(dialect, BugConfig(), StorageOptions::Stress());
      paged.set_coverage_sink(&coverage);
      minidb::Database flat(dialect, BugConfig(), StorageOptions::Flat());
      ActionScheduler scheduler(&generator, gopts.txn_sessions, &plan, &paged);
      auto exec_paged = [&](const Stmt& stmt) {
        obs::ScopedSessionTelemetry install(&paged_counts);
        return paged.Execute(stmt);
      };
      auto exec_all = [&](const Stmt& stmt) {
        StatementResult a = exec_paged(stmt);
        StatementResult b = flat.Execute(stmt);
        CHECK_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
      };
      for (const StmtPtr& stmt : plan.statements) exec_all(*stmt);
      for (int q = 0; q < 4; ++q) {
        for (const StmtPtr& action : scheduler.NextBatch(&rng)) {
          exec_all(*action);
        }
        const TableSchema& table = plan.tables[rng.Below(plan.tables.size())];
        std::vector<const TableSchema*> tables{&table};
        ExprPtr where = generator.GeneratePredicate(tables, &rng);
        if (ExprPtr probe =
                scheduler.MaybePartialIndexProbe(table.name, &rng)) {
          where = MakeBinary(BinaryOp::kAnd, std::move(probe),
                             std::move(where));
        }
        SelectStmt sel;
        sel.from_tables = {table.name};
        sel.where = std::move(where);
        SelectStmt full;
        full.from_tables = {table.name};
        full.where = MakeUnary(UnaryOp::kNot,
                               MakeUnary(UnaryOp::kNot, sel.where->Clone()));
        StatementResult a = exec_paged(sel);
        uint64_t index_scans = coverage.Hits(minidb::Feature::kIndexScan);
        StatementResult b = paged.Execute(full);
        CHECK_EQ(coverage.Hits(minidb::Feature::kIndexScan), index_scans);
        CHECK_EQ(static_cast<int>(a.status), static_cast<int>(b.status));
        if (!a.ok()) continue;
        bool identical = a.rows.size() == b.rows.size();
        for (size_t r = 0; identical && r < a.rows.size(); ++r) {
          identical = a.rows[r].size() == b.rows[r].size();
          for (size_t c = 0; identical && c < a.rows[r].size(); ++c) {
            identical = ValueEquals(a.rows[r][c], b.rows[r][c]);
          }
        }
        CHECK_MSG(identical, "paged index scan diverged on: %s",
                  RenderStmt(sel, dialect).c_str());
        ++selects_compared;
      }
      // Session end: the paged heap must hold exactly the flat model's
      // rows (position order is dense on a clean engine, so this is the
      // multiset claim and more).
      for (const TableSchema& table : plan.tables) {
        const std::vector<std::vector<SqlValue>>* p =
            paged.TableRows(table.name);
        const std::vector<std::vector<SqlValue>>* f =
            flat.TableRows(table.name);
        CHECK(p != nullptr && f != nullptr);
        if (p == nullptr || f == nullptr) continue;
        bool same = p->size() == f->size();
        for (size_t r = 0; same && r < p->size(); ++r) {
          same = (*p)[r].size() == (*f)[r].size();
          for (size_t c = 0; same && c < (*p)[r].size(); ++c) {
            same = ValueEquals((*p)[r][c], (*f)[r][c]);
          }
        }
        CHECK_MSG(same, "paged table %s diverged from flat ground truth",
                  table.name.c_str());
        ++tables_compared;
      }
      ++sessions;
    }
  }
  CHECK_MSG(sessions >= 2000, "only %llu sessions generated",
            static_cast<unsigned long long>(sessions));
  CHECK(selects_compared > 4000);
  CHECK(tables_compared > 2000);
  // The property only means something if the planner and the pool actually
  // worked: index scans ran, and the tiny pool was cycling pages.
  CHECK(coverage.Hits(minidb::Feature::kIndexScan) > 100);
  uint64_t paged_evictions =
      paged_counts.metrics.counter(obs::Counter::kPoolEvictions);
  CHECK_MSG(paged_evictions > 10000, "only %llu evictions",
            static_cast<unsigned long long>(paged_evictions));
}

// ---------------------------------------------------------------------------
// Paging on/off and 1 vs N workers: byte-identical reports
// ---------------------------------------------------------------------------

RunReport StorageRun(StorageOptions storage, int workers) {
  RunnerOptions options;
  options.seed = 0x9a6ed;
  options.databases = 40;
  options.queries_per_database = 15;
  options.workers = workers;
  // A scan-level (non-storage) bug: findings must be identical for every
  // storage configuration, because row positions are dense and scans run
  // in position order whether or not pages are involved.
  EngineFactory factory = [storage]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(
        Dialect::kSqliteFlex, BugConfig::Single(BugId::kLikeAnchored),
        storage);
  };
  PqsRunner runner(factory, options);
  return runner.Run();
}

void CheckReportsIdentical(const RunReport& a, const RunReport& b,
                           const char* what) {
  CHECK_MSG(a.stats.statements_executed == b.stats.statements_executed,
            "%s: statements diverged", what);
  CHECK_MSG(a.stats.queries_checked == b.stats.queries_checked,
            "%s: queries diverged", what);
  CHECK_MSG(a.stats.rectified_true == b.stats.rectified_true &&
                a.stats.rectified_false == b.stats.rectified_false &&
                a.stats.rectified_null == b.stats.rectified_null,
            "%s: rectification tallies diverged", what);
  CHECK_MSG(a.stats.state_compares == b.stats.state_compares,
            "%s: state compares diverged", what);
  CHECK_MSG(a.findings.size() == b.findings.size(),
            "%s: finding counts diverged (%zu vs %zu)", what,
            a.findings.size(), b.findings.size());
  for (size_t i = 0; i < a.findings.size() && i < b.findings.size(); ++i) {
    CHECK_MSG(RenderScript(a.findings[i].statements, Dialect::kSqliteFlex) ==
                  RenderScript(b.findings[i].statements,
                               Dialect::kSqliteFlex),
              "%s: finding %zu script diverged", what, i);
    CHECK(a.findings[i].oracle == b.findings[i].oracle);
  }
}

void TestPagingOnOffByteIdenticalReports() {
  RunReport paged = StorageRun(StorageOptions(), 1);
  CHECK(!paged.findings.empty());  // the workload must actually find LIKE bugs
  RunReport flat = StorageRun(StorageOptions::Flat(), 1);
  RunReport stress = StorageRun(StorageOptions::Stress(), 1);
  RunReport sharded = StorageRun(StorageOptions(), property_workers > 1
                                                       ? property_workers
                                                       : 4);
  CheckReportsIdentical(paged, flat, "paged vs flat");
  CheckReportsIdentical(paged, stress, "paged vs stress");
  CheckReportsIdentical(paged, sharded, "1 vs N workers");
}

// ---------------------------------------------------------------------------
// Million-row differential vs real sqlite3
// ---------------------------------------------------------------------------

void TestMillionRowScanMatchesRealSqlite() {
  constexpr int kRows = 1000000;
  minidb::Database paged(Dialect::kSqliteFlex);  // default paged geometry
  SqliteConnection real;
  auto exec_both = [&](const Stmt& stmt) {
    CHECK(paged.Execute(stmt).ok());
    CHECK(real.Execute(stmt).ok());
  };
  CreateTableStmt ct;
  ct.table_name = "big";
  for (const char* name : {"c0", "c1"}) {
    ColumnDef def;
    def.name = name;
    def.declared_type = "INT";
    def.affinity = Affinity::kInteger;
    ct.columns.push_back(def);
  }
  exec_both(ct);
  for (int base = 0; base < kRows; base += 1000) {
    InsertStmt ins;
    ins.table_name = "big";
    ins.rows.reserve(1000);
    for (int i = base; i < base + 1000; ++i) {
      std::vector<ExprPtr> row;
      row.push_back(MakeIntLiteral(i));
      // Every 101st c1 is NULL so IS NULL predicates have hits.
      row.push_back(i % 101 == 0 ? MakeNullLiteral()
                                 : MakeIntLiteral((i * 7) % 9973));
      ins.rows.push_back(std::move(row));
    }
    exec_both(ins);
  }
  auto compare = [&](ExprPtr where) {
    SelectStmt sel;
    sel.from_tables = {"big"};
    sel.where = std::move(where);
    StatementResult a = paged.Execute(sel);
    StatementResult b = real.Execute(sel);
    CHECK(a.ok() && b.ok());
    // Both engines scan in insertion order (positions / rowids), so the
    // comparison can be element-wise, which subsumes the multiset claim.
    CHECK_EQ(a.rows.size(), b.rows.size());
    bool same = a.rows.size() == b.rows.size();
    for (size_t r = 0; same && r < a.rows.size(); ++r) {
      for (size_t c = 0; same && c < a.rows[r].size(); ++c) {
        same = ValueEquals(a.rows[r][c], b.rows[r][c]);
      }
    }
    CHECK_MSG(same, "million-row scan diverged from real sqlite3: %s",
              RenderStmt(sel, Dialect::kSqliteFlex).c_str());
    return a.rows.size();
  };
  auto lt = [](const char* col, int64_t v) {
    return MakeBinary(BinaryOp::kLt, MakeColumnRef("big", col),
                      MakeIntLiteral(v));
  };
  // ~5% range, a point lookup, NULL hits, and a compound predicate.
  CHECK_EQ(compare(lt("c0", kRows / 20)), static_cast<size_t>(kRows / 20));
  CHECK_EQ(compare(MakeBinary(BinaryOp::kEq, MakeColumnRef("big", "c0"),
                              MakeIntLiteral(123456))),
           static_cast<size_t>(1));
  CHECK(compare(MakeIsNull(MakeColumnRef("big", "c1"), false)) > 9000);
  compare(MakeBinary(BinaryOp::kAnd, lt("c1", 500), lt("c0", kRows / 2)));

  // The same range once more through a secondary index: probes resolve
  // through pinned pages at the million-row scale.
  CreateIndexStmt ci;
  ci.index_name = "big_c0";
  ci.table_name = "big";
  ci.columns = {"c0"};
  exec_both(ci);
  CHECK_EQ(compare(lt("c0", kRows / 20)), static_cast<size_t>(kRows / 20));
}

// ---------------------------------------------------------------------------
// Storage bug classes are huntable within the default budget
// ---------------------------------------------------------------------------

void TestStorageBugsDetectedWithinBudget() {
  CampaignOptions options;
  options.seed = 20200604;
  options.databases_per_bug = 480;
  options.queries_per_database = 20;
  options.reduce = false;
  options.workers = property_workers;
  for (BugId bug :
       {BugId::kEvictDropsDirtyPage, BugId::kPageSplitRowLoss,
        BugId::kStalePageReadAfterUpdate, BugId::kIndexHeapDesync}) {
    BugHuntResult r = HuntBug(bug, options);
    CHECK_MSG(r.detected, "storage bug %s not detected in %zu databases",
              r.name, r.databases_used);
    if (r.detected) {
      CHECK_MSG(r.oracle == OracleKind::kContainment,
                "storage bug %s fired %s, expected containment", r.name,
                OracleName(r.oracle));
    }
  }
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      pqs::property_workers = std::atoi(argv[i + 1]);
      ++i;
    }
  }
  if (pqs::property_workers < 1) pqs::property_workers = 1;
  pqs::TestPoolPinUnpin();
  pqs::TestPoolDirtyWriteBack();
  pqs::TestPoolEmergencyGrowth();
  pqs::TestEvictionOrderDeterministic();
  pqs::TestTableStorePagedLayout();
  pqs::TestStorageBugArmsStressPool();
  pqs::TestPagedSessionProperty();
  pqs::TestPagingOnOffByteIdenticalReports();
  pqs::TestMillionRowScanMatchesRealSqlite();
  pqs::TestStorageBugsDetectedWithinBudget();
  return pqs::test::Summary("test_storage");
}
