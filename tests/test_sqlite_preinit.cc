// The already-initialized fallback of the real-SQLite adapter: this process
// initializes libsqlite3 itself before constructing any SqliteConnection,
// so sqlite3_config refuses the pooled heap (SQLITE_MISUSE). The adapter
// must carry on with SQLite's own allocator and still execute a
// CREATE/INSERT/SELECT script correctly. A separate executable, because
// the heap is installed once per process.
#include <cstdio>
#include <vector>

#include "src/sqlite3db/sqlite_connection.h"
#include "tests/test_util.h"

#ifndef PQS_HAVE_SQLITE3
#define PQS_HAVE_SQLITE3 0
#endif

#if PQS_HAVE_SQLITE3
#include <sqlite3.h>
#endif

namespace pqs {
namespace {

void TestAdapterRunsOnSqliteAllocator() {
#if PQS_HAVE_SQLITE3
  CHECK_EQ(sqlite3_initialize(), SQLITE_OK);
#endif
  if (!SqliteConnection::Available()) {
    std::printf("  (real sqlite3 unavailable; fallback test skipped)\n");
    return;
  }
  SqliteConnection conn;
  CHECK(conn.alive());
  CHECK(!SqliteHeap::Installed());

  ColumnDef a;
  a.name = "a";
  a.declared_type = "INT";
  a.affinity = Affinity::kInteger;
  ColumnDef b;
  b.name = "b";
  b.declared_type = "TEXT";
  CreateTableStmt ct;
  ct.table_name = "t";
  ct.columns = {a, b};
  CHECK(conn.Execute(ct).ok());
  InsertStmt ins;
  ins.table_name = "t";
  for (int i = 1; i <= 3; ++i) {
    ins.rows.emplace_back();
    ins.rows.back().push_back(MakeIntLiteral(i));
    ins.rows.back().push_back(MakeLiteral(SqlValue::Text(std::string(
        static_cast<size_t>(i) * 700, static_cast<char>('a' + i)))));
  }
  CHECK(conn.Execute(ins).ok());

  SelectStmt sel;
  sel.from_tables = {"t"};
  for (int run = 0; run < 2; ++run) {
    StatementResult r = conn.Execute(sel);
    CHECK(r.ok());
    CHECK_EQ(r.rows.size(), static_cast<size_t>(3));
    for (size_t i = 0; i < r.rows.size(); ++i) {
      const std::vector<SqlValue>& row = r.rows[i];
      CHECK_EQ(row.size(), static_cast<size_t>(2));
      int64_t key = static_cast<int64_t>(i) + 1;
      CHECK(row[0].cls == StorageClass::kInteger && row[0].i == key);
      CHECK(row[1].cls == StorageClass::kText &&
            row[1].t == std::string(static_cast<size_t>(key) * 700,
                                    static_cast<char>('a' + key)));
    }
  }
}

}  // namespace
}  // namespace pqs

int main() {
  pqs::TestAdapterRunsOnSqliteAllocator();
  return pqs::test::Summary("test_sqlite_preinit");
}
