// Real-SQLite adapter: pqs::Connection over an in-memory libsqlite3
// database.
//
// Every statement takes one path: RenderStmtTo (src/sqlparser) renders it
// to literal SQL text, sqlite3_prepare_v2 compiles that text, sqlite3_step
// runs it, and sqlite3_finalize drops it; result values come back as typed
// SqlValues. The engine therefore runs exactly the SQL a finding's script
// prints, so every report replays in a stock sqlite3 shell. There is no
// prepared-statement cache: with the pooled allocator below, re-preparing
// costs no measurable throughput (DESIGN §11).
//
// Before the first connection opens, the adapter makes NodePool
// libsqlite3's allocator (SqliteHeap below), turns SQLite's memory
// statistics off, and opens every connection SQLITE_OPEN_NOMUTEX: a
// connection belongs to the one worker that asked the factory for it
// (src/engine/connection.h), so the per-call connection mutex guards
// nothing (DESIGN §11). libsqlite3 is a build requirement: CMake stops at
// configure time without it.
#ifndef PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
#define PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_

#include <string>

#include "src/engine/connection.h"
#include "src/sqlast/ast.h"

struct sqlite3;  // avoid leaking sqlite3.h into every bench TU

namespace pqs {

// libsqlite3's heap (its sqlite3_mem_methods), served from NodePool. Each
// block starts with a 16-byte header holding its usable size, so Size,
// Roundup and Realloc can be answered; blocks whose header plus payload
// exceed NodePool::kMaxBlock come from malloc with the same header. Size(p)
// equals Roundup(n) for a block of n bytes, which is how SQLite decides
// that a realloc may keep the block in place.
struct SqliteHeap {
  static void* Malloc(int bytes);
  static void Free(void* p);
  static void* Realloc(void* p, int bytes);
  static int Size(void* p);
  static int Roundup(int bytes);
  // True once SqliteConnection installed this heap. Stays false when the
  // process initialized SQLite itself before the first connection
  // (sqlite3_config then refuses, and SQLite keeps its own allocator).
  static bool Installed();
};

class SqliteConnection : public Connection {
 public:
  SqliteConnection();
  ~SqliteConnection() override;

  SqliteConnection(const SqliteConnection&) = delete;
  SqliteConnection& operator=(const SqliteConnection&) = delete;

  StatementResult Execute(const Stmt& stmt) override;
  Dialect dialect() const override { return Dialect::kSqliteFlex; }
  std::string EngineName() const override;
  bool alive() const override { return alive_; }
  // In-place reset: rolls back any transaction an aborted session left
  // open and drops every user object.
  bool Reset() override;

  // libsqlite3 version string.
  static std::string LibraryVersion();
  // Always true, since libsqlite3 is required. Kept only because the frozen
  // benchmark harness (perfbench/pqs_bench.cc) still calls it.
  static bool Available();

 private:
  sqlite3* db_ = nullptr;
  bool alive_ = true;
  // Reused render buffer, recycled across calls so rendering stops
  // allocating per statement.
  std::string sql_buf_;
};

}  // namespace pqs

#endif  // PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
