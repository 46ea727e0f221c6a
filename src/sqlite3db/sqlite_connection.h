// Real-SQLite adapter: pqs::Connection over an in-memory libsqlite3
// database.
//
// Statements are rendered to SQL text (src/sqlparser) and executed through
// the prepared-statement API; result values come back as typed SqlValues.
// SELECTs are prepared once and cached per *parameterized template*
// (filter literals become `?` and are bound per execution): the PQS loop
// probes every FROM table with the identical `SELECT * FROM tN` before
// each query (pivot selection), and the NoREC/TLP rewrite families repeat
// the same query shapes with fresh literals, so reset-bind-rerun beats
// re-preparing (the v2 interface transparently re-prepares on schema
// change, so caching across DDL is safe).
//
// Before the first connection opens, the adapter makes NodePool
// libsqlite3's allocator (SqliteHeap below), turns SQLite's memory
// statistics off, and opens every connection SQLITE_OPEN_NOMUTEX: a
// connection belongs to the one worker that asked the factory for it
// (src/engine/connection.h), so the per-call connection mutex guards
// nothing (DESIGN §11). When the build has no libsqlite3
// (PQS_HAVE_SQLITE3 == 0) the class still exists so the benches compile
// unchanged, but every Execute reports kUnsupported and the runner skips
// out gracefully.
#ifndef PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
#define PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/connection.h"
#include "src/sqlast/ast.h"

struct sqlite3;       // avoid leaking sqlite3.h into every bench TU
struct sqlite3_stmt;

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
  // True once SqliteConnection installed this heap. Stays false in a
  // sqlite3-less build, and when the process initialized SQLite itself
  // before the first connection (sqlite3_config then refuses, and SQLite
  // keeps its own allocator).
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
  // open, drops every user object, and clears the statement cache.
  bool Reset() override;

  // Statement-cache controls (bench_throughput measures the cache off/on).
  void set_statement_cache(bool enabled);
  uint64_t statement_cache_hits() const { return cache_hits_; }
  uint64_t statement_cache_misses() const { return cache_misses_; }
  // Subset tallies for metamorphic rewrites (SelectStmt::meta_rewrite —
  // NoREC's two queries and TLP's partitions): the NoREC/TLP loops re-issue
  // the same rewritten texts across checks, so these show whether the cache
  // capacity holds the rewrite working set too (bench_throughput reports
  // them alongside the totals).
  uint64_t meta_statement_cache_hits() const { return meta_cache_hits_; }
  uint64_t meta_statement_cache_misses() const { return meta_cache_misses_; }

  // libsqlite3 version string, or "unavailable" in a sqlite3-less build.
  static std::string LibraryVersion();
  static bool Available();

 private:
  struct CachedStmt {
    std::string sql;
    sqlite3_stmt* stmt = nullptr;
    // Result column names, read once per (re)preparation: `reprepares` is
    // the statement's SQLITE_STMTSTATUS_REPREPARE count when they were
    // read (-1 = not yet), since a schema change re-prepares it in step.
    std::vector<std::string> column_names;
    int reprepares = -1;
  };

  // Finalizes every cached statement. Invalidation (Reset, cache off) also
  // counts and records the event; closing the connection does not.
  void FinalizeStatementCache();
  void InvalidateStatementCache();

  sqlite3* db_ = nullptr;
  bool alive_ = true;
  bool cache_enabled_ = true;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t meta_cache_hits_ = 0;
  uint64_t meta_cache_misses_ = 0;
  // Small MRU list (front = most recent); linear scan beats hashing at
  // this size, and the PQS workload repeats only a handful of SELECT
  // templates.
  std::vector<CachedStmt> cache_;
  // Reused render buffers: one SQL text and one bind list per Execute,
  // recycled across calls so rendering stops allocating per statement.
  std::string sql_buf_;
  std::vector<const SqlValue*> param_buf_;
};

}  // namespace pqs

#endif  // PQS_SRC_SQLITE3DB_SQLITE_CONNECTION_H_
