#include "src/sqlite3db/sqlite_connection.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "src/common/arena.h"
#include "src/obs/telemetry.h"
#include "src/sqlparser/render.h"

#ifndef PQS_HAVE_SQLITE3
#define PQS_HAVE_SQLITE3 0
#endif

#if PQS_HAVE_SQLITE3
#include <sqlite3.h>
#endif

namespace pqs {

namespace {

// Bytes in front of every SqliteHeap payload: its usable size, padded so
// payloads keep NodePool's 16-byte alignment.
constexpr size_t kHeapHeader = 16;
// sqlite3Malloc never asks for more; the limit keeps rounding inside int.
constexpr int kHeapMaxRequest = 0x7fffff00;

// Usable bytes of the block that serves a request of `bytes`: the rest of
// its NodePool class, or `bytes` rounded up to 8 on the malloc path.
size_t HeapUsable(size_t bytes) {
  size_t total = bytes + kHeapHeader;
  if (total <= NodePool::kMaxBlock) {
    return NodePool::ClassBytes(NodePool::ClassOf(total)) - kHeapHeader;
  }
  return (bytes + 7) & ~size_t{7};
}

bool HeapPooled(size_t usable) {
  return usable + kHeapHeader <= NodePool::kMaxBlock;
}

size_t HeapUsableOf(void* p) {
  size_t usable = 0;
  std::memcpy(&usable, static_cast<char*>(p) - kHeapHeader, sizeof usable);
  return usable;
}

void* HeapStamp(void* raw, size_t usable) {
  if (raw == nullptr) return nullptr;
  std::memcpy(raw, &usable, sizeof usable);
  return static_cast<char*>(raw) + kHeapHeader;
}

std::atomic<bool> heap_installed{false};

}  // namespace

void* SqliteHeap::Malloc(int bytes) {
  if (bytes <= 0 || bytes > kHeapMaxRequest) return nullptr;
  size_t usable = HeapUsable(static_cast<size_t>(bytes));
  size_t total = usable + kHeapHeader;
  return HeapStamp(HeapPooled(usable) ? NodePool::Take(total)
                                      : std::malloc(total),
                   usable);
}

void SqliteHeap::Free(void* p) {
  if (p == nullptr) return;
  size_t usable = HeapUsableOf(p);
  void* raw = static_cast<char*>(p) - kHeapHeader;
  if (HeapPooled(usable)) {
    NodePool::Put(raw, usable + kHeapHeader);
  } else {
    std::free(raw);
  }
}

void* SqliteHeap::Realloc(void* p, int bytes) {
  if (p == nullptr) return Malloc(bytes);
  if (bytes <= 0 || bytes > kHeapMaxRequest) return nullptr;
  size_t old_usable = HeapUsableOf(p);
  size_t usable = HeapUsable(static_cast<size_t>(bytes));
  if (usable == old_usable) return p;
  if (!HeapPooled(old_usable) && !HeapPooled(usable)) {
    return HeapStamp(
        std::realloc(static_cast<char*>(p) - kHeapHeader, usable + kHeapHeader),
        usable);
  }
  void* q = Malloc(bytes);
  if (q == nullptr) return nullptr;
  std::memcpy(q, p, old_usable < usable ? old_usable : usable);
  Free(p);
  return q;
}

int SqliteHeap::Size(void* p) {
  return p == nullptr ? 0 : static_cast<int>(HeapUsableOf(p));
}

int SqliteHeap::Roundup(int bytes) {
  if (bytes <= 0 || bytes > kHeapMaxRequest) return bytes;
  return static_cast<int>(HeapUsable(static_cast<size_t>(bytes)));
}

bool SqliteHeap::Installed() { return heap_installed.load(); }

#if PQS_HAVE_SQLITE3

namespace {

// Makes SqliteHeap libsqlite3's allocator and turns memory statistics off,
// once per process, before the first sqlite3_open. The installed library is
// built without lookaside and with memstatus on, so otherwise every small
// parse-tree and VDBE allocation is a glibc malloc behind a global mutex.
// sqlite3_config refuses (SQLITE_MISUSE) once SQLite is initialized; then
// the adapter runs on SQLite's own allocator.
void InstallSqliteHeap() {
  static std::once_flag once;
  std::call_once(once, [] {
    static sqlite3_mem_methods methods = {
        &SqliteHeap::Malloc,
        &SqliteHeap::Free,
        &SqliteHeap::Realloc,
        &SqliteHeap::Size,
        &SqliteHeap::Roundup,
        [](void*) { return SQLITE_OK; },  // xInit
        [](void*) {},                     // xShutdown
        nullptr};
    if (sqlite3_config(SQLITE_CONFIG_MALLOC, &methods) != SQLITE_OK) return;
    sqlite3_config(SQLITE_CONFIG_MEMSTATUS, 0);
    heap_installed.store(true);
  });
}

// A failed prepare or step is a constraint violation or a plain error.
StatementStatus FailureStatus(int rc) {
  return (rc & 0xff) == SQLITE_CONSTRAINT
             ? StatementStatus::kConstraintViolation
             : StatementStatus::kError;
}

}  // namespace

SqliteConnection::SqliteConnection() {
  InstallSqliteHeap();
  // NOMUTEX: the connection is used only by the worker that created it.
  if (sqlite3_open_v2(":memory:", &db_,
                      SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE |
                          SQLITE_OPEN_NOMUTEX,
                      nullptr) != SQLITE_OK) {
    alive_ = false;
    if (db_ != nullptr) {
      sqlite3_close(db_);
      db_ = nullptr;
    }
  }
}

SqliteConnection::~SqliteConnection() {
  if (db_ != nullptr) sqlite3_close(db_);
}

bool SqliteConnection::Reset() {
  if (db_ == nullptr) return false;
  // An aborted session may have left a transaction open. DDL inside a
  // transaction would be rolled back with it, so resolve the transaction
  // before dropping objects.
  if (sqlite3_get_autocommit(db_) == 0 &&
      sqlite3_exec(db_, "ROLLBACK", nullptr, nullptr, nullptr) != SQLITE_OK) {
    return false;
  }
  // Drop every user table (their indexes and triggers go with them).
  sqlite3_stmt* list = nullptr;
  if (sqlite3_prepare_v2(db_,
                         "SELECT name FROM sqlite_master WHERE type = "
                         "'table' AND name NOT LIKE 'sqlite_%'",
                         -1, &list, nullptr) != SQLITE_OK) {
    return false;
  }
  std::vector<std::string> tables;
  while (sqlite3_step(list) == SQLITE_ROW) {
    const unsigned char* name = sqlite3_column_text(list, 0);
    if (name != nullptr) {
      tables.push_back(reinterpret_cast<const char*>(name));
    }
  }
  sqlite3_finalize(list);
  for (const std::string& table : tables) {
    std::string drop = "DROP TABLE IF EXISTS \"" + table + "\"";
    if (sqlite3_exec(db_, drop.c_str(), nullptr, nullptr, nullptr) !=
        SQLITE_OK) {
      return false;
    }
  }
  alive_ = true;
  return true;
}

std::string SqliteConnection::EngineName() const {
  return std::string("sqlite-") + sqlite3_libversion();
}

std::string SqliteConnection::LibraryVersion() {
  return sqlite3_libversion();
}

bool SqliteConnection::Available() { return true; }

StatementResult SqliteConnection::Execute(const Stmt& stmt) {
  if (!alive_ || db_ == nullptr) {
    return StatementResult::Failure(StatementStatus::kCrash,
                                    "sqlite connection unavailable");
  }
  // Session switches are a scheduling construct of the interleaved
  // transaction stream; they render as a bare comment, which prepares to a
  // null statement. One real connection is one session, so succeed without
  // touching the engine.
  if (stmt.kind() == StmtKind::kSetSession) return StatementResult::Ok();
  sql_buf_.clear();
  {
    // Rendering AST → SQL text happens only on this adapter (MiniDB
    // executes the AST directly), so the kRender phase profiles it here.
    obs::ScopedPhase span(obs::Phase::kRender);
    RenderStmtTo(stmt, Dialect::kSqliteFlex, &sql_buf_);
  }
  sqlite3_stmt* prepared = nullptr;
  int rc = sqlite3_prepare_v2(db_, sql_buf_.c_str(), -1, &prepared, nullptr);
  if (rc != SQLITE_OK) {
    return StatementResult::Failure(FailureStatus(rc), sqlite3_errmsg(db_));
  }
  StatementResult result;
  int columns = sqlite3_column_count(prepared);
  for (rc = sqlite3_step(prepared); rc == SQLITE_ROW;
       rc = sqlite3_step(prepared)) {
    std::vector<SqlValue> row;
    row.reserve(static_cast<size_t>(columns));
    for (int c = 0; c < columns; ++c) {
      switch (sqlite3_column_type(prepared, c)) {
        case SQLITE_NULL:
          row.push_back(SqlValue::Null());
          break;
        case SQLITE_INTEGER:
          row.push_back(SqlValue::Int(sqlite3_column_int64(prepared, c)));
          break;
        case SQLITE_FLOAT:
          row.push_back(SqlValue::Real(sqlite3_column_double(prepared, c)));
          break;
        default: {
          // Length-delimited, so an embedded NUL does not cut the cell.
          const char* text = reinterpret_cast<const char*>(
              sqlite3_column_text(prepared, c));
          size_t bytes =
              static_cast<size_t>(sqlite3_column_bytes(prepared, c));
          row.push_back(SqlValue::Text(
              text != nullptr ? std::string(text, bytes) : std::string()));
          break;
        }
      }
    }
    result.rows.push_back(std::move(row));
  }
  if (rc != SQLITE_DONE) {
    std::string message = sqlite3_errmsg(db_);
    sqlite3_finalize(prepared);
    return StatementResult::Failure(FailureStatus(rc), message);
  }
  sqlite3_finalize(prepared);
  return result;
}

#else  // !PQS_HAVE_SQLITE3

SqliteConnection::SqliteConnection() { alive_ = true; }
SqliteConnection::~SqliteConnection() = default;

bool SqliteConnection::Reset() { return false; }

std::string SqliteConnection::EngineName() const { return "sqlite-stub"; }

std::string SqliteConnection::LibraryVersion() { return "unavailable"; }

bool SqliteConnection::Available() { return false; }

StatementResult SqliteConnection::Execute(const Stmt& stmt) {
  (void)stmt;
  return StatementResult::Failure(
      StatementStatus::kUnsupported,
      "built without libsqlite3; SqliteConnection is a stub");
}

#endif  // PQS_HAVE_SQLITE3

}  // namespace pqs
