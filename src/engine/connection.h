// The engine-agnostic core API the PQS runner codes against.
//
// Everything above this line of the stack (runner, oracles, reducer,
// campaign, benches) talks to a database exclusively through Connection:
// submit one typed AST statement, get back its rows plus a status.
// Everything below it (MiniDB, the real-SQLite adapter, future
// sharded/async/remote backends) implements it. Keeping this surface
// narrow is what lets later work swap engines without touching the runner.
#ifndef PQS_SRC_ENGINE_CONNECTION_H_
#define PQS_SRC_ENGINE_CONNECTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sqlast/ast.h"
#include "src/sqlvalue/value.h"

namespace pqs {

// SQL semantics flavor an engine implements. MiniDB implements all three;
// the libsqlite3 adapter is kSqliteFlex by construction.
enum class Dialect {
  kSqliteFlex = 0,      // flexible typing, affinity coercion on insert
  kMysqlLike = 1,       // numeric coercion of text, div-by-zero → NULL
  kPostgresStrict = 2,  // strict typing, type mismatches are errors
};

enum class StatementStatus {
  kOk,
  // The statement violated a declared constraint (UNIQUE / PRIMARY KEY /
  // NOT NULL). This is an *expected* failure mode for randomly generated
  // inserts; the error oracle does not fire on it.
  kConstraintViolation,
  // The engine rejected or failed a statement the generator guarantees to
  // be valid — the error oracle's signal.
  kError,
  // COMMIT refused under first-committer-wins: another transaction
  // committed to a table this one wrote after its snapshot was taken. An
  // *expected* outcome of the concurrent workload (like kConstraintViolation
  // for random inserts); the transaction is rolled back, no oracle fires.
  kTxnConflict,
  // Simulated (MiniDB) or real (adapter) process death. The connection is
  // unusable afterwards.
  kCrash,
  // The engine cannot run this statement at all (e.g. the SQLite adapter
  // compiled without libsqlite3). Not a finding; the runner skips out.
  kUnsupported,
};

struct StatementResult {
  StatementStatus status = StatementStatus::kOk;
  std::string error;  // diagnostic when status != kOk
  std::vector<std::vector<SqlValue>> rows;

  bool ok() const { return status == StatementStatus::kOk; }

  static StatementResult Ok() { return StatementResult(); }
  static StatementResult Failure(StatementStatus s, std::string message) {
    StatementResult out;
    out.status = s;
    out.error = std::move(message);
    return out;
  }
};

class Connection {
 public:
  virtual ~Connection() = default;

  // Executes one statement. Never throws; failures are reported through
  // StatementResult::status.
  virtual StatementResult Execute(const Stmt& stmt) = 0;

  virtual Dialect dialect() const = 0;
  virtual std::string EngineName() const = 0;

  // False once the engine has crashed; Execute returns kCrash from then on.
  virtual bool alive() const { return true; }

  // Restores the connection to a fresh, empty database — equivalent to a
  // newly factory-produced connection (same dialect, same bug config) but
  // without paying for construction. Returns false when the engine cannot
  // reset in place; callers must then fall back to the factory. A crashed
  // connection that resets successfully is alive again.
  virtual bool Reset() { return false; }
};

using ConnectionPtr = std::unique_ptr<Connection>;

// Factory producing a fresh, empty database. The runner creates one
// connection per generated database state, so factories must be cheap and
// must not share mutable state between the connections they produce.
// Sharded runs call the factory concurrently from several worker threads,
// so it must also be thread-safe (stateless closures trivially are).
using EngineFactory = std::function<ConnectionPtr()>;

// Worker-aware factory: `worker` is the 0-based index of the campaign
// worker asking, so callers can hand each worker thread its own coverage
// sink or other per-thread state and merge at join. Must be safe to call
// concurrently from distinct workers. Caveat: under stop_on_first_finding
// with workers > 1, shards past the terminating database may run
// speculatively before the stop propagates — their results are discarded
// from the merged report (which stays deterministic), but any side effects
// they left in external sinks are not rolled back, so sink contents are
// timing-dependent in that mode. Merge external sinks only in runs without
// early exit (the bench_table4 pattern).
using WorkerEngineFactory = std::function<ConnectionPtr(int worker)>;

const char* DialectName(Dialect d);

}  // namespace pqs

#endif  // PQS_SRC_ENGINE_CONNECTION_H_
