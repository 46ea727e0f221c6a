// PQS benchmark binary: runs one named workload through the public API
// (PqsRunner, HuntBug/ReduceFinding, EngineFactory) and prints one JSON
// line of results. run.py builds this binary, launches it, and turns that
// line into the benchmark's report; see README.md for the workloads and
// the metric definitions.
//
//   pqs_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only]
//
// A run has a fixed number of chunks, each a fixed batch of inputs derived
// from --seed and the chunk index alone, run on one runner worker. With
// --trace 0 the chunks run round after round, untraced, until --seconds
// would be exceeded, and the end-to-end metrics come from each chunk's
// fastest repetition. With --trace 1 one round runs, every chunk untraced
// and then traced (the engine under test wrapped in a timing/capturing
// Connection); every repetition of a chunk must give the same
// deterministic counts. It then times each layer's public functions on the
// captured inputs from outside the program.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/bugs.h"
#include "src/engine/connection.h"
#include "src/interp/bytecode.h"
#include "src/interp/eval.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/pqs/campaign.h"
#include "src/pqs/generator.h"
#include "src/pqs/oracles.h"
#include "src/pqs/reducer.h"
#include "src/pqs/runner.h"
#include "src/sqlexpr/rectify.h"
#include "src/sqlite3db/sqlite_connection.h"
#include "src/sqlparser/render.h"
#include "src/sqlstmt/stmt.h"

#ifndef PQS_BENCH_BUILD_TYPE
#define PQS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PQS_BENCH_COMPILER
#define PQS_BENCH_COMPILER "unknown"
#endif

namespace pqs {
namespace {

using Clock = std::chrono::steady_clock;

// Results of timed loops land here so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// Nearest-rank percentile of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank < 1) rank = 1;
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this process image. VmHWM rather than getrusage's
// ru_maxrss: Linux carries ru_maxrss over from the pre-exec image, so a
// child of a large launcher would report the launcher's footprint.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Host-drift probe: a fixed dependent integer chain, so its time tracks
// only how fast this host runs one core right now. Reported beside each
// workload, never used to scale a metric.
double HostProbeMs() {
  Clock::time_point start = Clock::now();
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 20000000; ++i) {
    x = (x ^ (x >> 29)) * 0x9e3779b97f4a7c15ULL + 1;
  }
  g_sink = x;
  return SecondsSince(start) * 1e3;
}

// ---------------------------------------------------------------------------
// Engine wrapper: per statement-class counts, busy time, rows, and failures,
// plus an optional capture of the statement stream.
// ---------------------------------------------------------------------------

enum StmtClass { kSel = 0, kDml, kDdl, kTxn, kNumClasses };
const char* const kClassNames[kNumClasses] = {"select", "dml", "ddl", "txn"};

StmtClass ClassOf(StmtKind kind) {
  switch (kind) {
    case StmtKind::kSelect:
      return kSel;
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
      return kDml;
    case StmtKind::kCreateTable:
    case StmtKind::kCreateIndex:
    case StmtKind::kDropIndex:
    case StmtKind::kMaintenance:
      return kDdl;
    case StmtKind::kBegin:
    case StmtKind::kCommit:
    case StmtKind::kRollback:
    case StmtKind::kSetSession:
      return kTxn;
  }
  return kDdl;
}

struct ClassTally {
  uint64_t n = 0;
  uint64_t busy_ns = 0;
  uint64_t rows = 0;
  uint64_t failed = 0;  // kError / kCrash
};

// One captured engine session: the statements in order, plus the engine's
// rows for every bare full-table fetch (`SELECT * FROM t`), keyed by the
// statement's position.
struct SessionCapture {
  Dialect dialect = Dialect::kSqliteFlex;
  std::vector<StmtPtr> stmts;
  std::map<size_t, std::vector<std::vector<SqlValue>>> fetch_rows;
};

// Shared by every wrapper of one measured pass (one runner worker, so
// wrappers never run concurrently).
struct EngineTrace {
  bool timed = false;
  ClassTally cls[kNumClasses];
  // Capture budget: sessions are captured whole while budget remains.
  size_t capture_sessions_left = 0;
  size_t capture_values_left = 0;
  std::vector<SessionCapture> captured;

  uint64_t Statements() const {
    uint64_t n = 0;
    for (const ClassTally& c : cls) n += c.n;
    return n;
  }
  uint64_t BusyNs() const {
    uint64_t n = 0;
    for (const ClassTally& c : cls) n += c.busy_ns;
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const ClassTally& c : cls) n += c.failed;
    return n;
  }
};

bool IsBareFetch(const SelectStmt& s) {
  return s.from_tables.size() == 1 && s.joins.empty() && s.where == nullptr &&
         s.select_list.empty() && !s.distinct && s.group_by.empty() &&
         s.having == nullptr && s.order_by.empty() && s.limit < 0;
}

class TracingConnection : public Connection {
 public:
  TracingConnection(ConnectionPtr inner, EngineTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {
    if (trace_->capture_sessions_left > 0) {
      --trace_->capture_sessions_left;
      capture_ = std::make_unique<SessionCapture>();
      capture_->dialect = inner_->dialect();
    }
  }
  ~TracingConnection() override {
    if (capture_) trace_->captured.push_back(std::move(*capture_));
  }

  StatementResult Execute(const Stmt& stmt) override {
    ClassTally& tally = trace_->cls[ClassOf(stmt.kind())];
    StatementResult result;
    if (trace_->timed) {
      Clock::time_point start = Clock::now();
      result = inner_->Execute(stmt);
      tally.busy_ns += NanosSince(start);
    } else {
      result = inner_->Execute(stmt);
    }
    ++tally.n;
    if (stmt.kind() == StmtKind::kSelect) tally.rows += result.rows.size();
    if (result.status == StatementStatus::kError ||
        result.status == StatementStatus::kCrash) {
      ++tally.failed;
    }
    if (capture_) Capture(stmt, result);
    return result;
  }

  Dialect dialect() const override { return inner_->dialect(); }
  std::string EngineName() const override { return inner_->EngineName(); }
  bool alive() const override { return inner_->alive(); }
  bool Reset() override { return inner_->Reset(); }

 private:
  void Capture(const Stmt& stmt, const StatementResult& result) {
    if (stmt.kind() == StmtKind::kSelect && result.ok() &&
        IsBareFetch(static_cast<const SelectStmt&>(stmt))) {
      size_t values = 0;
      for (const auto& row : result.rows) values += row.size();
      if (values <= trace_->capture_values_left) {
        trace_->capture_values_left -= values;
        capture_->fetch_rows[capture_->stmts.size()] = result.rows;
      }
    }
    capture_->stmts.push_back(stmt.Clone());
  }

  ConnectionPtr inner_;
  EngineTrace* trace_;
  std::unique_ptr<SessionCapture> capture_;
};

// ---------------------------------------------------------------------------
// Workloads and run state
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
};

struct PqsWorkload {
  bool sqlite = false;
  int databases = 0;   // databases per chunk
  double chunk_s = 0;  // nominal seconds per chunk, see ChunkCount
  RunnerOptions options;
};

// Chunk sizes aim at roughly 0.2 s of work each on one core of a 4-vCPU
// Xeon VM.
bool LookupPqsWorkload(const std::string& name, PqsWorkload* w) {
  RunnerOptions& o = w->options;
  o.workers = 1;
  o.family = OracleFamily::kContainment;
  o.queries_per_database = 25;
  if (name == "pqs-small") {
    w->databases = 200;
    w->chunk_s = 0.17;
  } else if (name == "pqs-sqlite3") {
    w->sqlite = true;
    w->databases = 60;
    w->chunk_s = 0.16;
    // libsqlite3 3.40 drops rows from `a = lit OR (b COLLATE NOCASE) = a`
    // across a join (a real engine bug, about one finding per 60k
    // databases); without COLLATE every run stays free of findings.
    o.gen.collate_probability = 0;
  } else {
    return false;
  }
  return true;
}

// Nominal seconds of one hunt chunk (57 hunts) on the same host.
constexpr double kHuntChunkS = 0.4;

// An untraced run aims at this many rounds over its chunks, and makes at
// least the minimum whatever the host's speed. More rounds give each
// chunk more chances to run undisturbed; fewer give more distinct inputs.
// PQS chunks are alike, so they take more rounds; hunt costs are
// heavy-tailed (a few bug classes take most of the time), so hunt takes
// more distinct campaign seeds instead.
constexpr double kPqsRounds = 8;
constexpr size_t kPqsMinRounds = 3;
constexpr double kHuntRounds = 3;
constexpr size_t kHuntMinRounds = 2;

// Chunks of a run: a function of --seconds and the workload only, so the
// same seed always gives the same inputs.
size_t ChunkCount(double seconds, double chunk_s, double rounds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / (rounds * chunk_s))));
}

// Set-up warm-up: this many sessions with a fixed seed, so every launch
// does the same set-up work whatever --seed is, and the launch's own
// jitter (a millisecond or so) is small beside it.
constexpr uint64_t kWarmUpSeed = 20200604;
constexpr int kWarmUpDatabases = 16;

// Seed of chunk `i`: chunks are independent inputs derived from --seed.
uint64_t ChunkSeed(uint64_t seed, size_t i) {
  return Rng::StreamSeed(seed, static_cast<uint64_t>(i));
}

// Deterministic counts of one chunk. Every repetition of a chunk, untraced
// or traced, must give the same counts, and so must every run of the same
// code (run.py compares runs).
using Counts = std::map<std::string, uint64_t>;

struct RunState {
  Args args;
  std::vector<std::string> errors;  // correctness failures
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Counts> chunk_counts;
  // Per untraced repetition: chunk, wall s, statements, tests.
  std::vector<std::vector<double>> chunk_timings;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> manifest;

  void Error(const std::string& what) {
    if (errors.size() < 8) errors.push_back(what);
  }
  // First call per chunk stores its counts; later repetitions must match.
  void RecordCounts(size_t chunk, const Counts& c) {
    if (chunk == chunk_counts.size()) {
      chunk_counts.push_back(c);
    } else if (chunk_counts[chunk] != c) {
      Error("chunk " + std::to_string(chunk) +
            ": counts differ between repetitions");
    }
  }
};

// Runs chunks 0 .. chunks-1 round after round: `min_rounds` whole rounds,
// then on while the next chunk is expected to fit in `budget` seconds, at
// most `max_rounds` rounds. `run_chunk(i)` returns its wall time. Returns
// the number of chunk repetitions. *peak_rss_mb is sampled after the first
// round: a fixed amount of work, whereas the number of rounds follows host
// speed.
template <typename RunChunk>
size_t RunRounds(double budget, size_t chunks, size_t min_rounds,
                 size_t max_rounds, double* peak_rss_mb, RunChunk run_chunk) {
  Clock::time_point start = Clock::now();
  std::vector<double> walls;
  for (size_t round = 0; round < max_rounds; ++round) {
    for (size_t i = 0; i < chunks; ++i) {
      if (round >= min_rounds && SecondsSince(start) + Median(walls) > budget) {
        return walls.size();
      }
      walls.push_back(run_chunk(i));
    }
    if (round == 0) *peak_rss_mb = PeakRssMb();
  }
  return walls.size();
}

// Fastest repetition of each chunk and of each session in it. Contention
// from other tenants of a shared host only ever adds time, so the fastest
// repetition is the least disturbed one; the end-to-end figures come from
// these. Chunks arrive in order 0, 1, ... in the first round.
struct BestTimes {
  std::vector<double> wall, stmts, tests;     // per chunk
  std::vector<std::vector<double>> sessions;  // per chunk, per session (s)

  void Add(size_t chunk, double w, double n_stmts, double n_tests,
           const std::vector<double>& s) {
    if (chunk == wall.size()) {
      wall.push_back(w);
      stmts.push_back(n_stmts);
      tests.push_back(n_tests);
      sessions.push_back(s);
      return;
    }
    wall[chunk] = std::min(wall[chunk], w);
    std::vector<double>& best = sessions[chunk];
    for (size_t j = 0; j < best.size() && j < s.size(); ++j) {
      best[j] = std::min(best[j], s[j]);
    }
  }

  std::vector<double> AllSessions() const {
    std::vector<double> all;
    for (const auto& s : sessions) all.insert(all.end(), s.begin(), s.end());
    return all;
  }

  // stmts_per_s, tests_per_s, session_p50_ms, session_p90_ms.
  void Report(RunState* st) const {
    double w = 0, n = 0, t = 0;
    for (size_t i = 0; i < wall.size(); ++i) {
      w += wall[i];
      n += stmts[i];
      t += tests[i];
    }
    std::vector<double> all = AllSessions();
    auto& m = st->metrics;
    m["stmts_per_s"] = Ratio(n, w);
    m["tests_per_s"] = Ratio(t, w);
    m["session_p50_ms"] = Percentile(all, 50) * 1e3;
    m["session_p90_ms"] = Percentile(all, 90) * 1e3;
  }
};

void PrintReady(Clock::time_point process_start) {
  std::printf("READY %.9f\n", SecondsSince(process_start));
  std::fflush(stdout);
}

// ---- Layer probes on captured inputs ---------------------------------------

struct ProbeResult {
  double render_us = 0, render_bytes = 0;
  double replay_us = 0, multiset_us = 0;
  double tree_ns_per_row = 0, bytecode_ns_per_row = 0;
  double generate_us = 0, rectify_us = 0;
};

void AddSchema(const CreateTableStmt& ct, std::map<std::string, RowSchema>* m) {
  RowSchema schema;
  for (const ColumnDef& col : ct.columns) schema.Add(ct.table_name, col.name);
  (*m)[ct.table_name] = std::move(schema);
}

// Times RenderStmtTo over every captured statement (median of 3 passes).
void ProbeRender(const std::vector<SessionCapture>& sessions, ProbeResult* p) {
  std::vector<double> per_stmt;
  std::string buf;
  uint64_t n = 0, bytes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    n = 0;
    bytes = 0;
    Clock::time_point start = Clock::now();
    for (const SessionCapture& s : sessions) {
      for (const StmtPtr& stmt : s.stmts) {
        buf.clear();
        RenderStmtTo(*stmt, s.dialect, &buf);
        bytes += buf.size();
        ++n;
      }
    }
    per_stmt.push_back(Ratio(SecondsSince(start) * 1e6, n));
  }
  p->render_us = Median(per_stmt);
  p->render_bytes = Ratio(bytes, n);
}

// Replays each captured session's non-SELECT statements on a clean MiniDB
// (what the runner's ground-truth mirror executes), collecting on the way
// the inputs of the multiset and predicate-evaluation probes.
void ProbeReplay(const std::vector<SessionCapture>& sessions,
                 ProbeResult* p) {
  struct MultisetCase {
    const std::vector<std::vector<SqlValue>>* engine;
    std::vector<std::vector<SqlValue>> model;
  };
  struct EvalCase {
    const Expr* where;
    const RowSchema* schema;
    Dialect dialect;
    std::vector<std::vector<SqlValue>> rows;
  };
  std::vector<MultisetCase> multiset;
  std::vector<EvalCase> evals;
  std::vector<std::map<std::string, RowSchema>> schemas(sessions.size());
  size_t values_left = 1000000;  // ~56 MB of copied rows at most
  uint64_t replay_ns = 0, replayed = 0, eval_rows = 0;

  for (size_t si = 0; si < sessions.size(); ++si) {
    const SessionCapture& s = sessions[si];
    minidb::Database model(s.dialect);
    for (size_t i = 0; i < s.stmts.size(); ++i) {
      const Stmt& stmt = *s.stmts[i];
      if (stmt.kind() == StmtKind::kCreateTable) {
        AddSchema(static_cast<const CreateTableStmt&>(stmt), &schemas[si]);
      }
      if (stmt.kind() != StmtKind::kSelect) {
        Clock::time_point start = Clock::now();
        model.Execute(stmt);
        replay_ns += NanosSince(start);
        ++replayed;
        continue;
      }
      const auto& sel = static_cast<const SelectStmt&>(stmt);
      if (sel.from_tables.size() != 1 || !sel.joins.empty()) continue;
      const auto* rows = model.TableRows(sel.from_tables[0]);
      if (rows == nullptr || rows->empty()) continue;
      size_t values = rows->size() * rows->front().size();
      if (values > values_left) continue;
      auto fetched = s.fetch_rows.find(i);
      if (fetched != s.fetch_rows.end()) {
        values_left -= values;
        multiset.push_back({&fetched->second, *rows});
      } else if (sel.where != nullptr) {
        auto schema = schemas[si].find(sel.from_tables[0]);
        if (schema == schemas[si].end()) continue;
        values_left -= values;
        evals.push_back({sel.where.get(), &schema->second, s.dialect, *rows});
        eval_rows += rows->size();
      }
    }
  }
  p->replay_us = Ratio(replay_ns / 1e3, replayed);

  if (!multiset.empty()) {
    Clock::time_point start = Clock::now();
    uint64_t same = 0;
    for (const MultisetCase& c : multiset) {
      same += SameRowMultiset(*c.engine, c.model) ? 1 : 0;
    }
    p->multiset_us = Ratio(SecondsSince(start) * 1e6, multiset.size());
    g_sink = same;
  }

  if (eval_rows == 0) return;
  // Tree walk vs compiled program over identical (predicate, rows) cases,
  // alternating which runs first; best of 3 per evaluator.
  uint64_t sink = 0;
  double tree_best = 1e300, code_best = 1e300;
  for (int pass = 0; pass < 3; ++pass) {
    for (int order = 0; order < 2; ++order) {
      bool tree_turn = (pass + order) % 2 == 0;
      Clock::time_point start = Clock::now();
      for (const EvalCase& c : evals) {
        EvalContext ctx{c.dialect, nullptr};
        if (tree_turn) {
          for (const auto& row : c.rows) {
            bool error = false;
            sink += static_cast<uint64_t>(EvaluatePredicate(
                *c.where, RowView{c.schema, &row}, ctx, &error));
          }
        } else {
          CompiledExpr code = CompileExpr(*c.where, *c.schema, c.dialect);
          for (const auto& row : c.rows) {
            sink += code.Run(RowView{c.schema, &row}, ctx).error ? 1 : 0;
          }
        }
      }
      double ns = SecondsSince(start) * 1e9 / eval_rows;
      if (tree_turn) {
        tree_best = std::min(tree_best, ns);
      } else {
        code_best = std::min(code_best, ns);
      }
    }
  }
  p->tree_ns_per_row = tree_best;
  p->bytecode_ns_per_row = code_best;
  g_sink = sink;
}

// Times the generator and Algorithm-3 rectification on the workload's own
// per-database seeds: database generation plus query shape + predicate
// (reported per generated query), then RectifyOnPivot against a pivot
// drawn from the generated data.
void ProbeGenerate(const GeneratorOptions& gen, Dialect dialect,
                   const std::vector<uint64_t>& seeds, int queries,
                   ProbeResult* p) {
  uint64_t db_ns = 0, gen_ns = 0, rect_ns = 0;
  uint64_t gens = 0, rects = 0;
  EvalContext ctx{dialect, nullptr};
  for (uint64_t seed : seeds) {
    Rng rng(seed);
    Generator generator(gen, dialect);
    Clock::time_point start = Clock::now();
    DatabasePlan plan = generator.GenerateDatabase(&rng);
    db_ns += NanosSince(start);
    minidb::Database db(dialect);
    for (const StmtPtr& s : plan.statements) db.Execute(*s);
    for (int q = 0; q < queries; ++q) {
      start = Clock::now();
      QueryShape shape = generator.GenerateQueryShape(plan, &rng);
      ExprPtr predicate = generator.GeneratePredicate(shape.tables, &rng);
      gen_ns += NanosSince(start);
      ++gens;
      RowSchema schema;
      std::vector<SqlValue> pivot;
      bool have_pivot = true;
      for (const TableSchema* table : shape.tables) {
        const auto* rows = db.TableRows(table->name);
        if (rows == nullptr || rows->empty()) {
          have_pivot = false;
          break;
        }
        const auto& row = (*rows)[rng.Below(rows->size())];
        for (size_t c = 0; c < table->columns.size() && c < row.size(); ++c) {
          schema.Add(table->name, table->columns[c].name);
          pivot.push_back(row[c]);
        }
      }
      if (!have_pivot) continue;
      Bool3 raw;
      start = Clock::now();
      RectifyOnPivot(&predicate, RowView{&schema, &pivot}, ctx, &raw);
      rect_ns += NanosSince(start);
      ++rects;
    }
  }
  p->generate_us = Ratio((db_ns + gen_ns) / 1e3, gens);
  p->rectify_us = Ratio(rect_ns / 1e3, rects);
}

void ReportProbes(const ProbeResult& p, RunState* st) {
  auto& m = st->metrics;
  m["sqlparser.render_us"] = p.render_us;
  m["sqlparser.render_bytes"] = p.render_bytes;
  m["minidb.replay_us"] = p.replay_us;
  m["interp.multiset_us"] = p.multiset_us;
  m["interp.tree_ns_per_row"] = p.tree_ns_per_row;
  m["interp.bytecode_ns_per_row"] = p.bytecode_ns_per_row;
  m["pqs.generate_us"] = p.generate_us;
  m["sqlexpr.rectify_us"] = p.rectify_us;
}

// Engine-wrapper metrics of the traced repetitions (summed tallies).
void ReportEngine(const EngineTrace& total, bool sqlite, RunState* st) {
  auto& m = st->metrics;
  for (int k = 0; k < kNumClasses; ++k) {
    const ClassTally& c = total.cls[k];
    double us = Ratio(c.busy_ns / 1e3, c.n);
    m[std::string("engine.exec_n.") + kClassNames[k]] = c.n;
    if (k != kTxn) {
      m[std::string("sqlite3db.exec_us.") + kClassNames[k]] = sqlite ? us : 0;
    }
    m[std::string("minidb.exec_us.") + kClassNames[k]] = sqlite ? 0 : us;
  }
  m["engine.rows_per_select"] =
      Ratio(total.cls[kSel].rows, total.cls[kSel].n);
}

// Workload-seed generator probe inputs: the first databases of the plan.
std::vector<uint64_t> PlanSeeds(uint64_t seed, int databases, int max) {
  ShardPlan plan = ShardPlan::Build(seed, std::min(databases, max));
  std::vector<uint64_t> seeds;
  for (const ShardPlan::Task& t : plan.tasks) seeds.push_back(t.seed);
  return seeds;
}

void AddTotals(const EngineTrace& from, EngineTrace* to) {
  for (int k = 0; k < kNumClasses; ++k) {
    to->cls[k].n += from.cls[k].n;
    to->cls[k].busy_ns += from.cls[k].busy_ns;
    to->cls[k].rows += from.cls[k].rows;
    to->cls[k].failed += from.cls[k].failed;
  }
}

// Per-layer metrics that do not apply to a workload are reported as 0.
void ZeroMetrics(std::initializer_list<const char*> names, RunState* st) {
  for (const char* name : names) st->metrics[name] = 0;
}

void ReportCommon(const std::vector<double>& probe_ms, double measured,
                  size_t chunks, size_t repetitions, RunState* st) {
  if (st->args.trace) {
    st->metrics["failed_frac"] = Ratio(st->failed, st->attempted);
    st->metrics["host.probe_ms"] = Median(probe_ms);
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", Median(probe_ms));
  st->manifest["host_probe_ms"] = buf;
  std::snprintf(buf, sizeof buf, "%.3f", measured);
  st->manifest["measured_s"] = buf;
  st->manifest["chunks"] = std::to_string(chunks);
  st->manifest["repetitions"] = std::to_string(repetitions);
}

// ---- PQS session workloads --------------------------------------------------

struct PqsRep {
  double wall = 0;
  RunReport report;
  EngineTrace trace;
  std::vector<double> sessions;  // per-database wall seconds
};

EngineFactory MakeFactory(bool sqlite, EngineTrace* trace) {
  return [sqlite, trace]() -> ConnectionPtr {
    ConnectionPtr inner;
    if (sqlite) {
      inner = std::make_unique<SqliteConnection>();
    } else {
      inner = std::make_unique<minidb::Database>(Dialect::kSqliteFlex);
    }
    return std::make_unique<TracingConnection>(std::move(inner), trace);
  };
}

void RunPqsRep(bool sqlite, RunnerOptions o, PqsRep* rep) {
  std::vector<double>* sessions = &rep->sessions;
  sessions->assign(static_cast<size_t>(std::max(o.databases, 0)), 0.0);
  o.session_latency_hook = [sessions](int db_index, double s) {
    if (static_cast<size_t>(db_index) < sessions->size()) {
      (*sessions)[static_cast<size_t>(db_index)] = s;
    }
  };
  PqsRunner runner(MakeFactory(sqlite, &rep->trace), o);
  Clock::time_point start = Clock::now();
  rep->report = runner.Run();
  rep->wall = SecondsSince(start);
}

// Judges one repetition: every finding on the clean engine and every
// kError/kCrash statement is a failed operation. Returns the chunk's
// deterministic counts.
Counts JudgePqsRep(const PqsRep& rep, RunState* st) {
  const RunReport& r = rep.report;
  if (r.unsupported_engine) st->Error("engine reported kUnsupported");
  if (!r.invalid_options.empty()) {
    st->Error("invalid options: " + r.invalid_options);
  }
  for (const Finding& f : r.findings) {
    ++st->failed;
    st->Error(std::string("finding on a clean engine (") +
              OracleName(f.oracle) + "): " + f.message);
  }
  st->failed += rep.trace.Failed();
  st->attempted += r.stats.statements_executed;

  const RunStats& s = r.stats;
  const obs::MetricsRegistry& m = r.metrics;
  Counts c;
  c["databases"] = s.databases_created;
  c["statements"] = s.statements_executed;
  c["queries_checked"] = s.queries_checked;
  for (int k = 0; k < kNumClasses; ++k) {
    c[std::string("exec_n.") + kClassNames[k]] = rep.trace.cls[k].n;
  }
  c["select_rows"] = rep.trace.cls[kSel].rows;
  c["pool_hits"] = m.counter(obs::Counter::kPoolHits);
  c["pool_misses"] = m.counter(obs::Counter::kPoolMisses);
  c["pool_evictions"] = m.counter(obs::Counter::kPoolEvictions);
  c["stmt_cache_hits"] = m.counter(obs::Counter::kStmtCacheHits);
  c["stmt_cache_misses"] = m.counter(obs::Counter::kStmtCacheMisses);
  c["findings"] = r.findings.size();
  return c;
}

int RunPqs(const std::string& name, const PqsWorkload& w, RunState* st,
           Clock::time_point process_start) {
  const Args& a = st->args;
  if (w.sqlite && !SqliteConnection::Available()) {
    std::fprintf(stderr,
                 "pqs_bench: %s needs libsqlite3, but this build has only "
                 "the stub adapter\n",
                 name.c_str());
    return 3;
  }
  std::string invalid = w.options.gen.Validate();
  if (!invalid.empty()) {
    std::fprintf(stderr, "pqs_bench: invalid options: %s\n", invalid.c_str());
    return 3;
  }
  // Set-up: first engine plus warm-up sessions with the workload's options,
  // so lazy static state (interner, registries, libsqlite3) exists and the
  // caches are warm before timing starts.
  {
    PqsRep warm;
    RunnerOptions o = w.options;
    o.seed = kWarmUpSeed;
    o.databases = kWarmUpDatabases;
    RunPqsRep(w.sqlite, o, &warm);
    if (warm.report.unsupported_engine) {
      std::fprintf(stderr, "pqs_bench: engine unsupported\n");
      return 3;
    }
  }
  PrintReady(process_start);
  if (a.setup_only) return 0;

  std::vector<double> probe_ms{HostProbeMs()};
  Clock::time_point start = Clock::now();
  BestTimes best;
  std::vector<double> overhead;
  std::vector<double> span_gaps;
  EngineTrace traced_total;
  double traced_session_wall = 0;
  obs::MetricsRegistry traced_metrics;
  std::vector<SessionCapture> captured;

  double peak_rss_mb = 0;
  size_t chunks = ChunkCount(a.seconds, w.chunk_s, kPqsRounds);
  size_t reps = RunRounds(a.trace ? 0.85 * a.seconds : a.seconds, chunks,
                          a.trace ? 1 : kPqsMinRounds, a.trace ? 1 : SIZE_MAX,
                          &peak_rss_mb, [&](size_t i) {
    RunnerOptions o = w.options;
    o.seed = ChunkSeed(a.seed, i);
    o.databases = w.databases;
    PqsRep rep;
    RunPqsRep(w.sqlite, o, &rep);
    st->RecordCounts(i, JudgePqsRep(rep, st));
    const RunStats& s = rep.report.stats;
    double n_stmts = static_cast<double>(s.statements_executed);
    double n_tests = static_cast<double>(s.queries_checked);
    best.Add(i, rep.wall, n_stmts, n_tests, rep.sessions);
    st->chunk_timings.push_back(
        {static_cast<double>(i), rep.wall, n_stmts, n_tests});
    if (!a.trace) return rep.wall;

    // Traced twin of the same chunk: timed wrapper, wall-clock spans, and
    // (first chunk only) the captured statement stream.
    PqsRep traced;
    traced.trace.timed = true;
    if (i == 0) {
      traced.trace.capture_sessions_left = 400;
      traced.trace.capture_values_left = 500000;
    }
    obs::SetPhaseWallClock(true);
    RunPqsRep(w.sqlite, o, &traced);
    obs::SetPhaseWallClock(false);
    st->RecordCounts(i, JudgePqsRep(traced, st));
    overhead.push_back(traced.wall / rep.wall - 1.0);
    double span_us =
        traced.report.metrics.phase_wall_micros(obs::Phase::kEngineExecute)
            .sum();
    span_gaps.push_back(span_us / (traced.trace.BusyNs() / 1e3) - 1.0);
    AddTotals(traced.trace, &traced_total);
    for (double x : traced.sessions) traced_session_wall += x;
    traced_metrics.Merge(traced.report.metrics);
    if (i == 0) captured = std::move(traced.trace.captured);
    return rep.wall + traced.wall;
  });
  double measured = SecondsSince(start);

  auto& m = st->metrics;
  if (!a.trace) {
    best.Report(st);
    m["setup_s"] = 0;  // filled in by run.py from timed launches
    m["peak_rss_mb"] = peak_rss_mb;
  } else {
    ReportEngine(traced_total, w.sqlite, st);
    double busy_s = traced_total.BusyNs() / 1e9;
    m["engine.busy_frac"] = Ratio(busy_s, traced_session_wall);
    m["harness.us_per_stmt"] = Ratio((traced_session_wall - busy_s) * 1e6,
                                     traced_total.Statements());
    m["session_p99_ms"] = Percentile(best.AllSessions(), 99) * 1e3;
    m["trace_overhead_frac"] = Median(overhead);
    const obs::MetricsRegistry& tm = traced_metrics;
    uint64_t hits = tm.counter(obs::Counter::kPoolHits);
    uint64_t misses = tm.counter(obs::Counter::kPoolMisses);
    m["minidb.pool_hit_rate"] = Ratio(hits, hits + misses);
    m["minidb.pool_evictions"] = tm.counter(obs::Counter::kPoolEvictions);
    uint64_t chits = tm.counter(obs::Counter::kStmtCacheHits);
    uint64_t cmiss = tm.counter(obs::Counter::kStmtCacheMisses);
    m["sqlite3db.cache_hit_rate"] = Ratio(chits, chits + cmiss);
    // Cross-check: the runner's engine_execute span against the wrapper's
    // busy time, flagged when their gap exceeds the traced spread (the
    // quartile distance of the traced/untraced wall ratio across chunks).
    double gap = Median(span_gaps);
    std::vector<double> ratio;
    for (double x : overhead) ratio.push_back(1.0 + x);
    double spread = Ratio(Percentile(ratio, 75) - Percentile(ratio, 25),
                          Median(ratio));
    m["obs.engine_span_gap_frac"] = gap;
    m["obs.traced_spread_frac"] = spread;
    m["obs.engine_span_flag"] = std::fabs(gap) > spread ? 1 : 0;
    ProbeResult p;
    ProbeRender(captured, &p);
    ProbeReplay(captured, &p);
    int queries = std::min(w.options.queries_per_database, 25);
    ProbeGenerate(w.options.gen, Dialect::kSqliteFlex,
                  PlanSeeds(ChunkSeed(a.seed, 0), w.databases, 2000 / queries), queries, &p);
    ReportProbes(p, st);
    ZeroMetrics({"bugs_per_s", "hunt_p50_ms", "hunt_p90_ms", "dbs_to_detect",
                 "reduced_stmts", "pqs.detect_ms", "pqs.reduce_ms",
                 "pqs.reduce_execs"},
                st);
  }
  probe_ms.push_back(HostProbeMs());
  ReportCommon(probe_ms, measured, chunks, reps, st);
  return 0;
}

// ---- Bug hunts -----------------------------------------------------------------

std::vector<minidb::BugInfo> AllBugs() {
  std::vector<minidb::BugInfo> bugs;
  for (Dialect d : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                    Dialect::kPostgresStrict}) {
    for (const minidb::BugInfo& b : minidb::BugsForDialect(d)) {
      bugs.push_back(b);
    }
  }
  return bugs;
}

CampaignOptions HuntOptions(uint64_t campaign_seed, bool reduce) {
  CampaignOptions o;
  o.seed = campaign_seed;
  // The default 480-database budget missed update-index-stale once in ~360
  // hunts of that class, and a run makes ~2,000 hunts, so the benchmark
  // raises the cap. Only hunts that would have missed run longer.
  o.databases_per_bug = 2000;
  o.reduce = reduce;
  o.family = OracleFamily::kAuto;
  o.workers = 1;
  return o;
}

// A missed bug, rejected options, or the wrong oracle family is a failed
// hunt.
bool JudgeHunt(const BugHuntResult& r, const minidb::BugInfo& info,
               RunState* st) {
  ++st->attempted;
  bool ok = r.invalid_options.empty() && r.detected &&
            FamilyForOracle(r.oracle) == FamilyForOracle(info.oracle);
  if (!ok) {
    ++st->failed;
    st->Error(std::string("hunt failed: ") + info.name +
              (r.detected ? " fired " : " missed, last oracle ") +
              OracleName(r.oracle));
  }
  return ok;
}

struct HuntTally {
  uint64_t hunted = 0, detected = 0, dbs = 0, stmts = 0, reduced_stmts = 0;

  Counts ToCounts() const {
    return Counts{{"hunts", hunted},
                  {"detected", detected},
                  {"dbs_to_detect", dbs},
                  {"reduced_stmts", reduced_stmts}};
  }
};

int RunHunt(RunState* st, Clock::time_point process_start) {
  const Args& a = st->args;
  std::vector<minidb::BugInfo> bugs = AllBugs();
  // Set-up: the bug registry plus warm-up sessions on a clean engine.
  {
    RunnerOptions o;
    o.seed = kWarmUpSeed;
    o.databases = kWarmUpDatabases;
    PqsRunner(EngineFactory([]() -> ConnectionPtr {
                return std::make_unique<minidb::Database>(
                    Dialect::kSqliteFlex);
              }),
              o)
        .Run();
  }
  PrintReady(process_start);
  if (a.setup_only) return 0;

  std::vector<double> probe_ms{HostProbeMs()};
  Clock::time_point start = Clock::now();
  BestTimes best;  // a session is one HuntBug call
  double total_wall = 0;
  std::vector<double> overhead;
  std::vector<double> detect_ms, reduce_ms;
  uint64_t dbs = 0, reduced = 0, detected = 0;
  EngineTrace trace;  // reduction probes' engines
  trace.timed = true;
  double reduce_wall = 0;
  std::vector<SessionCapture> captured;

  double peak_rss_mb = 0;
  size_t chunks = ChunkCount(a.seconds, kHuntChunkS, kHuntRounds);
  size_t reps = RunRounds(a.trace ? 0.85 * a.seconds : a.seconds, chunks,
                          a.trace ? 1 : kHuntMinRounds, a.trace ? 1 : SIZE_MAX,
                          &peak_rss_mb, [&](size_t i) {
    uint64_t cs = ChunkSeed(a.seed, i);
    HuntTally t;
    std::vector<double> hunts;
    Clock::time_point chunk_start = Clock::now();
    CampaignOptions o = HuntOptions(cs, true);
    for (const minidb::BugInfo& info : bugs) {
      Clock::time_point h = Clock::now();
      BugHuntResult r = HuntBug(info.id, o);
      hunts.push_back(SecondsSince(h));
      ++t.hunted;
      if (JudgeHunt(r, info, st)) ++t.detected;
      t.dbs += r.databases_used;
      t.stmts += r.statements_used;
      t.reduced_stmts += r.reduced.statements.size();
    }
    double wall = SecondsSince(chunk_start);
    st->RecordCounts(i, t.ToCounts());
    double n_stmts = static_cast<double>(t.stmts);
    double n_dbs = static_cast<double>(t.dbs);
    best.Add(i, wall, n_stmts, n_dbs, hunts);
    st->chunk_timings.push_back({static_cast<double>(i), wall, n_stmts, n_dbs});
    total_wall += wall;
    dbs += t.dbs;
    reduced += t.reduced_stmts;
    detected += t.detected;
    if (!a.trace) return wall;

    // Traced twin: detection alone (HuntBug without reduction hands back
    // the raw finding), then ReduceFinding on it through wrapped buggy and
    // reference factories. Counts must equal the untraced hunts'.
    HuntTally tt;
    Clock::time_point traced_start = Clock::now();
    CampaignOptions raw = HuntOptions(cs, false);
    for (const minidb::BugInfo& info : bugs) {
      Clock::time_point h = Clock::now();
      BugHuntResult r = HuntBug(info.id, raw);
      detect_ms.push_back(SecondsSince(h) * 1e3);
      ++tt.hunted;
      tt.dbs += r.databases_used;
      if (!JudgeHunt(r, info, st)) continue;
      ++tt.detected;
      if (i == 0) {
        SessionCapture c;
        c.dialect = r.reduced.dialect;
        for (const StmtPtr& s : r.reduced.statements) {
          c.stmts.push_back(s->Clone());
        }
        captured.push_back(std::move(c));
      }
      Dialect d = info.dialect;
      BugId bug = info.id;
      EngineTrace* tr = &trace;
      EngineFactory buggy = [d, bug, tr]() -> ConnectionPtr {
        return std::make_unique<TracingConnection>(
            std::make_unique<minidb::Database>(d, BugConfig::Single(bug)), tr);
      };
      EngineFactory reference = [d, tr]() -> ConnectionPtr {
        return std::make_unique<TracingConnection>(
            std::make_unique<minidb::Database>(d), tr);
      };
      h = Clock::now();
      Finding small = ReduceFinding(buggy, r.reduced, &reference);
      double rs = SecondsSince(h);
      reduce_ms.push_back(rs * 1e3);
      reduce_wall += rs;
      tt.reduced_stmts += small.statements.size();
    }
    double traced_wall = SecondsSince(traced_start);
    st->RecordCounts(i, tt.ToCounts());
    overhead.push_back(traced_wall / wall - 1.0);
    return wall + traced_wall;
  });
  double measured = SecondsSince(start);

  auto& m = st->metrics;
  if (!a.trace) {
    // On hunt, a session is one HuntBug call (detection + reduction) and a
    // test is one generated database checked by the oracles: hunts per
    // second would follow the few costly bug classes of each seed.
    best.Report(st);
    m["setup_s"] = 0;  // filled in by run.py from timed launches
    m["peak_rss_mb"] = peak_rss_mb;
  } else {
    ReportEngine(trace, false, st);
    double busy = trace.BusyNs() / 1e9;
    m["engine.busy_frac"] = Ratio(busy, reduce_wall);
    m["harness.us_per_stmt"] =
        Ratio((reduce_wall - busy) * 1e6, trace.Statements());
    m["pqs.detect_ms"] = Median(detect_ms);
    m["pqs.reduce_ms"] = Median(reduce_ms);
    m["pqs.reduce_execs"] = Ratio(trace.Statements(), reduce_ms.size());
    m["bugs_per_s"] = Ratio(detected, total_wall);
    std::vector<double> hunts = best.AllSessions();
    m["hunt_p50_ms"] = Percentile(hunts, 50) * 1e3;
    m["hunt_p90_ms"] = Percentile(hunts, 90) * 1e3;
    m["session_p99_ms"] = Percentile(hunts, 99) * 1e3;
    m["dbs_to_detect"] = Ratio(dbs, reps);
    m["reduced_stmts"] = Ratio(reduced, detected);
    m["trace_overhead_frac"] = Median(overhead);
    ProbeResult p;
    ProbeRender(captured, &p);
    ProbeReplay(captured, &p);
    for (Dialect d : {Dialect::kSqliteFlex, Dialect::kMysqlLike,
                      Dialect::kPostgresStrict}) {
      ProbeResult one;
      ProbeGenerate(GeneratorOptions(), d, PlanSeeds(a.seed, 30, 30), 20,
                    &one);
      p.generate_us += one.generate_us / 3;
      p.rectify_us += one.rectify_us / 3;
    }
    ReportProbes(p, st);
    ZeroMetrics({"minidb.pool_hit_rate", "minidb.pool_evictions",
                 "sqlite3db.cache_hit_rate",
                 "obs.engine_span_gap_frac", "obs.engine_span_flag",
                 "obs.traced_spread_frac"},
                st);
  }
  probe_ms.push_back(HostProbeMs());
  ReportCommon(probe_ms, measured, chunks, reps, st);
  return 0;
}

// ---- Output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Format>
std::string JsonObject(const Map& map, Format format) {
  std::string out = "{";
  for (const auto& [k, v] : map) {
    out += (out.size() > 1 ? ", " : "") + JsonString(k) + ": " + format(v);
  }
  return out + "}";
}

void PrintResult(const RunState& st) {
  auto count = [](uint64_t v) { return std::to_string(v); };
  std::string out = "{\"errors\": [";
  for (size_t i = 0; i < st.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(st.errors[i]);
  }
  out += "], \"attempted\": " + std::to_string(st.attempted);
  out += ", \"failed\": " + std::to_string(st.failed);
  out += ", \"chunk_counts\": [";
  for (size_t i = 0; i < st.chunk_counts.size(); ++i) {
    out += (i ? ", " : "") + JsonObject(st.chunk_counts[i], count);
  }
  out += "], \"chunk_timings\": [";
  for (size_t i = 0; i < st.chunk_timings.size(); ++i) {
    out += i ? ", [" : "[";
    for (size_t j = 0; j < st.chunk_timings[i].size(); ++j) {
      out += (j ? ", " : "") + JsonNumber(st.chunk_timings[i][j]);
    }
    out += "]";
  }
  out += "], \"metrics\": " + JsonObject(st.metrics, JsonNumber);
  out += ", \"manifest\": " + JsonObject(st.manifest, JsonString);
  std::printf("%s}\n", out.c_str());
}

int Main(int argc, char** argv, Clock::time_point process_start) {
  RunState st;
  Args& a = st.args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "pqs_bench: %s needs a value\n", flag.c_str());
      return 2;
    }
    ++i;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "pqs_bench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (a.seconds <= 0) {
    std::fprintf(stderr, "pqs_bench: --seconds must be positive\n");
    return 2;
  }
  st.manifest["compiler"] = PQS_BENCH_COMPILER;
  st.manifest["build_type"] = PQS_BENCH_BUILD_TYPE;
  st.manifest["nproc"] = std::to_string(std::thread::hardware_concurrency());
  st.manifest["sqlite"] = SqliteConnection::LibraryVersion();

  int rc;
  PqsWorkload w;
  if (a.workload == "hunt") {
    rc = RunHunt(&st, process_start);
  } else if (LookupPqsWorkload(a.workload, &w)) {
    rc = RunPqs(a.workload, w, &st, process_start);
  } else {
    std::fprintf(stderr, "pqs_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  if (rc != 0 || a.setup_only) return rc;
  PrintResult(st);
  return 0;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) {
  auto process_start = pqs::Clock::now();
  return pqs::Main(argc, argv, process_start);
}
