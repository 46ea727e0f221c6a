#include "src/pqs/campaign.h"

#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/minidb/bug_registry.h"
#include "src/minidb/database.h"
#include "src/pqs/reducer.h"

namespace pqs {

size_t CampaignReport::DetectedCount() const {
  size_t count = 0;
  for (const BugHuntResult& r : results) count += r.detected ? 1 : 0;
  return count;
}

size_t CampaignReport::CountByOracle(OracleKind kind) const {
  size_t count = 0;
  for (const BugHuntResult& r : results) {
    count += (r.detected && r.oracle == kind) ? 1 : 0;
  }
  return count;
}

size_t CampaignReport::CountByOutcome(ReportOutcome outcome) const {
  size_t count = 0;
  for (const BugHuntResult& r : results) {
    count += (r.detected && r.outcome == outcome) ? 1 : 0;
  }
  return count;
}

AggregateStats CampaignReport::Aggregate() const {
  AggregateStats agg;
  for (const BugHuntResult& r : results) {
    if (!r.detected) continue;
    agg.Add(AnalyzeTestCase(r.reduced));
  }
  return agg;
}

BugHuntResult HuntBug(BugId bug, const CampaignOptions& options) {
  const minidb::BugInfo& info = minidb::LookupBug(bug);

  BugHuntResult result;
  result.bug = info.id;
  result.name = info.name;
  result.dialect = info.dialect;
  result.outcome = info.outcome;

  // Reject malformed generator options up front (the runner would also
  // refuse them, but a campaign should not silently hunt nothing).
  result.invalid_options = options.gen.Validate();
  if (!result.invalid_options.empty()) return result;

  Dialect dialect = info.dialect;
  EngineFactory buggy = [dialect, bug]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect,
                                              BugConfig::Single(bug));
  };
  EngineFactory reference = [dialect]() -> ConnectionPtr {
    return std::make_unique<minidb::Database>(dialect);
  };

  RunnerOptions runner_options;
  // Decorrelate per-bug streams via splitmix64 stream splitting; the
  // campaign seed still fully determines every hunt, and the per-bug seeds
  // derived from it can never collide with each other (per-database
  // streams nested under different bug seeds are distinct only
  // statistically, like any hashed seeds).
  runner_options.seed =
      Rng::StreamSeed(options.seed, static_cast<uint64_t>(bug));
  runner_options.databases = options.databases_per_bug;
  runner_options.queries_per_database = options.queries_per_database;
  runner_options.stop_on_first_finding = true;
  runner_options.workers = options.workers;
  runner_options.family = options.family == OracleFamily::kAuto
                              ? FamilyForOracle(info.oracle)
                              : options.family;
  runner_options.gen = options.gen;
  // Transaction bugs only surface under the interleaved-session branch;
  // arm it unless the caller already chose a session count.
  if (IsTxnBug(bug) && runner_options.gen.txn_sessions <= 1) {
    runner_options.gen.txn_sessions = 3;
  }

  PqsRunner runner(buggy, runner_options);
  RunReport report = runner.Run();
  result.statements_used = report.stats.statements_executed;
  result.databases_used = report.stats.databases_created;
  if (report.findings.empty()) return result;

  result.detected = true;
  Finding& finding = report.findings.front();
  result.oracle = finding.oracle;
  result.reduced = options.reduce
                       ? ReduceFinding(buggy, finding, &reference)
                       : std::move(finding);
  return result;
}

CampaignReport RunCampaign(Dialect dialect, const CampaignOptions& options) {
  CampaignReport report;
  report.dialect = dialect;
  std::vector<minidb::BugInfo> bugs = minidb::BugsForDialect(dialect);

  int workers = options.workers;
  if (workers > static_cast<int>(bugs.size())) {
    workers = static_cast<int>(bugs.size());
  }
  if (workers < 1) workers = 1;

  // Shard the bug list across the workers. Every hunt consumes only its own
  // stream-split seed, so result slot `i` is the same no matter which worker
  // claims it or in which order — the merged report is identical for every
  // worker count. Each hunt runs single-threaded here (workers = 1);
  // the campaign already owns the parallelism, and nesting sharded runners
  // inside sharded hunts would oversubscribe the machine.
  CampaignOptions hunt_options = options;
  hunt_options.workers = 1;
  report.results.resize(bugs.size());
  ForEachClaimed(bugs.size(), workers, [&](size_t i, int) {
    report.results[i] = HuntBug(bugs[i].id, hunt_options);
  });
  return report;
}

}  // namespace pqs
