// Campaign layer: systematic bug hunts over MiniDB's injected-bug registry.
//
// A campaign enables each registered bug of a dialect in turn, runs the PQS
// loop until the bug is detected (or a budget is exhausted), optionally
// reduces the finding, and tabulates the results the way the paper's
// Tables 2/3 and Figures 2/3 do.
#ifndef PQS_SRC_PQS_CAMPAIGN_H_
#define PQS_SRC_PQS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/bugs.h"
#include "src/engine/connection.h"
#include "src/pqs/generator.h"
#include "src/pqs/oracles.h"
#include "src/pqs/runner.h"

namespace pqs {

// Resolution status the upstream bug report reached (paper Table 2).
enum class ReportOutcome { kFixed, kVerified, kIntended, kDuplicate };

struct CampaignOptions {
  uint64_t seed = 1;
  // Detection budget per bug: up to this many generated databases...
  // (480 finds all 57 registry bugs on the default seeds. The heavy tail
  // is the index-maintenance classes — update-index-stale and
  // partial-index-update-miss need an UPDATE to an indexed column *and* a
  // prompt index-scanned query over it. Over campaign seeds 9001–9300 they
  // took up to 448 and 474 databases, and update-index-stale was missed
  // in 3 of the 300 hunts. Cheap on average: HuntBug stops at the first
  // finding, so only the tail pays.)
  int databases_per_bug = 480;
  // ...with this many oracle-checked queries each.
  int queries_per_database = 20;
  bool reduce = true;
  // Worker threads. RunCampaign shards the dialect's bug list across the
  // workers (each hunt is an independent RNG stream, so the merged report
  // is identical for every worker count); a standalone HuntBug instead
  // hands the workers to its runner's shard plan. Either way the paper's
  // "many concurrent fuzzing threads per DBMS" shape is preserved without
  // giving up seed determinism.
  int workers = 1;
  // Oracle family the hunts run with. kAuto resolves per bug to the
  // registry entry's intended finder (a containment-blind aggregation bug
  // is hunted with TLP, the classic classes with containment); forcing a
  // family instead is what the per-family detection-latency benchmark
  // does.
  OracleFamily family = OracleFamily::kAuto;
  GeneratorOptions gen;
};

struct BugHuntResult {
  // Registry metadata for the hunted bug.
  BugId bug = BugId::kPartialIndexIsNotInference;
  const char* name = "";
  Dialect dialect = Dialect::kSqliteFlex;
  ReportOutcome outcome = ReportOutcome::kFixed;

  bool detected = false;
  // Non-empty when GeneratorOptions::Validate() rejected the options; the
  // hunt performed no work (distinguishes "not found in budget" from
  // "never hunted").
  std::string invalid_options;
  OracleKind oracle = OracleKind::kContainment;  // oracle that fired
  // The finding (reduced when CampaignOptions::reduce, raw otherwise).
  Finding reduced;
  uint64_t statements_used = 0;
  uint64_t databases_used = 0;
};

struct CampaignReport {
  Dialect dialect = Dialect::kSqliteFlex;
  // One entry per registered bug of the dialect, in registry order.
  std::vector<BugHuntResult> results;

  size_t DetectedCount() const;
  // Detected bugs whose firing oracle was `kind`.
  size_t CountByOracle(OracleKind kind) const;
  // Detected bugs whose modeled report outcome is `outcome`.
  size_t CountByOutcome(ReportOutcome outcome) const;
  // Test-case statistics over all detected findings.
  AggregateStats Aggregate() const;
};

// Hunts every registered bug of `dialect`.
CampaignReport RunCampaign(Dialect dialect, const CampaignOptions& options);

// Hunts one bug (dialect comes from the registry entry).
BugHuntResult HuntBug(BugId bug, const CampaignOptions& options);

}  // namespace pqs

#endif  // PQS_SRC_PQS_CAMPAIGN_H_
