#include "src/minidb/bug_registry.h"

namespace pqs {
namespace minidb {

namespace {

// The distribution across dialects and oracles deliberately mirrors the
// paper's findings: the SQLite component found by far the most bugs, the
// containment oracle dominates overall, and the PostgreSQL findings skew
// toward the error oracle (Tables 2 and 3).
const std::vector<BugInfo>& BuildRegistry() {
  static const std::vector<BugInfo> registry = {
      // SQLite-flavored dialect: 10 containment, 3 error, 1 crash.
      {BugId::kPartialIndexIsNotInference, "partial-index-is-not-inference",
       Dialect::kSqliteFlex, OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kIndexedOrSkip, "indexed-or-skip", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kUniqueNullLost, "unique-null-lost", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kTextEqInterning, "text-eq-interning", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kNegIntCompare, "neg-int-compare", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kRealTruncCompare, "real-trunc-compare", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kLikeAnchored, "like-anchored", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kNotNullNot, "not-null-not", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kJoinDupRightMatch, "join-dup-right-match",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kDistinctTruncMerge, "distinct-trunc-merge",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kOrTermLimit, "or-term-limit", Dialect::kSqliteFlex,
       OracleKind::kError, ReportOutcome::kFixed},
      {BugId::kConcatNumericError, "concat-numeric-error",
       Dialect::kSqliteFlex, OracleKind::kError, ReportOutcome::kFixed},
      {BugId::kBetweenSwapError, "between-swap-error", Dialect::kSqliteFlex,
       OracleKind::kError, ReportOutcome::kIntended},
      {BugId::kDeepExprCrash, "deep-expr-crash", Dialect::kSqliteFlex,
       OracleKind::kCrash, ReportOutcome::kDuplicate},

      // MySQL-flavored dialect: 5 containment, 2 error, 2 crash.
      {BugId::kStrNumCoercionPrefix, "str-num-coercion-prefix",
       Dialect::kMysqlLike, OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kInListFirstOnly, "in-list-first-only", Dialect::kMysqlLike,
       OracleKind::kContainment, ReportOutcome::kVerified},
      {BugId::kJoinPredicatePushdown, "join-predicate-pushdown",
       Dialect::kMysqlLike, OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kUnsignedSubWrap, "unsigned-sub-wrap", Dialect::kMysqlLike,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kOrderLimitOffByOne, "order-limit-off-by-one",
       Dialect::kMysqlLike, OracleKind::kContainment,
       ReportOutcome::kVerified},
      {BugId::kDivZeroError, "div-zero-error", Dialect::kMysqlLike,
       OracleKind::kError, ReportOutcome::kVerified},
      {BugId::kDupInListError, "dup-in-list-error", Dialect::kMysqlLike,
       OracleKind::kError, ReportOutcome::kIntended},
      {BugId::kLikeWildcardCrash, "like-wildcard-crash", Dialect::kMysqlLike,
       OracleKind::kCrash, ReportOutcome::kDuplicate},
      {BugId::kDistinctOrderCrash, "distinct-order-crash",
       Dialect::kMysqlLike, OracleKind::kCrash, ReportOutcome::kFixed},

      // PostgreSQL-flavored dialect: 1 containment, 4 error, 1 crash.
      {BugId::kIsNullArithLost, "is-null-arith-lost",
       Dialect::kPostgresStrict, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kParallelWorkerError, "parallel-worker-error",
       Dialect::kPostgresStrict, OracleKind::kError,
       ReportOutcome::kVerified},
      {BugId::kMultiJoinOrderError, "multi-join-order-error",
       Dialect::kPostgresStrict, OracleKind::kError,
       ReportOutcome::kVerified},
      {BugId::kNumericOverflowError, "numeric-overflow-error",
       Dialect::kPostgresStrict, OracleKind::kError,
       ReportOutcome::kIntended},
      {BugId::kCollationMismatchError, "collation-mismatch-error",
       Dialect::kPostgresStrict, OracleKind::kError,
       ReportOutcome::kIntended},
      {BugId::kBetweenNullCrash, "between-null-crash",
       Dialect::kPostgresStrict, OracleKind::kCrash,
       ReportOutcome::kDuplicate},

      // Typed expression subsystem (functions / CAST / CASE / LIKE ESCAPE /
      // collations): 4 SQLite, 1 MySQL, 1 PostgreSQL, all containment —
      // expression semantics drift silently, it does not error or crash.
      {BugId::kLikeEscapeMiss, "like-escape-miss", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kCastTruncAffinity, "cast-trunc-affinity",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kCollateNocaseRange, "collate-nocase-range",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kVerified},
      {BugId::kCoalesceFirstNull, "coalesce-first-null",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kCaseElseSkip, "case-else-skip", Dialect::kMysqlLike,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kInListNullSemantics, "in-list-null-semantics",
       Dialect::kPostgresStrict, OracleKind::kContainment,
       ReportOutcome::kVerified},

      // Statement-level mutation engine (indexes / UPDATE / DELETE /
      // maintenance): 3 SQLite, 2 MySQL, 2 PostgreSQL. Index corruption
      // drifts silently (containment); the mutation-path crash and the
      // spurious maintenance error keep the crash/error oracles exercised
      // on the new statement kinds.
      {BugId::kIndexLookupSkipLast, "index-lookup-skip-last",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kUpdateIndexStale, "update-index-stale", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kReindexTruncate, "reindex-truncate", Dialect::kSqliteFlex,
       OracleKind::kContainment, ReportOutcome::kVerified},
      {BugId::kDeleteOverrun, "delete-overrun", Dialect::kMysqlLike,
       OracleKind::kContainment, ReportOutcome::kFixed},
      {BugId::kUpdateSetOrCrash, "update-set-or-crash", Dialect::kMysqlLike,
       OracleKind::kCrash, ReportOutcome::kDuplicate},
      {BugId::kPartialIndexUpdateMiss, "partial-index-update-miss",
       Dialect::kPostgresStrict, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kReindexPartialError, "reindex-partial-error",
       Dialect::kPostgresStrict, OracleKind::kError,
       ReportOutcome::kIntended},

      // Aggregation / grouping pipeline: 2 SQLite, 2 MySQL, 2 PostgreSQL.
      // Containment is structurally blind here (no pivot row survives
      // grouping); TLP's partition recombination is the intended finder
      // for all six, with NoREC occasionally co-detecting the ones that
      // alter COUNT-visible row flow.
      {BugId::kAggEmptyGroupZero, "agg-empty-group-zero",
       Dialect::kSqliteFlex, OracleKind::kTlp, ReportOutcome::kFixed},
      {BugId::kSumOverflowWrap, "sum-overflow-wrap", Dialect::kSqliteFlex,
       OracleKind::kTlp, ReportOutcome::kFixed},
      {BugId::kAvgIntegerDiv, "avg-integer-div", Dialect::kMysqlLike,
       OracleKind::kTlp, ReportOutcome::kVerified},
      {BugId::kCountDistinctDup, "count-distinct-dup", Dialect::kMysqlLike,
       OracleKind::kTlp, ReportOutcome::kFixed},
      {BugId::kHavingBeforeGroup, "having-before-group",
       Dialect::kPostgresStrict, OracleKind::kTlp, ReportOutcome::kFixed},
      {BugId::kTlpNullPartitionDrop, "tlp-null-partition-drop",
       Dialect::kPostgresStrict, OracleKind::kTlp,
       ReportOutcome::kVerified},

      // Paged storage engine (buffer pool / page heap): 2 SQLite, 1 MySQL,
      // 1 PostgreSQL, all containment — storage corruption silently loses
      // or resurrects rows, which the pivot check observes as a missing
      // pivot or a state-compare mismatch; nothing errors or crashes.
      {BugId::kEvictDropsDirtyPage, "evict-drops-dirty-page",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kPageSplitRowLoss, "page-split-row-loss",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kStalePageReadAfterUpdate, "stale-page-read-after-update",
       Dialect::kMysqlLike, OracleKind::kContainment,
       ReportOutcome::kVerified},
      {BugId::kIndexHeapDesync, "index-heap-desync",
       Dialect::kPostgresStrict, OracleKind::kContainment,
       ReportOutcome::kFixed},

      // MVCC transaction layer: 2 SQLite, 2 MySQL, 1 PostgreSQL. The
      // anomaly classes (lost update, dirty read, write skew, uncommitted
      // snapshot read) make the committed state or a session's snapshot
      // diverge from the clean model's — the txn-serial oracle; the
      // rollback bug corrupts indexes only, so index probes (containment)
      // find it.
      {BugId::kTxnLostUpdate, "txn-lost-update", Dialect::kSqliteFlex,
       OracleKind::kTxnSerial, ReportOutcome::kFixed},
      {BugId::kTxnRollbackStaleIndex, "txn-rollback-stale-index",
       Dialect::kSqliteFlex, OracleKind::kContainment,
       ReportOutcome::kFixed},
      {BugId::kTxnDirtyRead, "txn-dirty-read", Dialect::kMysqlLike,
       OracleKind::kTxnSerial, ReportOutcome::kVerified},
      {BugId::kTxnSnapshotUncommittedRead, "txn-snapshot-uncommitted-read",
       Dialect::kMysqlLike, OracleKind::kTxnSerial, ReportOutcome::kFixed},
      {BugId::kTxnWriteSkew, "txn-write-skew", Dialect::kPostgresStrict,
       OracleKind::kTxnSerial, ReportOutcome::kVerified},
  };
  return registry;
}

}  // namespace

const std::vector<BugInfo>& BugRegistry() { return BuildRegistry(); }

const BugInfo& LookupBug(BugId id) {
  for (const BugInfo& info : BugRegistry()) {
    if (info.id == id) return info;
  }
  // BugId values not in the registry are a programming error; returning the
  // first entry keeps this function total without exceptions.
  return BugRegistry().front();
}

std::vector<BugInfo> BugsForDialect(Dialect dialect) {
  std::vector<BugInfo> out;
  for (const BugInfo& info : BugRegistry()) {
    if (info.dialect == dialect) out.push_back(info);
  }
  return out;
}

}  // namespace minidb
}  // namespace pqs
