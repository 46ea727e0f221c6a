// Injected-bug identifiers and the per-connection enable set.
//
// MiniDB deliberately ships a registry of historical-bug *classes* (modeled
// on the kinds of defects the PQS paper found in SQLite, MySQL, and
// PostgreSQL). A BugConfig selects which of them a given engine instance
// exhibits; the default configuration is a clean engine. The enum lives in
// the engine-agnostic layer because campaign code and benches name bugs
// without caring which engine implements them.
#ifndef PQS_SRC_ENGINE_BUGS_H_
#define PQS_SRC_ENGINE_BUGS_H_

#include <cstdint>

namespace pqs {

enum class BugId : uint32_t {
  // --- SQLite-flavored dialect -------------------------------------------
  // Rows filtered through a partial index are wrongly restricted to the
  // index predicate when the query contains an IS NOT NULL term (models
  // SQLite's "partial index used for IS NOT inference" corruption).
  kPartialIndexIsNotInference = 0,
  kIndexedOrSkip,          // OR-query over an indexed table drops rows
  kUniqueNullLost,         // rows with NULL in a UNIQUE column vanish
  kTextEqInterning,        // multi-char text equality spuriously FALSE
  kNegIntCompare,          // comparisons against negative literals FALSE
  kRealTruncCompare,       // REAL operand truncated in mixed comparison
  kLikeAnchored,           // '%x%' patterns wrongly anchored at the start
  kNotNullNot,             // NOT NULL evaluates to FALSE instead of NULL
  kJoinDupRightMatch,      // ON-join keeps only the first matching right row
  kDistinctTruncMerge,     // DISTINCT dedups REAL cells by truncated value
  kOrTermLimit,            // ≥3 OR terms → spurious optimizer error
  kConcatNumericError,     // || with a numeric operand → spurious error
  kBetweenSwapError,       // BETWEEN hi..lo (empty range) → spurious error
  kDeepExprCrash,          // expression depth ≥6 → simulated SEGFAULT

  // --- MySQL-flavored dialect --------------------------------------------
  kStrNumCoercionPrefix,   // '12ab' coerces to 0 instead of 12
  kInListFirstOnly,        // IN (a, b, ...) only checks the first element
  kJoinPredicatePushdown,  // join rows satisfying a col=col term dropped
  kUnsignedSubWrap,        // negative subtraction result wraps positive
  kOrderLimitOffByOne,     // ORDER BY + binding LIMIT returns one row fewer
  kDivZeroError,           // x / 0 errors instead of yielding NULL
  kDupInListError,         // duplicate IN-list literal → spurious error
  kLikeWildcardCrash,      // long '%...%' pattern → simulated SEGFAULT
  kDistinctOrderCrash,     // DISTINCT + ORDER BY together → SEGFAULT

  // --- PostgreSQL-flavored dialect ---------------------------------------
  kIsNullArithLost,        // (a+b) IS NULL loses NULL propagation
  kParallelWorkerError,    // 2-table AND query → "parallel worker" error
  kMultiJoinOrderError,    // ≥2 join steps + ORDER BY → spurious plan error
  kNumericOverflowError,   // |arith result| > 50 → spurious overflow
  kCollationMismatchError, // text col-vs-col compare → collation error
  kBetweenNullCrash,       // BETWEEN + IS NULL in one query → SEGFAULT

  // --- Typed expression subsystem (functions / CAST / CASE / LIKE ESCAPE /
  // --- collations), spread across the dialect flavors -------------------
  kLikeEscapeMiss,         // LIKE ... ESCAPE processed as if no ESCAPE
  kCastTruncAffinity,      // CAST(real AS INTEGER) rounds instead of
                           // truncating toward zero
  kCollateNocaseRange,     // NOCASE honored for =/<> but range comparisons
                           // fall back to binary collation
  kCoalesceFirstNull,      // COALESCE yields NULL when its first argument
                           // is NULL (remaining args never consulted)
  kCaseElseSkip,           // CASE with no matching WHEN skips the ELSE arm
  kInListNullSemantics,    // NULL list element ignored: IN yields FALSE /
                           // NOT IN yields TRUE instead of NULL

  // --- Statement-level mutation engine (indexes / UPDATE / DELETE /
  // --- maintenance), spread across the dialect flavors ------------------
  kIndexLookupSkipLast,    // index lookup drops the greatest-key match
  kUpdateIndexStale,       // UPDATE leaves stale index keys behind
  kReindexTruncate,        // REINDEX rebuild keeps only half the entries
  kDeleteOverrun,          // DELETE of ≥2 rows also removes the row after
                           // the last match
  kUpdateSetOrCrash,       // multi-assignment UPDATE with OR in the WHERE
                           // → simulated SEGFAULT
  kPartialIndexUpdateMiss, // UPDATE/DELETE skip partial-index membership
                           // recomputation (entries reflect pre-mutation
                           // rows)
  kReindexPartialError,    // REINDEX of a table with a partial index →
                           // spurious "could not reindex" error

  // --- Aggregation / grouping pipeline (metamorphic-oracle targets),
  // --- spread across the dialect flavors. Containment has no pivot row
  // --- once rows are grouped, so only NoREC/TLP can see these. ----------
  kAggEmptyGroupZero,      // SUM/MIN/MAX over empty input → 0 instead of
                           // NULL
  kSumOverflowWrap,        // integer SUM wraps in a too-narrow register
  kAvgIntegerDiv,          // all-integer AVG truncates (integer division)
  kCountDistinctDup,       // COUNT(DISTINCT e) counts duplicates
  kHavingBeforeGroup,      // HAVING aggregates see only the group's first
                           // row (evaluated before grouping finishes)
  kTlpNullPartitionDrop,   // aggregate query with top-level IS NULL WHERE
                           // drops every matching row

  // --- Paged storage engine (buffer pool / page heap). These corrupt the
  // --- storage layer underneath statement semantics, so they only manifest
  // --- under paging (page splits, eviction pressure, page-crossing
  // --- mutations); the engine arms a deliberately tiny pool when one is
  // --- enabled so campaigns reach the trigger states quickly. -----------
  kEvictDropsDirtyPage,    // evicting a dirty frame skips the write-back:
                           // every modification since the page was loaded
                           // reverts to the on-"disk" version
  kPageSplitRowLoss,       // allocating a fresh page on overflow ("split")
                           // loses the last row of the page that filled up
  kStalePageReadAfterUpdate, // a read of a page dirtied by UPDATE
                           // "revalidates" the frame from disk, discarding
                           // the update (reads observe pre-update rows)
  kIndexHeapDesync,        // a DELETE confined to the tail page skips the
                           // index rebuild (positions of earlier rows are
                           // assumed unchanged), leaving entries that point
                           // at shifted or vanished heap rows

  // --- MVCC transaction layer (snapshot isolation over K interleaved
  // --- sessions). Only the concurrent workload (txn_sessions > 1) can
  // --- reach these paths; HuntBug arms that workload automatically. -----
  kTxnLostUpdate,          // COMMIT skips the first-committer-wins check
                           // for update-only write sets: a stale-snapshot
                           // UPDATE silently clobbers a committed one
  kTxnDirtyRead,           // in-transaction SELECTs also see rows inserted
                           // by other transactions that are still open
  kTxnWriteSkew,           // conflict detection degraded to row granularity
                           // under claimed SI: concurrent inserts to a
                           // table this txn ranged over never conflict
  kTxnRollbackStaleIndex,  // ROLLBACK rebuilds indexes from the discarded
                           // write set and the next quiescent rebuild is
                           // skipped, leaving uncommitted keys behind
  kTxnSnapshotUncommittedRead, // snapshot reads resolve a row's newest
                           // version even when its writer has not
                           // committed (sees uncommitted UPDATE values)

  kNumBugs,
};

inline constexpr uint32_t kNumBugIds = static_cast<uint32_t>(BugId::kNumBugs);

// True for the MVCC transaction-layer bug classes — the ones a single
// serial session can never trigger. Campaign code uses this to arm the
// K-session interleaved workload when hunting them.
inline constexpr bool IsTxnBug(BugId id) {
  return id >= BugId::kTxnLostUpdate &&
         id <= BugId::kTxnSnapshotUncommittedRead;
}

class BugConfig {
 public:
  BugConfig() = default;

  static BugConfig Single(BugId id) {
    BugConfig config;
    config.Enable(id);
    return config;
  }

  void Enable(BugId id) { mask_ |= Bit(id); }
  bool enabled(BugId id) const { return (mask_ & Bit(id)) != 0; }
  bool any() const { return mask_ != 0; }

 private:
  static uint64_t Bit(BugId id) {
    return uint64_t{1} << static_cast<uint32_t>(id);
  }
  uint64_t mask_ = 0;
};

static_assert(kNumBugIds <= 64, "BugConfig mask is 64 bits wide");

}  // namespace pqs

#endif  // PQS_SRC_ENGINE_BUGS_H_
