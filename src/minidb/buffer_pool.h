// Fixed-size page frames behind a deterministic clock-eviction buffer pool.
//
// MiniDB's paged storage keeps every table as a sequence of fixed-size
// "disk" pages (see storage.h). All reads and writes of page content go
// through a BufferPool: a bounded set of in-memory frames holding copies of
// disk pages. A frame is pinned while a caller holds a reference into it;
// unpinned frames are eviction candidates for the clock sweep, which writes
// dirty frames back to their disk page before reuse.
//
// Determinism: the pool has no wall-clock or address-dependent state. The
// clock hand starts at a position derived from the configured seed and
// advances only as a function of the fetch/unpin sequence, so two engines
// configured identically and driven with the same statement stream evict
// the same pages in the same order — which keeps N-worker campaign reports
// byte-identical and makes every storage-bug finding replayable.
//
// The storage-layer injected bugs (BugId::kEvictDropsDirtyPage and
// BugId::kStalePageReadAfterUpdate) live here because eviction and read
// revalidation are pool concerns; the page-split and index-desync bugs live
// in TableStore / Database where splits and rebuilds happen.
#ifndef PQS_SRC_MINIDB_BUFFER_POOL_H_
#define PQS_SRC_MINIDB_BUFFER_POOL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/engine/bugs.h"
#include "src/sqlvalue/value.h"

namespace pqs {
namespace minidb {

using StoredRow = std::vector<SqlValue>;

// One fixed-capacity page of the backing "disk" image. Rows are stored
// row-major; a page holds at most StorageOptions::page_rows rows.
struct DiskPage {
  std::vector<StoredRow> rows;
};

// Knobs for the paged storage layer. The defaults keep generator-scale
// tables (3-12 rows) fully resident so the clean hot path pays only the
// frame lookup; Stress() shrinks both axes to force splits and eviction on
// every statement, and Flat() bypasses paging entirely (the reference the
// storage tests compare paged storage against; both runner models are
// paged).
struct StorageOptions {
  bool paged = true;
  uint32_t page_rows = 64;    // rows per page (>= 1)
  uint32_t pool_frames = 32;  // frames in the pool (clamped up to >= 4)
  uint64_t seed = 0x9e3779b97f4a7c15ull;  // clock-hand start derivation

  static StorageOptions Flat() {
    StorageOptions o;
    o.paged = false;
    return o;
  }
  // Tiny pages + tiny pool: every multi-row table spans pages and every
  // scan cycles the pool. Used automatically when a storage bug is armed
  // (see Database) and by the forced-eviction property tests.
  static StorageOptions Stress() {
    StorageOptions o;
    o.page_rows = 2;
    o.pool_frames = 4;
    return o;
  }
};

// True if `bugs` enables any of the storage-layer bug classes. Database
// uses this to auto-arm Stress() storage so the default HuntBug budget
// reaches eviction/split trigger states at generator-scale tables, and
// TableStore uses it to bypass the materialization cache (pool activity can
// change observed content when these are armed).
bool HasStorageBug(const BugConfig& bugs);

class BufferPool {
 public:
  // How a fetch intends to use the page. kUpdate is a write that modifies
  // existing rows in place (the UPDATE path); it marks the frame as a
  // candidate for the stale-read-after-update injected bug.
  enum class Intent { kRead, kWrite, kUpdate };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
    uint64_t emergency_frames = 0;  // all frames pinned; pool grew by one
  };

  struct Frame {
    uint32_t table = 0;
    uint32_t page = 0;
    bool in_use = false;
    bool dirty = false;          // frame content diverged from disk
    bool update_dirtied = false; // dirtied via Intent::kUpdate
    bool ref = false;            // clock reference bit
    int pins = 0;
    DiskPage* backing = nullptr; // disk page this frame caches
    std::vector<StoredRow> rows;
  };

  BufferPool(uint32_t frames, uint64_t seed, const BugConfig* bugs);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns the index of a pinned frame caching (table, page), loading it
  // from `disk` on a miss (possibly evicting an unpinned frame first).
  // `disk` must stay valid until the frame is evicted or discarded; the
  // deque-backed page store in TableStore guarantees stable addresses.
  int Fetch(uint32_t table, uint32_t page, DiskPage* disk, Intent intent);
  void Unpin(int frame_index);

  Frame& frame(int i) { return frames_[i]; }
  const Frame& frame(int i) const { return frames_[i]; }

  // Writes every dirty frame of `table` back to its disk page (subject to
  // the evict-drops-dirty bug NOT applying: an explicit flush models a
  // checkpoint and is kept correct so Materialize sees mutations).
  void FlushTable(uint32_t table);

  // Forgets every frame of `table` without write-back. Used when the
  // table's disk image is rewritten wholesale (DELETE compaction, DROP,
  // Clear): the frames' content is dead and their backing pointers would
  // dangle.
  void DiscardTable(uint32_t table);

  // Drops every frame without write-back and rewinds the clock hand to its
  // seed-derived start — the state a freshly constructed pool would have.
  // Used by Database::Reset, where the tables (and with them every disk
  // page the frames point into) are destroyed wholesale. Stats accumulate
  // across resets.
  void Reset();

  // Monotonic counter bumped whenever pool activity could have changed
  // what a subsequent read observes (eviction, write-back, revalidation).
  // Only meaningful to cache-invalidation when storage bugs are armed; on
  // a clean pool, frame traffic never changes logical content.
  uint64_t epoch() const { return epoch_; }

  const Stats& stats() const { return stats_; }
  size_t frame_count() const { return frames_.size(); }
  int pinned_frames() const;

  // Pool activity is also emitted as telemetry when a session context is
  // installed (src/obs/telemetry.h): hits/misses/evictions/writebacks as
  // counters, and each eviction as a kEviction flight-recorder event
  // carrying (table, page) — the replacement for the old set_trace /
  // eviction_log bespoke API, in the same deterministic order.

 private:
  int FindFrame(uint32_t table, uint32_t page) const;
  int PickVictim();  // clock sweep; -1 if every frame is pinned
  void EvictFrame(int index);

  std::vector<Frame> frames_;
  size_t configured_frames_ = 0;  // before any emergency growth
  size_t hand_ = 0;               // clock hand, seeded deterministically
  size_t initial_hand_ = 0;
  const BugConfig* bugs_;  // not owned; may be null (clean pool)
  Stats stats_;
  uint64_t epoch_ = 0;
};

}  // namespace minidb
}  // namespace pqs

#endif  // PQS_SRC_MINIDB_BUFFER_POOL_H_
