// TableStore: one table's row heap, either flat or paged behind BufferPool.
//
// Positions. Every stored row has a stable *position* `pos`; in paged mode
// pos = page * page_rows + slot. On a clean engine appends fill pages
// densely, so positions coincide with the classic dense row index and the
// scan order (page-major, slot-ascending) is exactly the old vector order —
// which is what keeps paged and flat executions byte-identical. Injected
// storage bugs can make pages shorter than their intended fill; readers
// therefore never trust size() for bounds and instead bound-check the slot
// against the actual page content (Cursor::TryRow returns null for a
// vanished row, and batch scans enumerate what the page really holds).
//
// Reads and writes of page content always go through the pool (so eviction,
// write-back, and the storage bug classes see every access); the deque of
// disk pages only changes shape on append/compaction, never on scan.
#ifndef PQS_SRC_MINIDB_STORAGE_H_
#define PQS_SRC_MINIDB_STORAGE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/minidb/buffer_pool.h"

namespace pqs {
namespace minidb {

class TableStore {
 public:
  TableStore() = default;

  // Must be called once before use. `pool` and `opts` must outlive the
  // store (Database owns both); `table_id` must be unique per store for
  // the pool's lifetime (Database hands out a monotonically increasing
  // id, so frames of a dropped table can never alias a new table's).
  void Configure(BufferPool* pool, uint32_t table_id,
                 const StorageOptions* opts, const BugConfig* bugs);

  // Appends a row and returns its intended position.
  size_t Append(StoredRow row);

  // Replaces the row at `pos` in place (UPDATE). A no-op if the row has
  // vanished under an injected storage bug.
  void Overwrite(size_t pos, StoredRow row);

  // Rewrites the whole heap densely from `rows` (DELETE compaction).
  void ReplaceAll(std::vector<StoredRow> rows);

  // Logical row count: rows appended minus rows compacted away. Under
  // injected storage bugs the physical content can hold fewer rows; use
  // this only for sizing hints, never for bounds.
  size_t size() const { return row_count_; }
  bool paged() const { return paged_; }
  uint32_t page_rows() const { return page_rows_; }
  size_t page_count() const { return paged_ ? disk_.size() : 1; }

  // Bumped on every mutation; keys the materialization cache.
  uint64_t version() const { return version_; }

  // Streams the heap page by page in position order. `fn` is called as
  // fn(base_pos, rows, n) with the page pinned for the duration of the
  // call; row i of the batch is at position base_pos + i. Return false
  // from `fn` to stop the scan early (statement error abort).
  template <typename Fn>
  void ForEachBatch(Fn&& fn) const {
    if (!paged_) {
      fn(size_t{0}, flat_.data(), flat_.size());
      return;
    }
    for (size_t p = 0; p < disk_.size(); ++p) {
      int fi = pool_->Fetch(table_id_, static_cast<uint32_t>(p),
                            const_cast<DiskPage*>(&disk_[p]),
                            BufferPool::Intent::kRead);
      const BufferPool::Frame& f = pool_->frame(fi);
      bool more = fn(p * static_cast<size_t>(page_rows_), f.rows.data(),
                     f.rows.size());
      pool_->Unpin(fi);
      if (!more) return;
    }
  }

  // Random access for index probes and constraint checks. Holds at most
  // one page pinned (the one containing the last accessed position);
  // returned pointers are valid until the next TryRow on the same cursor.
  class Cursor {
   public:
    explicit Cursor(const TableStore& store) : store_(&store) {}
    ~Cursor() { Release(); }
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    // Null if `pos` names no stored row (past the end, or vanished under
    // an injected storage bug).
    const StoredRow* TryRow(size_t pos);

   private:
    void Release();
    const TableStore* store_;
    int frame_ = -1;
    size_t page_ = 0;
  };

  // A flat copy of the heap in position order, cached per version. For a
  // clean engine the cache makes this as cheap as the old direct vector
  // access (the ground-truth model and join inputs read through it); when
  // a storage bug is armed the copy is rebuilt on every call, because pool
  // activity between calls can change what a read observes.
  const std::vector<StoredRow>& Materialized() const;

 private:
  BufferPool* pool_ = nullptr;       // not owned
  const BugConfig* bugs_ = nullptr;  // not owned; null = clean
  uint32_t table_id_ = 0;
  uint32_t page_rows_ = 64;
  bool paged_ = false;

  std::vector<StoredRow> flat_;  // flat mode storage
  std::deque<DiskPage> disk_;    // paged-mode disk image; deque for stable
                                 // element addresses across growth
  size_t next_page_ = 0;         // intended append target
  size_t next_slot_ = 0;
  size_t row_count_ = 0;
  uint64_t version_ = 0;

  mutable std::vector<StoredRow> scratch_;  // Materialized() cache
  mutable uint64_t scratch_version_ = ~uint64_t{0};
};

}  // namespace minidb
}  // namespace pqs

#endif  // PQS_SRC_MINIDB_STORAGE_H_
