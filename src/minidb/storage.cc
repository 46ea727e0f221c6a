#include "src/minidb/storage.h"

#include <utility>

namespace pqs {
namespace minidb {

void TableStore::Configure(BufferPool* pool, uint32_t table_id,
                           const StorageOptions* opts,
                           const BugConfig* bugs) {
  pool_ = pool;
  table_id_ = table_id;
  bugs_ = bugs;
  paged_ = opts->paged;
  page_rows_ = opts->page_rows == 0 ? 1 : opts->page_rows;
}

size_t TableStore::Append(StoredRow row) {
  ++version_;
  if (!paged_) {
    flat_.push_back(std::move(row));
    ++row_count_;
    return flat_.size() - 1;
  }
  if (disk_.empty() || next_slot_ == page_rows_) {
    // Allocate a fresh tail page. When the heap already has pages this
    // models a page split, and kPageSplitRowLoss makes the split lose the
    // last row of the page that just filled up.
    if (!disk_.empty() && bugs_ != nullptr &&
        bugs_->enabled(BugId::kPageSplitRowLoss)) {
      int fi = pool_->Fetch(table_id_, static_cast<uint32_t>(next_page_),
                            &disk_[next_page_], BufferPool::Intent::kWrite);
      BufferPool::Frame& f = pool_->frame(fi);
      if (!f.rows.empty()) f.rows.pop_back();
      pool_->Unpin(fi);
    }
    disk_.emplace_back();
    next_page_ = disk_.size() - 1;
    next_slot_ = 0;
  }
  size_t pos = next_page_ * static_cast<size_t>(page_rows_) + next_slot_;
  int fi = pool_->Fetch(table_id_, static_cast<uint32_t>(next_page_),
                        &disk_[next_page_], BufferPool::Intent::kWrite);
  pool_->frame(fi).rows.push_back(std::move(row));
  pool_->Unpin(fi);
  ++next_slot_;
  ++row_count_;
  return pos;
}

void TableStore::Overwrite(size_t pos, StoredRow row) {
  ++version_;
  if (!paged_) {
    if (pos < flat_.size()) flat_[pos] = std::move(row);
    return;
  }
  size_t page = pos / page_rows_;
  size_t slot = pos % page_rows_;
  if (page >= disk_.size()) return;
  int fi = pool_->Fetch(table_id_, static_cast<uint32_t>(page), &disk_[page],
                        BufferPool::Intent::kUpdate);
  BufferPool::Frame& f = pool_->frame(fi);
  if (slot < f.rows.size()) f.rows[slot] = std::move(row);
  pool_->Unpin(fi);
}

void TableStore::ReplaceAll(std::vector<StoredRow> rows) {
  ++version_;
  if (!paged_) {
    flat_ = std::move(rows);
    row_count_ = flat_.size();
    return;
  }
  // The old disk image is dead wholesale: frames caching it must be
  // forgotten (not written back) before their backing pointers dangle.
  pool_->DiscardTable(table_id_);
  disk_.clear();
  next_page_ = 0;
  next_slot_ = 0;
  row_count_ = rows.size();
  size_t i = 0;
  while (i < rows.size()) {
    disk_.emplace_back();
    DiskPage& page = disk_.back();
    for (size_t s = 0; s < page_rows_ && i < rows.size(); ++s, ++i) {
      page.rows.push_back(std::move(rows[i]));
    }
  }
  if (disk_.empty()) disk_.emplace_back();
  next_page_ = disk_.size() - 1;
  next_slot_ = disk_.back().rows.size();
}

const StoredRow* TableStore::Cursor::TryRow(size_t pos) {
  const TableStore& s = *store_;
  if (!s.paged_) {
    return pos < s.flat_.size() ? &s.flat_[pos] : nullptr;
  }
  size_t page = pos / s.page_rows_;
  size_t slot = pos % s.page_rows_;
  if (page >= s.disk_.size()) return nullptr;
  if (frame_ < 0 || page_ != page) {
    Release();
    frame_ = s.pool_->Fetch(s.table_id_, static_cast<uint32_t>(page),
                            const_cast<DiskPage*>(&s.disk_[page]),
                            BufferPool::Intent::kRead);
    page_ = page;
  }
  const BufferPool::Frame& f = s.pool_->frame(frame_);
  return slot < f.rows.size() ? &f.rows[slot] : nullptr;
}

void TableStore::Cursor::Release() {
  if (frame_ >= 0) {
    store_->pool_->Unpin(frame_);
    frame_ = -1;
  }
}

const std::vector<StoredRow>& TableStore::Materialized() const {
  if (!paged_) return flat_;
  bool cacheable = bugs_ == nullptr || !HasStorageBug(*bugs_);
  if (cacheable && scratch_version_ == version_) return scratch_;
  // Refill the previous copy in place: assigning over its rows and cells
  // reuses their capacity, so a rebuild after a small change allocates
  // next to nothing.
  scratch_.reserve(row_count_);
  size_t filled = 0;
  ForEachBatch([this, &filled](size_t, const StoredRow* rows, size_t n) {
    for (size_t i = 0; i < n; ++i, ++filled) {
      if (filled < scratch_.size()) {
        scratch_[filled] = rows[i];
      } else {
        scratch_.push_back(rows[i]);
      }
    }
    return true;
  });
  scratch_.resize(filled);
  scratch_version_ = cacheable ? version_ : ~uint64_t{0};
  return scratch_;
}

}  // namespace minidb
}  // namespace pqs
