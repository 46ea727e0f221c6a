#include "src/minidb/buffer_pool.h"

#include "src/obs/telemetry.h"

namespace pqs {
namespace minidb {

bool HasStorageBug(const BugConfig& bugs) {
  return bugs.enabled(BugId::kEvictDropsDirtyPage) ||
         bugs.enabled(BugId::kPageSplitRowLoss) ||
         bugs.enabled(BugId::kStalePageReadAfterUpdate) ||
         bugs.enabled(BugId::kIndexHeapDesync);
}

BufferPool::BufferPool(uint32_t frames, uint64_t seed, const BugConfig* bugs)
    : bugs_(bugs) {
  // A fetch can nest (batch scan holding one page while a constraint check
  // or an Overwrite pins another), so the pool refuses to run with fewer
  // than 4 frames regardless of how tight the stress configuration is.
  if (frames < 4) frames = 4;
  frames_.resize(frames);
  // splitmix64 finalizer: the hand start depends only on the seed, never
  // on addresses or time, so eviction order is a pure function of
  // (seed, access sequence).
  uint64_t z = seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  configured_frames_ = frames;
  initial_hand_ = static_cast<size_t>(z % frames);
  hand_ = initial_hand_;
}

void BufferPool::Reset() {
  frames_.assign(configured_frames_, Frame());
  hand_ = initial_hand_;
}

int BufferPool::FindFrame(uint32_t table, uint32_t page) const {
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.in_use && f.table == table && f.page == page) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int BufferPool::PickVictim() {
  // Classic clock: sweep from the hand; a set reference bit buys the frame
  // one more lap. Two laps guarantee either a victim or proof that every
  // frame is pinned.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    size_t i = hand_;
    hand_ = (hand_ + 1) % n;
    Frame& f = frames_[i];
    if (!f.in_use) return static_cast<int>(i);
    if (f.pins > 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    return static_cast<int>(i);
  }
  return -1;
}

void BufferPool::EvictFrame(int index) {
  Frame& f = frames_[index];
  if (!f.in_use) return;
  obs::Count(obs::Counter::kPoolEvictions);
  obs::Emit(obs::EventKind::kEviction, f.table, f.page);
  if (f.dirty) {
    // kEvictDropsDirtyPage: the write-back is skipped, so everything
    // modified since the page was loaded silently reverts to the disk
    // image the next time the page is fetched.
    if (bugs_ != nullptr && bugs_->enabled(BugId::kEvictDropsDirtyPage)) {
      // drop the frame content on the floor
    } else {
      f.backing->rows = f.rows;
      obs::Count(obs::Counter::kPoolWritebacks);
    }
  }
  f.in_use = false;
  f.dirty = false;
  f.update_dirtied = false;
  f.ref = false;
  f.backing = nullptr;
  f.rows.clear();
}

int BufferPool::Fetch(uint32_t table, uint32_t page, DiskPage* disk,
                      Intent intent) {
  int idx = FindFrame(table, page);
  if (idx >= 0) {
    obs::Count(obs::Counter::kPoolHits);
    Frame& f = frames_[idx];
    // kStalePageReadAfterUpdate: a read hit on a frame dirtied by UPDATE
    // "revalidates" it from disk, discarding the in-frame modifications —
    // subsequent reads observe the pre-update rows.
    if (intent == Intent::kRead && f.update_dirtied && f.dirty &&
        bugs_ != nullptr &&
        bugs_->enabled(BugId::kStalePageReadAfterUpdate)) {
      f.rows = f.backing->rows;
      f.dirty = false;
      f.update_dirtied = false;
    }
    f.ref = true;
    ++f.pins;
    if (intent != Intent::kRead) {
      f.dirty = true;
      if (intent == Intent::kUpdate) f.update_dirtied = true;
    }
    return idx;
  }

  obs::Count(obs::Counter::kPoolMisses);
  idx = PickVictim();
  if (idx < 0) {
    // Every frame is pinned (deeply nested access on a tiny pool): grow by
    // one emergency frame rather than deadlock. The growth is itself
    // deterministic — it depends only on the access sequence.
    frames_.emplace_back();
    idx = static_cast<int>(frames_.size() - 1);
  } else {
    EvictFrame(idx);
  }

  Frame& f = frames_[idx];
  f.in_use = true;
  f.table = table;
  f.page = page;
  f.backing = disk;
  f.rows = disk->rows;  // copy-on-load; the frame is the working copy
  f.dirty = intent != Intent::kRead;
  f.update_dirtied = intent == Intent::kUpdate;
  f.ref = true;
  f.pins = 1;
  return idx;
}

void BufferPool::Unpin(int frame_index) {
  Frame& f = frames_[frame_index];
  if (f.pins > 0) --f.pins;
}

void BufferPool::DiscardTable(uint32_t table) {
  uint32_t dropped = 0;
  for (Frame& f : frames_) {
    if (f.in_use && f.table == table) {
      ++dropped;
      f.in_use = false;
      f.dirty = false;
      f.update_dirtied = false;
      f.ref = false;
      f.pins = 0;
      f.backing = nullptr;
      f.rows.clear();
    }
  }
  // A wholesale discard is a cache invalidation: every cached frame of the
  // table is dropped without write-back (the disk image was rewritten).
  if (dropped > 0) {
    obs::Count(obs::Counter::kCacheInvalidations);
    obs::Emit(obs::EventKind::kCacheInvalidation, dropped);
  }
}

int BufferPool::pinned_frames() const {
  int n = 0;
  for (const Frame& f : frames_) {
    if (f.in_use && f.pins > 0) ++n;
  }
  return n;
}

}  // namespace minidb
}  // namespace pqs
