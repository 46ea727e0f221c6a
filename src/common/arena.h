// Pooled small-block allocator.
//
// NodePool serves blocks in 16-byte size classes up to ~1 KiB, carved from
// 64 KiB slabs that are intentionally never freed, fronted by a per-thread
// cache (DESIGN §11). Two clients share it: Expr's class-level operator
// new/delete (src/sqlast/ast.cc), which removes the per-node heap round
// trip on the generate / clone / rectify / reduce path, and libsqlite3's
// heap (SqliteHeap in src/sqlite3db), whose parse trees and VDBE programs
// are thousands of small allocations per session. Blocks freed on any
// thread go onto that thread's cache; a thread donates its caches to the
// global pool on exit, and a thread whose class runs dry adopts from the
// pool. Because slabs are immortal, a block allocated on a worker and
// freed on the main thread (findings moved across the shard merge) is
// always safe.
#ifndef PQS_SRC_COMMON_ARENA_H_
#define PQS_SRC_COMMON_ARENA_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

namespace pqs {

// Size-classed freelist pool. A block must be returned with a size in the
// same class it was taken with. All shared state is behind a leaky
// singleton, so donation at thread exit never races static destruction and
// every slab stays reachable (leak checkers see no lost memory).
class NodePool {
 public:
  static constexpr size_t kGranule = 16;  // class step and block alignment
  // Largest class: a 1 KiB payload behind SqliteHeap's 16-byte header.
  // 1 KiB is among SQLite's most frequent request sizes (about one in
  // twenty of its allocations in a PQS session).
  static constexpr size_t kMaxBlock = 1024 + 16;
  static constexpr size_t kClasses = kMaxBlock / kGranule;
  static constexpr size_t kSlabBytes = 64 * 1024;

  // Class of a request of `size` bytes (1 <= size <= kMaxBlock).
  static constexpr size_t ClassOf(size_t size) {
    return size == 0 ? 0 : (size - 1) / kGranule;
  }
  // Block bytes of class `cls`: the usable size of every block in it.
  static constexpr size_t ClassBytes(size_t cls) {
    return (cls + 1) * kGranule;
  }

  // Returns a 16-byte-aligned block of ClassBytes(ClassOf(size)) bytes:
  // pops the calling thread's freelist for the class, else carves the
  // thread's current slab, else adopts from the global pool or a new slab.
  static void* Take(size_t size) {
    size_t cls = ClassOf(size);
    ClassCache& cc = cache().classes[cls];
    if (FreeNode* n = cc.head) {
      cc.head = n->next;
      return n;
    }
    if (cc.bump != cc.bump_end) {
      char* p = cc.bump;
      cc.bump += ClassBytes(cls);
      return p;
    }
    return Refill(cls);
  }

  // Pushes a block onto the calling thread's freelist for its class.
  static void Put(void* p, size_t size) {
    ThreadCache& tc = cache();
    if (!tc.registered) Register(&tc);
    ClassCache& cc = tc.classes[ClassOf(size)];
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = cc.head;
    cc.head = n;
  }

  // Telemetry for tests: freed blocks cached on this thread for `size`'s
  // class, and slabs carved so far by all threads.
  static size_t ThreadCacheBlocks(size_t size) {
    size_t n = 0;
    for (FreeNode* f = cache().classes[ClassOf(size)].head; f != nullptr;
         f = f->next) {
      ++n;
    }
    return n;
  }
  static size_t SlabsAllocated() {
    Global* g = global();
    std::lock_guard<std::mutex> lock(g->mu);
    return g->slabs.size();
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  // One class on one thread: recycled blocks, then the uncarved tail of
  // the slab the thread last took for this class (pages are touched only
  // as blocks are handed out).
  struct ClassCache {
    FreeNode* head;
    char* bump;
    char* bump_end;
  };
  // Trivially destructible, so it stays usable while the thread tears down
  // its other thread_locals; Reaper's destructor does the donation.
  struct ThreadCache {
    ClassCache classes[kClasses];
    bool registered;
  };
  // An uncarved slab tail a thread donated, described in its own first
  // block so the rest of its pages stay untouched.
  struct Region {
    Region* next;
    char* end;
  };
  struct Global {
    std::mutex mu;
    FreeNode* heads[kClasses] = {};  // donated blocks, per class
    Region* regions[kClasses] = {};  // donated slab tails, per class
    std::vector<char*> slabs;        // every slab ever carved
  };
  // Donates the thread's blocks and slab tails to the global pool at
  // thread exit, so memory taken by short-lived workers keeps circulating.
  // Blocks freed on this thread after the donation stay in its (dead)
  // cache: still reachable through the slab list, just no longer reused.
  struct Reaper {
    ~Reaper() {
      ThreadCache& tc = cache();
      Global* g = global();
      for (size_t cls = 0; cls < kClasses; ++cls) {
        ClassCache& cc = tc.classes[cls];
        FreeNode* tail = cc.head;
        while (tail != nullptr && tail->next != nullptr) tail = tail->next;
        std::lock_guard<std::mutex> lock(g->mu);
        if (tail != nullptr) {
          tail->next = g->heads[cls];
          g->heads[cls] = cc.head;
        }
        if (cc.bump != cc.bump_end) {
          Region* r = reinterpret_cast<Region*>(cc.bump);
          r->next = g->regions[cls];
          r->end = cc.bump_end;
          g->regions[cls] = r;
        }
        cc = ClassCache{};
      }
    }
  };

  static void Register(ThreadCache* tc) {
    static thread_local Reaper reaper;  // first use registers its destructor
    (void)reaper;
    tc->registered = true;
  }

  // Slow path of Take for class `cls`: adopt every donated block of the
  // class, else a donated slab tail, else carve a fresh slab (immortal:
  // see file comment — bounded by the peak live block count per class).
  static void* Refill(size_t cls) {
    ThreadCache& tc = cache();
    if (!tc.registered) Register(&tc);
    ClassCache& cc = tc.classes[cls];
    size_t bytes = ClassBytes(cls);
    Global* g = global();
    {
      std::lock_guard<std::mutex> lock(g->mu);
      if (FreeNode* n = g->heads[cls]) {
        g->heads[cls] = nullptr;
        cc.head = n->next;
        return n;
      }
      if (Region* r = g->regions[cls]) {
        g->regions[cls] = r->next;
        cc.bump = reinterpret_cast<char*>(r) + bytes;
        cc.bump_end = r->end;
        return r;
      }
    }
    char* slab = NewSlab();
    {
      std::lock_guard<std::mutex> lock(g->mu);
      g->slabs.push_back(slab);
    }
    cc.bump = slab + bytes;
    cc.bump_end = slab + (kSlabBytes / bytes) * bytes;
    return slab;
  }

  // A slab from the general heap (so leak checkers scan it like any other
  // allocation). The heap may hand back memory it already touched; the
  // slab's whole pages are released to the kernel, so it becomes resident
  // only as its blocks are carved rather than pinning that memory.
  static char* NewSlab() {
    char* slab = static_cast<char*>(::operator new(kSlabBytes));
    static const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    uintptr_t start = reinterpret_cast<uintptr_t>(slab);
    uintptr_t lo = (start + page - 1) & ~(page - 1);
    uintptr_t hi = (start + kSlabBytes) & ~(page - 1);
    if (lo < hi) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
    return slab;
  }

  static Global* global() {
    static Global* g = new Global;  // leaked: outlives every thread cache
    return g;
  }
  static ThreadCache& cache() {
    static thread_local ThreadCache tc;  // zero-initialized
    return tc;
  }
};

}  // namespace pqs

#endif  // PQS_SRC_COMMON_ARENA_H_
