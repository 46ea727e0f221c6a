// Pooled fixed-size node allocator.
//
// NodePool is a freelist of fixed-size slots carved from slabs that are
// intentionally never freed, fronted by a thread-local cache (DESIGN §11).
// Expr's class-level operator new/delete route through it
// (src/sqlast/ast.cc), which removes the per-node heap round trip on the
// generate / clone / rectify / reduce path. Slots freed on any thread go
// onto that thread's cache; a thread donates its cache to the global pool
// on exit, and new threads adopt from the pool. Because slabs are immortal,
// a node allocated on a worker and destroyed on the main thread (findings
// moved across the shard merge) is always safe.
#ifndef PQS_SRC_COMMON_ARENA_H_
#define PQS_SRC_COMMON_ARENA_H_

#include <cstddef>
#include <mutex>
#include <new>

namespace pqs {

// Freelist pool for one fixed slot size (every caller must pass the same
// size — Expr nodes are the one client). All shared state is behind a leaky
// singleton so donation at thread exit never races static destruction.
class NodePool {
 public:
  // Pops a slot from the calling thread's cache, refilling from the global
  // pool or a fresh slab when empty.
  static void* Take(size_t slot_size) {
    ThreadCache& tc = cache();
    if (tc.head == nullptr) Refill(&tc, slot_size);
    FreeNode* n = tc.head;
    tc.head = n->next;
    --tc.count;
    return n;
  }

  // Pushes a slot onto the calling thread's cache.
  static void Put(void* p) {
    ThreadCache& tc = cache();
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = tc.head;
    tc.head = n;
    ++tc.count;
  }

  // Telemetry for tests.
  static size_t ThreadCacheSize() { return cache().count; }
  static size_t SlabsAllocated() {
    Global* g = global();
    std::lock_guard<std::mutex> lock(g->mu);
    return g->slabs;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Global {
    std::mutex mu;
    FreeNode* head = nullptr;
    size_t count = 0;
    size_t slabs = 0;
  };
  struct ThreadCache {
    FreeNode* head = nullptr;
    size_t count = 0;
    // Donates the remaining freelist to the global pool at thread exit, so
    // slots allocated by short-lived workers keep circulating.
    ~ThreadCache() {
      if (head == nullptr) return;
      FreeNode* tail = head;
      while (tail->next != nullptr) tail = tail->next;
      Global* g = global();
      std::lock_guard<std::mutex> lock(g->mu);
      tail->next = g->head;
      g->head = head;
      g->count += count;
    }
  };

  static void Refill(ThreadCache* tc, size_t slot_size) {
    Global* g = global();
    {
      std::lock_guard<std::mutex> lock(g->mu);
      if (g->head != nullptr) {  // adopt everything previously donated
        tc->head = g->head;
        tc->count = g->count;
        g->head = nullptr;
        g->count = 0;
        return;
      }
      ++g->slabs;
    }
    // Fresh slab, intentionally immortal (see file comment): slots may be
    // freed from any thread at any time, so the backing memory can never
    // be returned safely — bounded by the peak live node count.
    constexpr size_t kSlabSlots = 256;
    size_t slot = slot_size < sizeof(FreeNode) ? sizeof(FreeNode) : slot_size;
    char* slab = static_cast<char*>(::operator new(slot * kSlabSlots));
    for (size_t i = 0; i < kSlabSlots; ++i) Put(slab + i * slot);
  }

  static Global* global() {
    static Global* g = new Global;  // leaked: outlives every thread cache
    return g;
  }
  static ThreadCache& cache() {
    static thread_local ThreadCache tc;
    return tc;
  }
};

}  // namespace pqs

#endif  // PQS_SRC_COMMON_ARENA_H_
