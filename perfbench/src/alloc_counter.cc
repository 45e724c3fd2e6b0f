// Linked into the traced binary only: replaces the global allocation
// functions with counting versions, so the traced run can report heap
// allocations per training step. The timed binary links alloc_stub.cc
// instead and keeps the standard allocator untouched.

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_count{0};
std::atomic<int64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

bool AllocCountingAvailable() { return true; }

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_count.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
