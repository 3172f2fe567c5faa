/// Counts every global operator-new call in the benchmark process, so the
/// benchmark can report heap allocations per message (expected 0 on the
/// steady-state eager path). The counter is one relaxed increment per
/// allocation; deallocation is plain free().

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t n, std::size_t align = 0) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

void* counted_or_throw(std::size_t n, std::size_t align = 0) {
  if (void* p = counted(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

std::uint64_t hostbench::heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
