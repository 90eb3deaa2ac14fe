// Process-wide heap-allocation probe — the reusable fixture behind every
// zero-steady-state-allocation proof (tests/test_engine.cpp's warm-Engine
// contract, bench/bench_micro.cpp's allocs-per-run column).
//
// The counter is bumped by REPLACED global operator new/delete, so it sees
// every allocation in the binary including libgrx's — the contract is
// asserted against the real allocator, not inferred from timings.
//
// Usage: exactly ONE translation unit per binary defines
// GRX_ALLOC_PROBE_IMPLEMENT before including this header (directly or via
// test_common.hpp); that TU emits the operator new/delete replacements.
// Every other includer just sees the counter helpers. With no implementing
// TU in the binary the helpers read a counter nothing increments — define
// the macro or the proof proves nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

namespace grx::testing {

inline std::atomic<std::uint64_t> g_alloc_count{0};

inline std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Counts heap allocations performed by `fn` (keep EXPECTs outside: gtest
/// assertions allocate and would pollute the count).
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = alloc_count();
  std::forward<Fn>(fn)();
  return alloc_count() - before;
}

namespace alloc_detail {

inline void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

inline void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_detail
}  // namespace grx::testing

#ifdef GRX_ALLOC_PROBE_IMPLEMENT
// Global replacements: deliberately non-inline, hence the one-TU contract.
void* operator new(std::size_t n) {
  return grx::testing::alloc_detail::counted_alloc(n);
}
void* operator new[](std::size_t n) {
  return grx::testing::alloc_detail::counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return grx::testing::alloc_detail::counted_alloc_aligned(
      n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return grx::testing::alloc_detail::counted_alloc_aligned(
      n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
// The sized aligned forms too: left to the runtime, they would free our
// posix_memalign blocks through its own aligned path (ASan reports an
// alloc-dealloc mismatch when an AlignedAllocator buffer is released).
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // GRX_ALLOC_PROBE_IMPLEMENT
