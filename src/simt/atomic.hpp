// Host-side atomic helpers mirroring the CUDA intrinsics the paper relies
// on (atomicMin for SSSP relaxation, atomicAdd for PageRank/BC, atomicCAS
// for unique discovery). Built on the verify seam's sched_raw_* wrappers
// (std::atomic_ref underneath) so plain arrays stay plain for the serial
// baselines and vector backends, while -DGRX_MODEL_CHECK builds get a
// scheduling point before every operation.
//
// Memory-order discipline: every helper is relaxed. These atomics race on
// dense per-vertex cells (depths, distances, lane masks) inside one BSP
// round; the frontier assembler's round barrier is the only
// synchronization edge the kernels rely on, and it carries the ordering.
// No kernel publishes a pointer or flag through these cells, so nothing
// here needs acquire/release.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "verify/sched.hpp"

namespace grx::simt {

/// atomicMin(addr, value): returns the previous value.
template <typename T>
T atomic_min(T& target, T value) {
  static_assert(std::is_integral_v<T>);
  // mo: relaxed — monotone min over a data cell; round barrier orders it.
  T cur = verify::sched_raw_load(target, std::memory_order_relaxed);
  while (value < cur && !verify::sched_raw_cas(target, cur, value,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
  }
  return cur;
}

/// atomicAdd(addr, value): returns the previous value.
template <typename T>
T atomic_add(T& target, T value) {
  if constexpr (std::is_integral_v<T>) {
    // mo: relaxed — commutative accumulation; round barrier orders it.
    return verify::sched_raw_fetch_add(target, value,
                                       std::memory_order_relaxed);
  } else {
    // Floating point: CAS loop (CUDA's atomicAdd(float*) in spirit).
    // mo: relaxed — commutative accumulation; round barrier orders it.
    T cur = verify::sched_raw_load(target, std::memory_order_relaxed);
    while (!verify::sched_raw_cas(target, cur, cur + value,
                                  std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
    }
    return cur;
  }
}

/// atomicCAS(addr, expected, desired): returns the value before the op.
template <typename T>
T atomic_cas(T& target, T expected, T desired) {
  // mo: relaxed — claim token in a data cell, not a publication flag; the
  // claimed vertex's payload is only read after the round barrier.
  verify::sched_raw_cas(target, expected, desired, std::memory_order_relaxed,
                        std::memory_order_relaxed);
  return expected;  // compare_exchange updates `expected` to the old value.
}

/// atomicOr(addr, value): returns the previous value. The lane-mask update
/// of the batched traversal kernels: OR is commutative and idempotent, so
/// concurrent edge visits compose to the same word regardless of order.
template <typename T>
T atomic_fetch_or(T& target, T value) {
  static_assert(std::is_integral_v<T>);
  // mo: relaxed — commutative mask merge; round barrier orders it.
  return verify::sched_raw_fetch_or(target, value, std::memory_order_relaxed);
}

/// atomicExch(addr, value): returns the previous value.
template <typename T>
T atomic_exchange(T& target, T value) {
  // mo: relaxed — value swap on a data cell; round barrier orders it.
  return verify::sched_raw_exchange(target, value, std::memory_order_relaxed);
}

template <typename T>
T atomic_load(const T& target) {
  // mo: relaxed — racy read of a data cell; staleness is benign (retry or
  // round barrier re-reads).
  return verify::sched_raw_load(target, std::memory_order_relaxed);
}

template <typename T>
void atomic_store(T& target, T value) {
  // mo: relaxed — data-cell write made visible by the round barrier.
  verify::sched_raw_store(target, value, std::memory_order_relaxed);
}

/// atomic_store for a flag many lanes raise in one round (CC's "a hook
/// moved a label"): stores only when a relaxed load reads another value.
/// A store on every hit takes the flag's cache line exclusive each time,
/// serializing all threads on that one line; loads share it once set.
/// Every writer stores the same value, so the flag ends the same.
template <typename T>
void atomic_store_if_differs(T& target, T value) {
  // mo: relaxed — as atomic_store; the load only skips a redundant write.
  if (verify::sched_raw_load(target, std::memory_order_relaxed) != value)
    verify::sched_raw_store(target, value, std::memory_order_relaxed);
}

}  // namespace grx::simt
