// Per-OpenMP-thread scratch buffers for lock-free output collection inside
// parallel kernels (the host-side analog of a GPU's per-CTA staging +
// final scatter).
//
// Note: the core operators (advance/filter/split_near_far/sample) no
// longer use this — they emit through the two-phase count/scan/scatter
// assembler (simt::ChunkedOutput), which is allocation-free in steady state
// and produces deterministic output order. PerThread remains for the
// baseline engines, whose published designs have unordered output queues.
#pragma once

#include <omp.h>

#include <vector>

namespace grx {

template <typename T>
class PerThread {
 public:
  PerThread() : slots_(static_cast<std::size_t>(omp_get_max_threads())) {}

  T& local() { return slots_[static_cast<std::size_t>(omp_get_thread_num())]; }

  /// Concatenates all per-thread vectors into `out` (order across threads is
  /// unspecified, matching the unordered scatter of a GPU kernel).
  template <typename U>
  void drain_into(std::vector<U>& out) {
    std::size_t total = out.size();
    for (const auto& s : slots_) total += s.size();
    out.reserve(total);
    for (auto& s : slots_) {
      out.insert(out.end(), s.begin(), s.end());
      s.clear();
    }
  }

  std::vector<T>& slots() { return slots_; }

 private:
  std::vector<T> slots_;
};

}  // namespace grx
