// Enactor scaffolding: the iteration driver every primitive shares
// (Section 4.3: "the enactor serves as the entry point of the graph
// algorithm and specifies the computation as a series of advance and/or
// filter kernel calls").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/advance.hpp"
#include "core/cancel.hpp"
#include "core/filter.hpp"
#include "core/frontier.hpp"
#include "core/options.hpp"
#include "simt/device.hpp"
#include "util/timer.hpp"

namespace grx {

/// Per-BSP-iteration record, for convergence plots and debugging.
struct IterationStats {
  std::uint32_t iteration = 0;        ///< 0-based BSP step (set by record())
  std::uint64_t input_size = 0;       ///< frontier items entering the step
  std::uint64_t output_size = 0;      ///< post-filter frontier items
  std::uint64_t edges_processed = 0;  ///< edges visited (or pull probes)
  bool used_pull = false;             ///< bottom-up direction this step

  bool operator==(const IterationStats&) const = default;
};

/// Result summary returned by every primitive's enact().
struct EnactSummary {
  std::uint32_t iterations = 0;
  std::uint64_t edges_processed = 0;   ///< total over all advances
  double device_time_ms = 0.0;         ///< simulated device time
  double host_wall_ms = 0.0;           ///< wall-clock of the emulation
  simt::DeviceCounters counters;       ///< full device counter snapshot
  std::vector<IterationStats> per_iteration;

  /// Millions of traversed edges per second against simulated time,
  /// computed over |E| like the paper's Table 3 (full-graph traversal).
  double mteps(std::uint64_t num_edges) const {
    if (device_time_ms <= 0.0) return 0.0;
    return static_cast<double>(num_edges) / 1e3 / device_time_ms;
  }
};

class OpContext;

/// Common state for primitive enactors: device, double-buffered frontiers,
/// operator workspaces, iteration log.
class EnactorBase {
 public:
  explicit EnactorBase(simt::Device& dev) : dev_(dev) {}

  simt::Device& device() { return dev_; }

  /// Maximum BSP steps before declaring divergence (safety net; the
  /// paper's primitives all converge to an empty frontier).
  static constexpr std::uint32_t kMaxIterations = 100000;

 protected:
  /// The between-rounds checkpoint every iteration loop calls: fault hook
  /// first (deterministic injection seam), then the typed stop throw
  /// (CancelledError / DeadlineExceededError). `round` is the 0-based
  /// round about to run. Pooled state is left as-is for the next
  /// begin_enact() to reset — a cancelled enactor is immediately reusable
  /// and still allocation-free once warm.
  void check_cancel(std::uint32_t round) const { cancel_.checkpoint(round); }
  /// Generic iteration driver for operator programs (core/program.hpp):
  /// Problem-init, the convergence predicate, the per-iteration safety net,
  /// and iteration logging all live here — a primitive supplies only its
  /// program. Wraps run_program() with begin_enact()/finish_into(), writing
  /// the summary into `out` (capacity-reusing, for pooled result objects).
  /// Defined in core/program.hpp.
  template <typename Prog>
  void enact_program(const Csr& g, Prog& prog, const QueryOptions& opts,
                     EnactSummary& out);

  /// The driver's core loop without begin/finish bracketing, for enactors
  /// that run extra phases around the program (BC's backward sweep) or
  /// account summary totals beyond the per-iteration log (CC, MIS, MST).
  /// Returns the sum of the recorded steps' edges_processed.
  template <typename Prog>
  std::uint64_t run_program(const Csr& g, Prog& prog);
  /// Resets per-enactment state: device counters, the advance workspace's
  /// sticky direction, and the filter history generation (so entries from a
  /// previous enact() on this enactor can never cull vertices from a fresh
  /// traversal), and arms the stop token from `opts.cancel` (sticky until
  /// the next enact; the inert default costs one branch per round). Pooled
  /// buffer capacity is deliberately retained — that is what makes the
  /// steady-state advance/filter loop allocation-free.
  void begin_enact(const QueryOptions& opts) {
    cancel_ = opts.cancel;
    dev_.reset();
    log_.clear();
    advance_ws_.begin_enact();
    filter_ws_.new_generation();
  }

  void record(IterationStats s) {
    s.iteration = static_cast<std::uint32_t>(log_.size());
    log_.push_back(s);
  }

  /// Finishes an enactment into a caller-owned summary: per_iteration is
  /// copy-assigned
  /// (reusing the destination's capacity) and the pooled log keeps its own,
  /// so a reused result object makes the whole enactment allocation-free in
  /// steady state — the Engine's serving path.
  void finish_into(EnactSummary& out, std::uint64_t edges, double wall_ms) {
    out.iterations = static_cast<std::uint32_t>(log_.size());
    out.edges_processed = edges;
    out.counters = dev_.counters();
    out.device_time_ms = out.counters.time_ms();
    out.host_wall_ms = wall_ms;
    out.per_iteration.assign(log_.begin(), log_.end());
    log_.clear();
  }

  simt::Device& dev_;
  CancelToken cancel_;  ///< cooperative stop handle; inert by default
  Frontier in_{FrontierKind::kVertex};
  Frontier out_{FrontierKind::kVertex};
  /// Post-filter staging frontier, pooled across iterations so the BSP loop
  /// never constructs (and so never allocates) a fresh frontier.
  Frontier filtered_{FrontierKind::kVertex};
  AdvanceWorkspace advance_ws_;
  FilterWorkspace filter_ws_;
  std::vector<IterationStats> log_;
};

}  // namespace grx
