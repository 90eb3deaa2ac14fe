// Maximal independent set — one of the primitives Section 5.5 lists as
// under active development in Gunrock ("minimal spanning tree, maximal
// independent set, graph coloring, ...").
//
// Luby-style: every undecided vertex draws a per-round random priority; a
// vertex joins the set iff its priority beats all undecided neighbors
// (a neighbor_reduce max), then it and its neighbors leave the frontier
// (a filter). Runs in O(log n) BSP rounds with high probability.
#pragma once

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct MisResult {
  std::vector<std::uint8_t> in_set;  ///< 1 iff vertex is in the MIS
  std::uint32_t set_size = 0;
  EnactSummary summary;
};

/// Per-graph persistent MIS state (the Problem), pooled.
struct MisProblem {
  std::vector<std::uint8_t> state;      // kUndecided/kInSet/kExcluded
  std::vector<std::uint64_t> priority;  // per-round random draw
  std::uint64_t seed = 0;
  std::uint32_t round = 0;
};

/// Persistent Luby MIS enactor with a pooled Problem and gather-reduce
/// scratch.
class MisEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Priorities are drawn from `opts.seed`.
  void enact(const Csr& g, const QueryOptions& opts, MisResult& out);

 private:
  MisProblem problem_;
  std::vector<std::uint64_t> nbr_max_;  // gather-reduce output, pooled
};

}  // namespace grx
