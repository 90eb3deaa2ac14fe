// Greedy graph coloring — third in Section 5.5's list of primitives under
// active development in Gunrock.
//
// Jones-Plassmann: each round, every uncolored vertex whose random
// priority beats all uncolored neighbors takes the smallest color absent
// from its already-colored neighborhood, then leaves the frontier (a
// filter). Produces at most maxdegree+1 colors in O(log n) expected
// rounds — independent rounds are exactly MIS rounds, so this shares the
// frontier/filter machinery.
#pragma once

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct ColoringResult {
  std::vector<std::uint32_t> color;  ///< per-vertex color, 0-based
  std::uint32_t num_colors = 0;
  EnactSummary summary;
};

/// Per-graph persistent coloring state (the Problem), pooled.
struct ColorProblem {
  std::vector<std::uint32_t> color;     // kInfinity while undecided
  std::vector<std::uint64_t> priority;  // per-round draw
  std::uint64_t seed = 0;
  std::uint32_t round = 0;
};

/// Persistent Jones-Plassmann enactor with a pooled Problem.
class ColoringEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Priorities are drawn from `opts.seed`.
  void enact(const Csr& g, const QueryOptions& opts, ColoringResult& out);

 private:
  ColorProblem problem_;
};

}  // namespace grx
