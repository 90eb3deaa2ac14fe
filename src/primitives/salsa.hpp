// SALSA (Stochastic Approach for Link-Structure Analysis) — the second of
// the three bipartite node-ranking algorithms from Section 5.5 ("WTF,
// GPU!"), and the paper's own yardstick for programmability: "users only
// need to write from 133 (simple primitive, BFS) to 261 (complex
// primitive, SALSA) lines of code."
//
// SALSA performs a two-sided random walk: authority mass moves backward
// across an edge and is split by the *source's* out-degree; hub mass moves
// forward and is split by the *target's* in-degree. Both updates are
// degree-normalized neighborhood sums — gather-reduce operators, like
// HITS, but normalized by the far endpoint's degree.
#pragma once

#include "core/enactor.hpp"
#include "core/neighbor_reduce.hpp"
#include "graph/csr.hpp"

namespace grx {

struct SalsaResult {
  std::vector<double> hub;        ///< L1-normalized hub scores
  std::vector<double> authority;  ///< L1-normalized authority scores
  EnactSummary summary;
};

/// Per-graph persistent SALSA state (the Problem), pooled.
struct SalsaProblem {
  const Csr* g = nullptr;   // forward edges
  const Csr* gT = nullptr;  // reverse edges
  std::vector<double> hub;
  std::vector<double> auth;
  WholeGatherPlan in_plan;   // authority sweep, over gT
  WholeGatherPlan out_plan;  // hub sweep, over g
};

/// Persistent SALSA enactor with pooled Problem and gather-reduce scratch.
/// enact() runs on directed `g` with transpose `gT` (the same graph for
/// undirected inputs). Vertices with no out-edges have hub score 0; with
/// no in-edges, authority 0.
class SalsaEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
             SalsaResult& out);

 private:
  SalsaProblem problem_;
  std::vector<double> scratch_;  // gather-reduce staging, pooled
};

}  // namespace grx
