// HITS (Hyperlink-Induced Topic Search) — one of the three bipartite
// node-ranking algorithms Section 5.5 describes being built on Gunrock's
// advance operator ("WTF, GPU! Computing Twitter's who-to-follow", Geil
// et al.): hub and authority scores via alternating neighborhood sums.
//
// Expressed with the gather-reduce extension operator (neighbor_reduce):
// each iteration is two reduction sweeps plus a normalization compute —
// no atomics, exactly the pattern the Section-7 "global, neighborhood,
// and sampling operations" paragraph motivates.
#pragma once

#include "core/enactor.hpp"
#include "core/neighbor_reduce.hpp"
#include "graph/csr.hpp"

namespace grx {

struct HitsResult {
  std::vector<double> hub;        ///< L2-normalized hub scores
  std::vector<double> authority;  ///< L2-normalized authority scores
  EnactSummary summary;
};

/// Per-graph persistent HITS state (the Problem), pooled.
struct HitsProblem {
  std::vector<double> hub;
  std::vector<double> auth;
  WholeGatherPlan in_plan;   // authority sweep, over the transpose
  WholeGatherPlan out_plan;  // hub sweep, over the graph
};

/// Persistent HITS enactor with pooled Problem and gather-reduce scratch.
/// enact() runs on `g` (directed or undirected CSR) with `gT` its
/// transpose — the same graph for undirected inputs.
class HitsEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
             HitsResult& out);

 private:
  HitsProblem problem_;
  std::vector<double> scratch_;  // gather-reduce staging, pooled
};

}  // namespace grx
