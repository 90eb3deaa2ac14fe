// PageRank (Section 5.5) as a gather over in-edges: the frontier starts as
// all vertices; each iteration is one neighbor_reduce (every frontier
// vertex sums its in-neighbors' contributions rank/outdeg, no atomics),
// one fused compute (rank update, convergence test, and the contribution
// the next gather reads — Section 4.3's fusion), and one filter (drop
// vertices whose rank has converged). The gather's fold order depends on
// the frontier alone, so ranks are byte-identical across thread counts.
//
// An iteration pays only for work that changes: while the frontier is
// every vertex (always at epsilon 0, and until the first prune otherwise)
// the gather takes neighbor_reduce_all, whose mapping and chunk starts are
// planned once per enact from the transpose's row offsets; the dangling
// vertices are listed once per enact; and at epsilon 0, where nothing can
// converge, no prune filter runs. Each of these yields the same bytes as
// its per-iteration form.
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "core/neighbor_reduce.hpp"
#include "graph/csr.hpp"

namespace grx {

struct PagerankResult {
  std::vector<double> rank;  ///< sums to 1 over all vertices
  EnactSummary summary;
};

// Pull formulation: `contrib[u]` is u's last rank divided by its
// out-degree; an iteration gathers it over the in-edges of every frontier
// vertex into `gathered` (aligned with the frontier). When the filter
// prunes a converged vertex (Section 5.5), its rank and contribution
// freeze, and its in-neighbors keep reading the frozen contribution, so
// the pruning error is bounded by epsilon rather than by the vertex's
// whole rank.
struct PrProblem {
  std::vector<double> rank;
  std::vector<double> contrib;   // rank / out-degree (0 when dangling)
  std::vector<double> gathered;  // per frontier item, pooled
  std::vector<std::uint8_t> converged;
  std::vector<VertexId> dangling;  // out-degree 0, in vertex order
  WholeGatherPlan plan;            // whole-range gather over the transpose
  double epsilon = 0.0;
};

/// Persistent PageRank enactor with a pooled Problem; repeated enactments
/// on one graph allocate nothing in steady state with a reused result.
class PrEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Ranks over out-edges `g`, gathering over `gT`, g's transpose (pass
  /// `g` itself for a symmetric graph), as HitsEnactor does.
  void enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
             PagerankResult& out);

 private:
  PrProblem problem_;
};

}  // namespace grx
