// Connected components (Section 5.4): Soman et al.'s hooking +
// pointer-jumping, expressed as Gunrock filters — hooking as a filter on an
// edge frontier (edges whose endpoints agree are removed), pointer-jumping
// as a filter on a vertex frontier (vertices whose label is a root are
// removed).
#pragma once

#include <span>

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct CcResult {
  std::vector<VertexId> component;  ///< canonical: min vertex id in component
  std::uint32_t num_components = 0;
  EnactSummary summary;
};

/// The flat edge list CC hooks over: one direction (`v < u`) per undirected
/// edge, in row-major order, so an edge's id is its rank in that walk. It
/// depends on the graph alone, so the Engine builds it at the first CC
/// after a bind and keeps it until rebind, as it does the transpose.
struct CcHookList {
  std::vector<std::uint32_t> src, dst;
};

/// Rebuilds `out` from `g` in place (count, scan, scatter over the rows).
void build_cc_hook_list(const Csr& g, CcHookList& out);

/// Per-graph persistent CC state (the Problem): component labels plus a
/// view of the caller's hook list. The labels are pooled across
/// enactments, so repeated queries allocate nothing in steady state.
struct CcProblem {
  std::vector<VertexId> comp;               // component label per vertex
  std::span<const std::uint32_t> edge_src;  // the bound graph's hook list
  std::span<const std::uint32_t> edge_dst;
  std::uint32_t changed = 0;                // hooking progress flag (atomic)

  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return {edge_src[e], edge_dst[e]};
  }
};

/// Persistent CC enactor with pooled Problem and edge/vertex frontiers.
class CcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// `hooks` must be build_cc_hook_list(g). Reads only `opts.cancel`.
  void enact(const Csr& g, const CcHookList& hooks, const QueryOptions& opts,
             CcResult& out);

 private:
  CcProblem problem_;
  // Pooled hook/compress frontiers (edge frontier + pointer-jump vertex
  // frontier, double-buffered).
  std::vector<std::uint32_t> edge_frontier_, next_edges_;
  std::vector<std::uint32_t> vf_, nvf_;
};

}  // namespace grx
