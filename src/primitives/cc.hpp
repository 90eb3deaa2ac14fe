// Connected components (Section 5.4): Soman et al.'s hooking +
// pointer-jumping, expressed as Gunrock filters — hooking as a filter on an
// edge frontier (edges whose endpoints agree are removed), pointer-jumping
// as a filter on a vertex frontier (vertices whose label is a root are
// removed).
#pragma once

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct CcResult {
  std::vector<VertexId> component;  ///< canonical: min vertex id in component
  std::uint32_t num_components = 0;
  EnactSummary summary;
};

/// Per-graph persistent CC state (the Problem): component labels plus the
/// flat undirected edge list hooking iterates over. Pooled across
/// enactments — the edge list is rebuilt in place each enact (capacity
/// retained), so repeated queries allocate nothing in steady state.
struct CcProblem {
  const Csr* g = nullptr;
  std::vector<VertexId> comp;           // component label per vertex
  std::vector<std::uint32_t> edge_src;  // flat edge list (one direction)
  std::vector<std::uint32_t> edge_dst;
  std::uint32_t changed = 0;  // hooking progress flag (atomic)

  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return {edge_src[e], edge_dst[e]};
  }
};

/// Persistent CC enactor with pooled Problem and edge/vertex frontiers.
class CcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Reads only `opts.cancel`.
  void enact(const Csr& g, const QueryOptions& opts, CcResult& out);

 private:
  CcProblem problem_;
  // Pooled hook/compress frontiers (edge frontier + pointer-jump vertex
  // frontier, double-buffered).
  std::vector<std::uint32_t> edge_frontier_, next_edges_;
  std::vector<std::uint32_t> vf_, nvf_;
};

}  // namespace grx
