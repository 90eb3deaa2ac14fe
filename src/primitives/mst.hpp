// Minimum spanning tree — first in Section 5.5's list of primitives under
// development in Gunrock ("minimum spanning tree, maximal independent
// set, graph coloring, ..."), and an example of a primitive that
// "internally modifies graph topology" (Section 7, dynamic graphs).
//
// Borůvka's algorithm on frontiers: each round, every component selects
// its minimum-weight outgoing edge (an atomicMin gather over an edge
// frontier), the selected edges join the forest, components merge via the
// same hooking + pointer-jumping machinery as CC, and intra-component
// edges are filtered out of the edge frontier. O(log V) rounds.
#pragma once

#include <tuple>

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct MstResult {
  /// Edge list of the spanning forest, as (u, v, w) triples.
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges;
  std::uint64_t total_weight = 0;
  std::uint32_t num_components = 0;  ///< trees in the forest
  EnactSummary summary;
};

/// Per-graph persistent MST state (the Problem): component labels, the
/// flat undirected edge arrays, and the per-root candidate keys — pooled
/// across enactments (rebuilt in place, capacity retained).
struct MstProblem {
  std::vector<VertexId> comp;  // component label (a root id) per vertex
  // Flat undirected edge arrays (one direction per edge).
  std::vector<VertexId> esrc, edst;
  std::vector<Weight> ew;
  // Per-root candidate: packed (weight << 30 | edge id), atomicMin'd.
  std::vector<std::uint64_t> best;

  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return {esrc[e], edst[e]};
  }
};

/// Persistent Borůvka enactor with pooled Problem and round scratch.
/// Computes a minimum spanning forest of the undirected weighted graph.
/// Ties are broken by edge id, so the result is deterministic; the total
/// weight equals that of every MSF of the graph.
class MstEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Reads only `opts.cancel`.
  void enact(const Csr& g, const QueryOptions& opts, MstResult& out);

 private:
  MstProblem problem_;
  std::vector<std::uint32_t> frontier_, next_;  // edge frontier, pooled
  std::vector<std::uint8_t> in_mst_;
  std::vector<VertexId> partner_;
};

}  // namespace grx
