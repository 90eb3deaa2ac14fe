// Compressed sparse row graph — Gunrock's default representation
// (Section 3): a row-offsets array R and column-indices array C, with
// per-edge weights stored structure-of-array style alongside C.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"

namespace grx {

class Csr {
 public:
  Csr() = default;
  Csr(VertexId num_vertices, std::vector<EdgeId> row_offsets,
      std::vector<VertexId> col_indices, std::vector<Weight> weights = {});

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return m_; }
  /// True iff every edge carries a weight — vacuously true for an edgeless
  /// graph, so weighted primitives accept it (SSSP on a single isolated
  /// vertex is legal and returns dist[source] == 0).
  bool has_weights() const { return !weights_.empty() || m_ == 0; }

  EdgeId row_start(VertexId v) const { return row_offsets_[v]; }
  EdgeId row_end(VertexId v) const { return row_offsets_[v + 1]; }

  std::uint32_t degree(VertexId v) const {
    return static_cast<std::uint32_t>(row_end(v) - row_start(v));
  }

  /// Neighbor vertex ids of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {col_indices_.data() + row_start(v), degree(v)};
  }

  /// Weights of v's incident edges, aligned with neighbors(v).
  std::span<const Weight> edge_weights(VertexId v) const {
    GRX_CHECK(has_weights());
    return {weights_.data() + row_start(v), degree(v)};
  }

  VertexId col_index(EdgeId e) const { return col_indices_[e]; }
  Weight weight(EdgeId e) const { return weights_.empty() ? 1 : weights_[e]; }

  std::span<const EdgeId> row_offsets() const { return row_offsets_; }
  std::span<const VertexId> col_indices() const { return col_indices_; }
  std::span<const Weight> weights() const { return weights_; }

  /// Structural sanity: offsets monotone, targets in range, sizes agree.
  /// Throws CheckError on violation — used by tests and after every build.
  void validate() const;

  /// Largest out-degree, computed once at construction: with num_edges()
  /// the totals the kAuto mapping rule reads for the whole vertex range.
  std::uint32_t max_degree() const { return max_degree_; }

 private:
  VertexId n_ = 0;
  EdgeId m_ = 0;
  std::uint32_t max_degree_ = 0;
  std::vector<EdgeId> row_offsets_;    // size n+1
  std::vector<VertexId> col_indices_;  // size m
  std::vector<Weight> weights_;        // size m or 0
};

/// Transpose (CSC view as a CSR of the reversed graph). For the undirected
/// paper datasets this equals the input; PageRank on directed graphs and
/// pull-mode advance use it.
Csr transpose(const Csr& g);

/// True iff the adjacency *structure* is symmetric: the multiset of edges
/// (u, v) equals the multiset of (v, u), weights ignored. With sorted
/// neighbor lists O(E log d) and allocation-free; otherwise O(E log E) over
/// two pair lists. Used as a one-time guard by consumers that treat a graph
/// as its own transpose (Engine::pagerank/hits/salsa, gunrock_pagerank).
bool is_symmetric(const Csr& g);

/// True iff g is symmetric (is_symmetric) and every arc (u, v) carries the
/// weight of its reverse (v, u) — as multisets for parallel arcs — so g
/// serves as its own *weighted* transpose (Engine's SSSP pull rounds). An
/// unweighted graph qualifies iff it is symmetric. Same costs as
/// is_symmetric.
bool has_symmetric_weights(const Csr& g);

}  // namespace grx
