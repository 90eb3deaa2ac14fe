#include "graph/csr.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace grx {

Csr::Csr(VertexId num_vertices, std::vector<EdgeId> row_offsets,
         std::vector<VertexId> col_indices, std::vector<Weight> weights)
    : n_(num_vertices),
      m_(col_indices.size()),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      weights_(std::move(weights)) {
  validate();
  for (VertexId v = 0; v < n_; ++v)
    max_degree_ = std::max(max_degree_, degree(v));
}

void Csr::validate() const {
  GRX_CHECK_MSG(row_offsets_.size() == static_cast<std::size_t>(n_) + 1,
                "row_offsets must have n+1 entries");
  GRX_CHECK_MSG(row_offsets_.front() == 0, "row_offsets[0] must be 0");
  GRX_CHECK_MSG(row_offsets_.back() == m_,
                "row_offsets[n] must equal the edge count");
  for (VertexId v = 0; v < n_; ++v)
    GRX_CHECK_MSG(row_offsets_[v] <= row_offsets_[v + 1],
                  "row_offsets must be nondecreasing");
  for (VertexId c : col_indices_)
    GRX_CHECK_MSG(c < n_, "column index out of range");
  GRX_CHECK_MSG(weights_.empty() || weights_.size() == col_indices_.size(),
                "weights must be empty or one per edge");
}

Csr transpose(const Csr& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) offsets[g.col_index(e) + 1]++;
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> cols(g.num_edges());
  std::vector<Weight> weights(g.has_weights() ? g.num_edges() : 0);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId slot = cursor[nbrs[i]]++;
      cols[slot] = v;
      if (g.has_weights()) weights[slot] = g.edge_weights(v)[i];
    }
  }
  return Csr(n, std::move(offsets), std::move(cols), std::move(weights));
}

namespace {

bool rows_sorted(const Csr& g) {
  bool sorted = true;
#pragma omp parallel for schedule(static) reduction(&& : sorted)
  for (std::ptrdiff_t v = 0; v < static_cast<std::ptrdiff_t>(g.num_vertices());
       ++v) {
    const auto nbrs = g.neighbors(static_cast<VertexId>(v));
    sorted = sorted && std::is_sorted(nbrs.begin(), nbrs.end());
  }
  return sorted;
}

/// True iff the k weights at a[0..k) and b[0..k) are equal as multisets.
/// k is a run of parallel arcs, almost always 1.
bool same_weights(const Weight* a, const Weight* b, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i)
    if (std::count(a, a + k, a[i]) != std::count(b, b + k, a[i]))
      return false;
  return true;
}

/// Sorted lists: every run of k equal entries u in v's list must meet
/// exactly k entries v in u's list (an equal_range there), and with
/// `weights` the two runs must carry the same weights. A reverse edge with
/// no forward partner fails at its own row's check. O(E log d), no
/// allocation.
bool sorted_rows_symmetric(const Csr& g, bool weights) {
  bool symmetric = true;
#pragma omp parallel for schedule(dynamic, 256) reduction(&& : symmetric)
  for (std::ptrdiff_t vi = 0;
       vi < static_cast<std::ptrdiff_t>(g.num_vertices()); ++vi) {
    const auto v = static_cast<VertexId>(vi);
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; symmetric && i < nbrs.size();) {
      const VertexId u = nbrs[i];
      std::size_t j = i + 1;
      while (j < nbrs.size() && nbrs[j] == u) ++j;
      const auto back = g.neighbors(u);
      const auto [lo, hi] = std::equal_range(back.begin(), back.end(), v);
      symmetric = static_cast<std::size_t>(hi - lo) == j - i;
      if (symmetric && weights)
        symmetric = same_weights(
            g.weights().data() + g.row_start(v) + i,
            g.weights().data() + g.row_start(u) + (lo - back.begin()),
            j - i);
      i = j;
    }
  }
  return symmetric;
}

/// Unsorted lists: compare the sorted forward and reverse arc lists, with
/// each arc's weight when `weights` (0 otherwise).
bool unsorted_symmetric(const Csr& g, bool weights) {
  using Arc = std::tuple<VertexId, VertexId, Weight>;
  std::vector<Arc> fwd, rev;
  fwd.reserve(g.num_edges());
  rev.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (EdgeId e = g.row_start(v); e < g.row_end(v); ++e) {
      const Weight w = weights ? g.weight(e) : 0;
      fwd.emplace_back(v, g.col_index(e), w);
      rev.emplace_back(g.col_index(e), v, w);
    }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  return fwd == rev;
}

bool symmetric_arcs(const Csr& g, bool weights) {
  return rows_sorted(g) ? sorted_rows_symmetric(g, weights)
                        : unsorted_symmetric(g, weights);
}

}  // namespace

bool is_symmetric(const Csr& g) { return symmetric_arcs(g, false); }

bool has_symmetric_weights(const Csr& g) {
  return symmetric_arcs(g, !g.weights().empty());
}

}  // namespace grx
