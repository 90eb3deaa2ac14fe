// Shared helpers for the grx test suite.
#pragma once

#include <gtest/gtest.h>
#include <omp.h>

// Allocation-counting fixture; a TU that defines GRX_ALLOC_PROBE_IMPLEMENT
// before including this header owns the binary's operator new replacement.
#include "alloc_probe.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace grx::testing {

/// Restores the ambient OpenMP width on scope exit — for tests that pin
/// kernels serial (byte-exact FP oracles) without leaking the setting
/// into later tests in the same binary.
struct ThreadRestorer {
  int saved_ = omp_get_max_threads();
  ~ThreadRestorer() { omp_set_num_threads(saved_); }
};

/// Builds an undirected weighted CSR from a generator edge list.
inline Csr undirected(const EdgeList& el, std::uint64_t weight_seed = 7) {
  BuildOptions opts;
  opts.symmetrize = true;
  Csr g = build_csr(el, opts);
  return with_random_weights(g, weight_seed);
}

/// Builds an undirected CSR with *symmetric* weights (w(u,v) == w(v,u)),
/// required for SSSP correctness checks on undirected graphs. Each
/// unordered pair is weighted once: pairs are canonicalized (src <= dst)
/// and deduplicated first, so a list that repeats a pair, either way
/// round, cannot leave its two arcs with different weights.
inline Csr undirected_symw(EdgeList el, std::uint64_t weight_seed = 7) {
  const auto pair_of = [](const Edge& e) { return std::pair{e.src, e.dst}; };
  for (Edge& e : el.edges)
    if (e.dst < e.src) std::swap(e.src, e.dst);
  std::sort(el.edges.begin(), el.edges.end(),
            [&](const Edge& a, const Edge& b) { return pair_of(a) < pair_of(b); });
  el.edges.erase(std::unique(el.edges.begin(), el.edges.end(),
                             [&](const Edge& a, const Edge& b) {
                               return pair_of(a) == pair_of(b);
                             }),
                 el.edges.end());
  Rng rng(weight_seed);
  for (Edge& e : el.edges) e.weight = static_cast<Weight>(1 + rng.next_below(64));
  BuildOptions opts;
  opts.symmetrize = true;
  return build_csr(el, opts);
}

/// The canonical power-law serving fixture shared by the server-layer
/// suites (test_server at scale 10, test_faults at scale 9, test_dynamic):
/// an undirected RMAT with symmetric weights, seed 2016, edge factor 8.
/// Cached per scale so repeated tests share one build.
inline const Csr& power_law_serving_graph(std::uint32_t scale = 10) {
  static std::mutex mu;
  static std::map<std::uint32_t, Csr> cache;  // node-stable references
  std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find(scale);
  if (it == cache.end())
    it = cache.emplace(scale, undirected_symw(rmat(scale, 8, 2016))).first;
  return it->second;
}

/// A graph with a deep BFS frontier (many rounds), so per-round hooks
/// (fault injection, mid-enact stalls) reliably fire.
inline const Csr& deep_serving_graph() {
  static const Csr g = undirected_symw(road_grid(16, 16, 0.0, 0.0, 2016));
  return g;
}

/// A deterministic connected-ish random graph for property tests.
inline Csr random_graph(std::uint32_t n, std::uint64_t m,
                        std::uint64_t seed) {
  EdgeList el = erdos_renyi(n, m, seed);
  // Thread a path through all vertices so the graph is connected: property
  // assertions over reachability then cover every vertex.
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    el.edges.push_back(Edge{i, i + 1, 1});
  return undirected_symw(std::move(el), seed ^ 0x5eed);
}

/// Csr-taking convenience over the shared source picker
/// (grx::scattered_sources in graph/generators.hpp).
inline std::vector<VertexId> scattered_sources(const Csr& g,
                                               std::uint32_t count) {
  return grx::scattered_sources(g.num_vertices(), count);
}

/// True iff two component labelings induce the same partition.
inline ::testing::AssertionResult same_partition(
    const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "label vector sizes differ";
  std::map<VertexId, VertexId> a2b;
  std::map<VertexId, VertexId> b2a;
  for (std::size_t v = 0; v < a.size(); ++v) {
    auto [ia, oka] = a2b.emplace(a[v], b[v]);
    if (!oka && ia->second != b[v])
      return ::testing::AssertionFailure()
             << "label " << a[v] << " maps to both " << ia->second << " and "
             << b[v] << " (vertex " << v << ")";
    auto [ib, okb] = b2a.emplace(b[v], a[v]);
    if (!okb && ib->second != a[v])
      return ::testing::AssertionFailure()
             << "label " << b[v] << " maps to both " << ib->second << " and "
             << a[v] << " (vertex " << v << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Elementwise comparison with an absolute tolerance.
inline ::testing::AssertionResult near_vectors(const std::vector<double>& a,
                                               const std::vector<double>& b,
                                               double tol) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "sizes differ";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol)
      return ::testing::AssertionFailure()
             << "index " << i << ": " << a[i] << " vs " << b[i]
             << " (tol " << tol << ")";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace grx::testing
