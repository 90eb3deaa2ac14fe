// Property-based tests: structural invariants that must hold on *any*
// graph, checked over a seeded family of random graphs of varying shape.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

// (num_vertices, num_edges, seed): spans sparse chains to dense cores.
using Shape = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>;

class PropertyTest : public ::testing::TestWithParam<Shape> {
 protected:
  Csr graph() const {
    const auto& [n, m, seed] = GetParam();
    return testing::random_graph(n, m, seed);
  }
};

TEST_P(PropertyTest, BfsDepthsDifferByAtMostOneAcrossEdges) {
  const Csr g = graph();
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.depth[v], kInfinity);  // random_graph is connected
    for (VertexId u : g.neighbors(v)) {
      const auto dv = static_cast<std::int64_t>(r.depth[v]);
      const auto du = static_cast<std::int64_t>(r.depth[u]);
      ASSERT_LE(std::abs(dv - du), 1)
          << "edge (" << v << "," << u << ") violates BFS level property";
    }
  }
}

TEST_P(PropertyTest, SsspSatisfiesTriangleInequalityOnEveryEdge) {
  const Csr g = graph();
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Settled distances must be stable under one more relaxation.
      ASSERT_LE(r.dist[nbrs[i]],
                static_cast<std::uint64_t>(r.dist[v]) + ws[i]);
    }
  }
}

TEST_P(PropertyTest, SsspDominatedByBfsHops) {
  const Csr g = graph();
  simt::Device dev;
  const auto bfs_depth = serial::bfs(g, 0);
  const SsspResult r = Engine(dev, g).sssp(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Each hop costs at least weight 1 and at most 64.
    ASSERT_GE(r.dist[v], bfs_depth[v]);
    ASSERT_LE(r.dist[v], static_cast<std::uint64_t>(bfs_depth[v]) * 64);
  }
}

TEST_P(PropertyTest, CcIsAnEquivalenceConsistentWithEdges) {
  const Csr g = graph();
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  // Connected input: exactly one component, the canonical min id 0.
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.component[v], 0u);
}

TEST_P(PropertyTest, PagerankIsAProbabilityDistribution) {
  const Csr g = graph();
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 30;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  double total = 0.0;
  for (double x : r.rank) {
    ASSERT_GT(x, 0.0);
    total += x;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PropertyTest, BcValuesAreNonNegativeAndBounded) {
  const Csr g = graph();
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  const double n = g.num_vertices();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(r.bc_values[v], 0.0);
    // Single-source dependency is at most the number of reachable targets.
    ASSERT_LE(r.bc_values[v], n);
  }
  EXPECT_DOUBLE_EQ(r.bc_values[0], 0.0);  // source excluded by definition
}

TEST_P(PropertyTest, BcDependencySumEqualsPathLengthSum) {
  // Brandes identity: sum over v of delta_s(v) equals sum over t != s of
  // (depth(t)) when paths are counted per intermediate vertex:
  // each shortest path of length L contributes L-1 interior credits.
  const Csr g = graph();
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  const auto depth = serial::bfs(g, 0);
  double interior_credits = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (v != 0 && depth[v] != kInfinity)
      interior_credits += static_cast<double>(depth[v]) - 1.0;
  double bc_sum = 0.0;
  for (double x : r.bc_values) bc_sum += x;
  EXPECT_NEAR(bc_sum, interior_credits, 1e-6 * std::max(1.0, bc_sum));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertyTest,
    ::testing::Values(Shape{64, 64, 1}, Shape{256, 512, 2},
                      Shape{256, 2048, 3}, Shape{1024, 1024, 4},
                      Shape{1024, 8192, 5}, Shape{2048, 4096, 6}),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace grx
