#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

class BcDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BcDatasetTest, MatchesBrandesOracle) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  const VertexId source = 1;
  const auto oracle = serial::brandes_bc(g, source);
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(source);
  ASSERT_EQ(r.bc_values.size(), oracle.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(r.bc_values[v], oracle[v],
                1e-6 * std::max(1.0, oracle[v]))
        << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(Datasets, BcDatasetTest,
                         ::testing::Values("soc-orkut-s", "hollywood-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Bc, PathGraphClosedForm) {
  // Path 0-1-2-3-4, source 0: interior vertex v lies on paths to all
  // vertices beyond it: bc[v] = (n-1-v) for v in 1..n-2.
  const Csr g = testing::undirected(path_graph(5));
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  EXPECT_DOUBLE_EQ(r.bc_values[1], 3.0);
  EXPECT_DOUBLE_EQ(r.bc_values[2], 2.0);
  EXPECT_DOUBLE_EQ(r.bc_values[3], 1.0);
  EXPECT_DOUBLE_EQ(r.bc_values[4], 0.0);
}

TEST(Bc, StarCenterDominates) {
  const Csr g = testing::undirected(star_graph(16));
  simt::Device dev;
  // From a leaf, the hub lies on every shortest path to other leaves.
  const BcResult r = Engine(dev, g).bc(1);
  EXPECT_DOUBLE_EQ(r.bc_values[0], 14.0);
  for (VertexId v = 1; v < 16; ++v) EXPECT_DOUBLE_EQ(r.bc_values[v], 0.0);
}

TEST(Bc, BridgeEndpointsCarryAllCrossTraffic) {
  const std::uint32_t k = 6;
  const Csr g = testing::undirected(two_cliques_bridge(k));
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  const auto oracle = serial::brandes_bc(g, 0);
  // Bridge endpoints (k-1 and k) must dominate every interior vertex.
  for (VertexId v = 0; v < 2 * k; ++v) {
    EXPECT_NEAR(r.bc_values[v], oracle[v], 1e-9);
    if (v != k - 1 && v != k && v != 0)
      EXPECT_LT(r.bc_values[v], r.bc_values[k - 1]);
  }
}

TEST(Bc, SigmaCountsShortestPaths) {
  // Cycle of 4: two equal-length paths from 0 to the opposite vertex 2.
  const Csr g = testing::undirected(cycle_graph(4));
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  EXPECT_DOUBLE_EQ(r.sigma[2], 2.0);
  EXPECT_DOUBLE_EQ(r.sigma[1], 1.0);
  EXPECT_DOUBLE_EQ(r.sigma[3], 1.0);
}

TEST(Bc, StrategySweepAgrees) {
  const Csr g = testing::random_graph(256, 1024, 3);
  const auto oracle = serial::brandes_bc(g, 5);
  simt::Device dev;
  for (auto s : {AdvanceStrategy::kThreadFine, AdvanceStrategy::kTwc,
                 AdvanceStrategy::kLoadBalanced}) {
    QueryOptions opts;
    opts.strategy = s;
    const BcResult r = Engine(dev, g).bc(5, opts);
    EXPECT_TRUE(testing::near_vectors(r.bc_values, oracle, 1e-6))
        << to_string(s);
  }
}

TEST(Bc, SampledAccumulatesOverSources) {
  const Csr g = testing::undirected(two_cliques_bridge(5));
  simt::Device dev;
  const auto acc = Engine(dev, g).bc_sampled(4, 99);
  // Bridge endpoints still dominate in the accumulated score.
  double interior_max = 0.0;
  for (VertexId v = 1; v < 4; ++v)
    interior_max = std::max(interior_max, acc[v]);
  EXPECT_GT(acc[4], interior_max);
}

TEST(Bc, DisconnectedVerticesUntouched) {
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {{0, 1, 1}, {1, 2, 1}};  // 3, 4 isolated
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const BcResult r = Engine(dev, g).bc(0);
  EXPECT_DOUBLE_EQ(r.bc_values[3], 0.0);
  EXPECT_DOUBLE_EQ(r.bc_values[4], 0.0);
  EXPECT_EQ(r.depth[3], kInfinity);
}

}  // namespace
}  // namespace grx
