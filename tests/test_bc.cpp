#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace grx {
namespace {

/// Brandes oracle agreement at the suite's tolerance: 1e-6 relative to
/// the score, absolute below 1.
void expect_matches_brandes(const Csr& g, VertexId source,
                            const std::vector<double>& got) {
  const auto oracle = serial::brandes_bc(g, source);
  ASSERT_EQ(got.size(), oracle.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(got[v], oracle[v], 1e-6 * std::max(1.0, oracle[v]))
        << "source " << source << ", vertex " << v;
}

bool pulled(const BcResult& r) {
  return std::any_of(r.summary.per_iteration.begin(),
                     r.summary.per_iteration.end(),
                     [](const IterationStats& s) { return s.used_pull; });
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

VertexId max_degree_vertex(const Csr& g) {
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  return hub;
}

/// rmat-13 left directed: pull rounds must gather over the transpose.
Csr directed_rmat(std::uint64_t seed) {
  const Csr g = build_csr(rmat(13, 16, seed), BuildOptions{});
  GRX_CHECK(!is_symmetric(g));
  return g;
}

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

TEST(Bc, DirectedGraphWithEngineBuiltTranspose) {
  const Csr g = directed_rmat(11);
  const Csr g2 = directed_rmat(12);
  simt::Device dev;
  Engine eng(dev, g);
  const BcResult r = eng.bc(max_degree_vertex(g));
  EXPECT_TRUE(pulled(r));
  expect_matches_brandes(g, max_degree_vertex(g), r.bc_values);
  // A rebind drops the built transpose; the next query builds g2's.
  eng.rebind(g2);
  const BcResult r2 = eng.bc(max_degree_vertex(g2));
  EXPECT_TRUE(pulled(r2));
  expect_matches_brandes(g2, max_degree_vertex(g2), r2.bc_values);
}

TEST(Bc, DirectedGraphWithExplicitTranspose) {
  const Csr g = directed_rmat(13);
  const Csr gT = transpose(g);
  simt::Device dev;
  Engine eng(dev, g, gT);
  const BcResult r = eng.bc(max_degree_vertex(g));
  EXPECT_TRUE(pulled(r));
  expect_matches_brandes(g, max_degree_vertex(g), r.bc_values);
  // bc_sampled takes the same transpose: it sums bc() over its sources.
  const std::vector<double> sampled = eng.bc_sampled(3, 99);
  std::vector<double> sum(g.num_vertices(), 0.0);
  Rng rng(99);
  for (int s = 0; s < 3; ++s) {
    const BcResult one =
        eng.bc(static_cast<VertexId>(rng.next_below(g.num_vertices())));
    for (VertexId v = 0; v < g.num_vertices(); ++v) sum[v] += one.bc_values[v];
  }
  EXPECT_TRUE(same_bytes(sampled, sum));
}

TEST(Bc, DirectionChangesNoByte) {
  // A tiny pull_alpha puts |E| / alpha beyond every frontier: push only.
  const Csr g = testing::undirected(rmat(14, 16, 3));
  QueryOptions push_only;
  push_only.pull_alpha = 1e-9;
  simt::Device dev;
  Engine eng(dev, g);
  VertexId leaf = 0;
  while (g.degree(leaf) == 0 || g.degree(leaf) > 2) ++leaf;
  for (const VertexId src : {max_degree_vertex(g), leaf}) {
    const BcResult pushed = eng.bc(src, push_only);
    const BcResult mixed = eng.bc(src);
    ASSERT_FALSE(pulled(pushed)) << "source " << src;
    ASSERT_TRUE(pulled(mixed)) << "source " << src;
    EXPECT_TRUE(same_bytes(pushed.bc_values, mixed.bc_values))
        << "source " << src;
    EXPECT_TRUE(same_bytes(pushed.sigma, mixed.sigma)) << "source " << src;
    EXPECT_EQ(pushed.depth, mixed.depth) << "source " << src;
  }
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
