// Tests for the Section-5.5 "under development" primitives: minimum
// spanning tree (Boruvka) and greedy graph coloring (Jones-Plassmann).
#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

std::vector<std::pair<VertexId, VertexId>> edge_pairs(const MstResult& r) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (const auto& [u, v, w] : r.edges) out.emplace_back(u, v);
  return out;
}

class MstDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MstDatasetTest, WeightMatchesKruskalAndFormsSpanningForest) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  simt::Device dev;
  const MstResult r = Engine(dev, g).mst();
  EXPECT_EQ(r.total_weight, serial::mst_weight(g));
  EXPECT_TRUE(serial::is_spanning_forest(g, edge_pairs(r)));
  EXPECT_EQ(r.num_components,
            serial::count_components(serial::connected_components(g)));
}

INSTANTIATE_TEST_SUITE_P(Datasets, MstDatasetTest,
                         ::testing::Values("soc-orkut-s", "kron-s", "rgg-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Mst, PathGraphTakesAllEdges) {
  EdgeList el = path_graph(8);
  for (std::size_t i = 0; i < el.edges.size(); ++i)
    el.edges[i].weight = static_cast<Weight>(10 + i);
  BuildOptions b;
  b.symmetrize = true;
  const Csr g = build_csr(el, b);
  simt::Device dev;
  const MstResult r = Engine(dev, g).mst();
  EXPECT_EQ(r.edges.size(), 7u);
  EXPECT_EQ(r.total_weight, 10u + 11 + 12 + 13 + 14 + 15 + 16);
}

TEST(Mst, CycleDropsHeaviestEdge) {
  EdgeList el = cycle_graph(5);
  const Weight ws[] = {3, 1, 4, 1, 5};
  for (std::size_t i = 0; i < el.edges.size(); ++i) el.edges[i].weight = ws[i];
  BuildOptions b;
  b.symmetrize = true;
  const Csr g = build_csr(el, b);
  simt::Device dev;
  const MstResult r = Engine(dev, g).mst();
  EXPECT_EQ(r.edges.size(), 4u);
  EXPECT_EQ(r.total_weight, 3u + 1 + 4 + 1);  // drops the weight-5 edge
}

TEST(Mst, EqualWeightsStillAForest) {
  // All-equal weights is the classic Boruvka cycle trap; the edge-id
  // tie-break must keep the selection acyclic.
  EdgeList el = complete_graph(24);
  for (auto& e : el.edges) e.weight = 7;
  BuildOptions b;
  b.symmetrize = true;
  const Csr g = build_csr(el, b);
  simt::Device dev;
  const MstResult r = Engine(dev, g).mst();
  EXPECT_EQ(r.edges.size(), 23u);
  EXPECT_EQ(r.total_weight, 23u * 7);
  EXPECT_TRUE(serial::is_spanning_forest(g, edge_pairs(r)));
}

TEST(Mst, DisconnectedGraphGivesForest) {
  EdgeList el;
  el.num_vertices = 7;  // triangle + edge + 2 isolated
  el.edges = {{0, 1, 2}, {1, 2, 3}, {2, 0, 9}, {3, 4, 5}};
  const Csr g = testing::undirected_symw(el, 1);
  simt::Device dev;
  const MstResult r = Engine(dev, g).mst();
  EXPECT_EQ(r.num_components, 4u);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(r.total_weight, serial::mst_weight(g));
  EXPECT_TRUE(serial::is_spanning_forest(g, edge_pairs(r)));
}

TEST(Mst, RandomSweepMatchesKruskal) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const Csr g = testing::random_graph(512, 1500, seed);
    simt::Device dev;
    const MstResult r = Engine(dev, g).mst();
    EXPECT_EQ(r.total_weight, serial::mst_weight(g)) << "seed " << seed;
    EXPECT_TRUE(serial::is_spanning_forest(g, edge_pairs(r)))
        << "seed " << seed;
  }
}

TEST(Mst, RequiresWeights) {
  const Csr g(2, {0, 1, 2}, {1, 0});
  simt::Device dev;
  EXPECT_THROW(Engine(dev, g).mst(), CheckError);
}

class ColoringDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ColoringDatasetTest, ProperAndBounded) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  simt::Device dev;
  const ColoringResult r = Engine(dev, g).coloring();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(r.color[v], kInfinity) << v;
    for (VertexId u : g.neighbors(v)) ASSERT_NE(r.color[v], r.color[u]);
  }
  EXPECT_LE(r.num_colors, g.max_degree() + 1);
}

INSTANTIATE_TEST_SUITE_P(Datasets, ColoringDatasetTest,
                         ::testing::Values("hollywood-s", "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Coloring, BipartiteNeedsTwoColors) {
  // Even cycle is 2-colorable; greedy JP may use a couple more, but must
  // stay well under max-degree+1 = 3 here.
  const Csr g = testing::undirected(cycle_graph(64));
  simt::Device dev;
  const ColoringResult r = Engine(dev, g).coloring();
  EXPECT_LE(r.num_colors, 3u);
}

TEST(Coloring, CompleteGraphNeedsAllColors) {
  const std::uint32_t k = 16;
  const Csr g = testing::undirected(complete_graph(k));
  simt::Device dev;
  const ColoringResult r = Engine(dev, g).coloring();
  EXPECT_EQ(r.num_colors, k);
}

TEST(Coloring, IsolatedVerticesGetColorZero) {
  EdgeList el;
  el.num_vertices = 5;
  const Csr g = build_csr(el);
  simt::Device dev;
  const ColoringResult r = Engine(dev, g).coloring();
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(r.color[v], 0u);
  EXPECT_EQ(r.num_colors, 1u);
}

TEST(Coloring, DeterministicForFixedSeed) {
  const Csr g = testing::random_graph(256, 1024, 9);
  simt::Device dev;
  QueryOptions q;
  q.seed = 5;
  const ColoringResult a = Engine(dev, g).coloring(q);
  const ColoringResult b = Engine(dev, g).coloring(q);
  EXPECT_EQ(a.color, b.color);
}

TEST(Coloring, StarUsesTwoColors) {
  const Csr g = testing::undirected(star_graph(64));
  simt::Device dev;
  const ColoringResult r = Engine(dev, g).coloring();
  EXPECT_EQ(r.num_colors, 2u);
}

}  // namespace
}  // namespace grx
