// Tests for the paper's extension operators and primitives:
// neighbor_reduce (gather-reduce), frontier sampling, HITS, and MIS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "api/engine.hpp"
#include "core/neighbor_reduce.hpp"
#include "core/sample.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

struct NoProblem {};

TEST(NeighborReduce, DegreeViaCountReduction) {
  const Csr g = testing::undirected(rmat(9, 6, 77));
  simt::Device dev;
  Frontier f;
  f.assign({0, 5, 17, 100});
  NoProblem p;
  std::vector<std::uint32_t> out;
  AdvanceWorkspace ws;
  neighbor_reduce<std::uint32_t>(
      dev, g, f, out, p, 0,
      [](VertexId, VertexId, EdgeId, NoProblem&) { return 1u; },
      [](std::uint32_t a, std::uint32_t b) { return a + b; }, AdvanceConfig{},
      ws);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], g.degree(f.items()[i]));
}

TEST(NeighborReduce, MaxNeighborId) {
  const Csr g = testing::undirected(star_graph(16));
  simt::Device dev;
  Frontier f;
  f.assign({0, 3});
  NoProblem p;
  std::vector<VertexId> out;
  AdvanceWorkspace ws;
  neighbor_reduce<VertexId>(
      dev, g, f, out, p, 0,
      [](VertexId, VertexId u, EdgeId, NoProblem&) { return u; },
      [](VertexId a, VertexId b) { return std::max(a, b); }, AdvanceConfig{},
      ws);
  EXPECT_EQ(out[0], 15u);  // hub sees all leaves
  EXPECT_EQ(out[1], 0u);   // leaf sees only the hub
}

TEST(NeighborReduce, WeightSumMatchesManual) {
  const Csr g = testing::random_graph(256, 1024, 3);
  simt::Device dev;
  Frontier f;
  f.assign_iota(g.num_vertices());
  NoProblem p;
  std::vector<double> out;
  AdvanceWorkspace ws;
  neighbor_reduce<double>(
      dev, g, f, out, p, 0.0,
      [&](VertexId v, VertexId, EdgeId e, NoProblem&) {
        (void)v;
        return static_cast<double>(g.weight(e));
      },
      [](double a, double b) { return a + b; }, AdvanceConfig{}, ws);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double want = 0.0;
    for (Weight w : g.edge_weights(v)) want += w;
    EXPECT_DOUBLE_EQ(out[v], want) << v;
  }
}

TEST(NeighborReduce, EmptyFrontier) {
  const Csr g = testing::undirected(path_graph(4));
  simt::Device dev;
  Frontier f;
  NoProblem p;
  std::vector<int> out{42};
  AdvanceWorkspace ws;
  neighbor_reduce<int>(
      dev, g, f, out, p, 0,
      [](VertexId, VertexId, EdgeId, NoProblem&) { return 1; },
      [](int a, int b) { return a + b; }, AdvanceConfig{}, ws);
  EXPECT_TRUE(out.empty());
}

TEST(Sample, DeterministicAndApproximatelySized) {
  simt::Device dev;
  Frontier in;
  in.assign_iota(10000);
  SampleConfig cfg;
  cfg.fraction = 0.25;
  cfg.seed = 9;
  Frontier a, b;
  frontier_sample(dev, in, a, cfg);
  frontier_sample(dev, in, b, cfg);
  EXPECT_EQ(a.items(), b.items());  // reproducible
  EXPECT_NEAR(static_cast<double>(a.size()), 2500.0, 250.0);
  // Survivors are a subset of the input.
  for (std::uint32_t v : a.items()) EXPECT_LT(v, 10000u);
  // Survivors keep input order: from an iota input they strictly increase.
  EXPECT_TRUE(std::is_sorted(a.items().begin(), a.items().end(),
                             std::less_equal<>()));
}

TEST(Sample, DifferentRoundsDiffer) {
  simt::Device dev;
  Frontier in;
  in.assign_iota(4096);
  SampleConfig c1, c2;
  c1.fraction = c2.fraction = 0.5;
  c1.round = 1;
  c2.round = 2;
  Frontier a, b;
  frontier_sample(dev, in, a, c1);
  frontier_sample(dev, in, b, c2);
  EXPECT_NE(a.items(), b.items());
}

TEST(Sample, NonEmptyGuarantee) {
  simt::Device dev;
  Frontier in, out;
  in.assign({7, 8, 9});
  SampleConfig cfg;
  cfg.fraction = 1e-9;  // would sample to nothing
  frontier_sample(dev, in, out, cfg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.items()[0], 7u);
}

TEST(Sample, FullFractionKeepsEverything) {
  simt::Device dev;
  Frontier in, out;
  in.assign_iota(100);
  SampleConfig cfg;
  cfg.fraction = 1.0;
  frontier_sample(dev, in, out, cfg);
  EXPECT_EQ(out.size(), 100u);
}

TEST(Hits, StarGraphHubAuthority) {
  // Directed star: 0 -> each leaf. Vertex 0 is the only hub; leaves are
  // the authorities.
  EdgeList el = star_graph(8);
  const Csr g = build_csr(el);
  const Csr gT = transpose(g);
  simt::Device dev;
  const HitsResult r = Engine(dev, g, gT).hits();
  EXPECT_NEAR(r.hub[0], 1.0, 1e-9);
  for (VertexId v = 1; v < 8; ++v) {
    EXPECT_NEAR(r.hub[v], 0.0, 1e-9);
    EXPECT_NEAR(r.authority[v], 1.0 / std::sqrt(7.0), 1e-9);
  }
  EXPECT_NEAR(r.authority[0], 0.0, 1e-9);
}

TEST(Hits, UndirectedScoresCoincideWithEigenvector) {
  // On an undirected graph hub == authority; scores are L2-normalized.
  const Csr g = build_dataset("hollywood-s", /*shrink=*/6);
  simt::Device dev;
  const HitsResult r = Engine(dev, g, g).hits();
  double ss_h = 0.0, ss_a = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ss_h += r.hub[v] * r.hub[v];
    ss_a += r.authority[v] * r.authority[v];
  }
  EXPECT_NEAR(ss_h, 1.0, 1e-9);
  EXPECT_NEAR(ss_a, 1.0, 1e-9);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(r.hub[v], r.authority[v], 1e-6) << v;
}

TEST(Hits, BipartiteRanking) {
  // Two-level bipartite graph: sources {0,1} point at targets {2,3,4};
  // target 2 has both in-edges, so it must be the top authority.
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {{0, 2, 1}, {0, 3, 1}, {1, 2, 1}, {1, 4, 1}};
  const Csr g = build_csr(el);
  const Csr gT = transpose(g);
  simt::Device dev;
  const HitsResult r = Engine(dev, g, gT).hits();
  EXPECT_GT(r.authority[2], r.authority[3]);
  EXPECT_GT(r.authority[2], r.authority[4]);
  EXPECT_GT(r.hub[0], 0.0);
  EXPECT_NEAR(r.authority[0], 0.0, 1e-9);
}

class MisDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MisDatasetTest, IndependentAndMaximal) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  simt::Device dev;
  const MisResult r = Engine(dev, g).mis();
  // Independence: no edge joins two set members.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (r.in_set[v])
      for (VertexId u : g.neighbors(v)) ASSERT_FALSE(r.in_set[u]) << v;
  // Maximality: every non-member has a member neighbor.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (r.in_set[v]) continue;
    bool covered = false;
    for (VertexId u : g.neighbors(v)) covered |= r.in_set[u] != 0;
    ASSERT_TRUE(covered) << v;
  }
  EXPECT_GT(r.set_size, 0u);
}

INSTANTIATE_TEST_SUITE_P(Datasets, MisDatasetTest,
                         ::testing::Values("soc-orkut-s", "kron-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Mis, IsolatedVerticesAlwaysJoin) {
  EdgeList el;
  el.num_vertices = 6;
  el.edges = {{0, 1, 1}};
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const MisResult r = Engine(dev, g).mis();
  for (VertexId v = 2; v < 6; ++v) EXPECT_TRUE(r.in_set[v]);
  EXPECT_EQ(r.in_set[0] + r.in_set[1], 1);
}

TEST(Mis, CompleteGraphPicksExactlyOne) {
  const Csr g = testing::undirected(complete_graph(32));
  simt::Device dev;
  const MisResult r = Engine(dev, g).mis();
  EXPECT_EQ(r.set_size, 1u);
}

TEST(Mis, ConvergesInLogarithmicRounds) {
  const Csr g = build_dataset("soc-orkut-s", /*shrink=*/4);
  simt::Device dev;
  const MisResult r = Engine(dev, g).mis();
  // Luby: O(log n) rounds w.h.p.; allow generous slack.
  EXPECT_LT(r.summary.iterations, 40u);
}

TEST(Mis, DeterministicForFixedSeed) {
  const Csr g = testing::random_graph(512, 2048, 12);
  simt::Device dev;
  QueryOptions q;
  q.seed = 42;
  const MisResult a = Engine(dev, g).mis(q);
  const MisResult b = Engine(dev, g).mis(q);
  EXPECT_EQ(a.in_set, b.in_set);
}

}  // namespace
}  // namespace grx
