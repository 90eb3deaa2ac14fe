#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

class PrDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PrDatasetTest, MatchesPowerIteration) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  const auto oracle = serial::pagerank(g, 0.85, 20);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;  // no frontier pruning: exact match to the oracle
  opts.max_iterations = 20;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_TRUE(testing::near_vectors(r.rank, oracle, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Datasets, PrDatasetTest,
                         ::testing::Values("soc-orkut-s", "kron-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Pagerank, SumsToOne) {
  const Csr g = build_dataset("hollywood-s", /*shrink=*/5);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_NEAR(sum(r.rank), 1.0, 1e-9);
}

TEST(Pagerank, StarGraphClosedForm) {
  // Undirected star, d = damping, n-1 leaves: by symmetry all leaves equal
  // and center + (n-1) leaf = 1. Center: c = (1-d)/n + d * (n-1) * l_share
  // where each leaf sends all its rank to the center.
  const std::uint32_t n = 11;
  const Csr g = testing::undirected(star_graph(n));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 200;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  const double d = opts.damping;
  // Fixed point: center = (1-d)/n + d * (sum of leaves), each leaf
  // = (1-d)/n + d * center/(n-1).
  const double leaf = (1.0 - d) / n * (1.0 + d) / (1.0 - d * d * 1.0);
  (void)leaf;  // closed form below via linear solve:
  // center = (1-d)/n + d*L where L = total leaf mass
  // L = (n-1)*[(1-d)/n + d*center/(n-1)] = (n-1)(1-d)/n + d*center
  // => center = (1-d)/n + d[(n-1)(1-d)/n + d*center]
  const double center =
      ((1.0 - d) / n + d * (n - 1) * (1.0 - d) / n) / (1.0 - d * d);
  EXPECT_NEAR(r.rank[0], center, 1e-9);
  for (VertexId v = 1; v < n; ++v)
    EXPECT_NEAR(r.rank[v], (1.0 - center) / (n - 1), 1e-9);
}

TEST(Pagerank, UniformOnRegularGraph) {
  // On a cycle (2-regular), PageRank is exactly uniform.
  const Csr g = testing::undirected(cycle_graph(64));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  for (VertexId v = 0; v < 64; ++v) EXPECT_NEAR(r.rank[v], 1.0 / 64, 1e-12);
}

TEST(Pagerank, DanglingMassRedistributed) {
  // Graph with isolated vertices: ranks must still sum to 1.
  EdgeList el;
  el.num_vertices = 10;
  el.edges = {{0, 1, 1}, {1, 2, 1}};
  const Csr g = testing::undirected(el);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_NEAR(sum(r.rank), 1.0, 1e-9);
  const auto oracle = serial::pagerank(g, 0.85, 50);
  EXPECT_TRUE(testing::near_vectors(r.rank, oracle, 1e-10));
}

TEST(Pagerank, ConvergencePruningShrinksFrontier) {
  const Csr g = build_dataset("rgg-s", /*shrink=*/5);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 1e-3;  // aggressive pruning
  opts.max_iterations = 50;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  ASSERT_GE(r.summary.per_iteration.size(), 2u);
  const auto& last = r.summary.per_iteration.back();
  const auto& first = r.summary.per_iteration.front();
  EXPECT_LT(last.input_size, first.input_size);
}

TEST(Pagerank, PrunedStillCloseToExact) {
  const Csr g = build_dataset("soc-orkut-s", /*shrink=*/6);
  const auto oracle = serial::pagerank(g, 0.85, 50);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 1e-9;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  double l1 = 0.0;
  for (std::size_t v = 0; v < oracle.size(); ++v)
    l1 += std::abs(oracle[v] - r.rank[v]);
  EXPECT_LT(l1, 1e-2);  // pruning is approximate by design (Section 5.5)
}

TEST(Pagerank, HigherDegreeGetsMoreRankOnChain) {
  // On a path, interior vertices (degree 2) outrank endpoints (degree 1).
  const Csr g = testing::undirected(path_graph(8));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_GT(r.rank[3], r.rank[0]);
  EXPECT_GT(r.rank[4], r.rank[7]);
}

/// A directed power-law graph (no symmetrize) with dangling vertices.
Csr directed_rmat(std::uint32_t scale, std::uint64_t seed) {
  const Csr g = build_csr(rmat(scale, 8, seed));  // symmetrize = false
  EXPECT_FALSE(is_symmetric(g));
  VertexId dangling = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) dangling += !g.degree(v);
  EXPECT_GT(dangling, 0u);
  return g;
}

QueryOptions exact_options() {
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 20;
  return opts;
}

TEST(PagerankDirected, EngineBuildsItsOwnTranspose) {
  // Scale 13: the gather takes the edge-chunked mapping.
  const Csr g = directed_rmat(13, 91);
  const Csr h = directed_rmat(10, 92);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.epsilon = 0.0;
  q.max_iterations = 20;
  EXPECT_TRUE(testing::near_vectors(eng.pagerank(q).rank,
                                    serial::pagerank(g, 0.85, 20), 1e-10));
  // A rebind drops the transpose built for the previous graph.
  eng.rebind(h);
  EXPECT_TRUE(testing::near_vectors(eng.pagerank(q).rank,
                                    serial::pagerank(h, 0.85, 20), 1e-10));
}

TEST(PagerankDirected, EngineWithExplicitTranspose) {
  const Csr g = directed_rmat(13, 93);
  const Csr gT = transpose(g);
  simt::Device dev;
  Engine eng(dev, g, gT);
  QueryOptions q;
  q.epsilon = 0.0;
  q.max_iterations = 20;
  EXPECT_TRUE(testing::near_vectors(eng.pagerank(q).rank,
                                    serial::pagerank(g, 0.85, 20), 1e-10));
}

TEST(PagerankDirected, TemporaryEngine) {
  const Csr g = directed_rmat(13, 94);
  simt::Device dev;
  const PagerankResult r = Engine(dev, g).pagerank(exact_options());
  EXPECT_TRUE(
      testing::near_vectors(r.rank, serial::pagerank(g, 0.85, 20), 1e-10));
  EXPECT_NEAR(sum(r.rank), 1.0, 1e-9);
}

bool launched(const simt::Device& dev, const std::string& kernel) {
  return std::any_of(dev.kernel_log().begin(), dev.kernel_log().end(),
                     [&](const simt::KernelStats& k) { return k.name == kernel; });
}

TEST(Pagerank, ExactRunKeepsTheWholeFrontierWithoutFiltering) {
  // At epsilon 0 no vertex can converge: no prune filter runs, every
  // iteration keeps all n vertices, and the gather takes the whole-range
  // form (no per-iteration degree gather or scan), edge-chunked here.
  const Csr g = directed_rmat(13, 95);
  const std::uint64_t n = g.num_vertices();
  simt::Device dev;
  dev.set_profiling(true);
  Engine eng(dev, g);
  const PagerankResult r = eng.pagerank(exact_options());
  ASSERT_EQ(r.summary.per_iteration.size(), 20u);
  for (const IterationStats& s : r.summary.per_iteration) {
    EXPECT_EQ(s.input_size, n);
    EXPECT_EQ(s.output_size, n);
    EXPECT_EQ(s.edges_processed, g.num_edges());
  }
  EXPECT_FALSE(launched(dev, "filter"));
  EXPECT_FALSE(launched(dev, "scan"));
  EXPECT_FALSE(launched(dev, "gather_degrees"));
  EXPECT_TRUE(launched(dev, "neighbor_reduce_lb"));
  // Pruning still filters, and drops converged vertices.
  dev.reset();
  QueryOptions pruned;
  pruned.epsilon = 1e-3;
  const PagerankResult p = eng.pagerank(pruned);
  EXPECT_TRUE(launched(dev, "filter"));
  EXPECT_LT(p.summary.per_iteration.back().output_size, n);
}

}  // namespace
}  // namespace grx
