#include <gtest/gtest.h>

#include <tuple>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

using SsspParam = std::tuple<std::string, AdvanceStrategy, bool>;

class SsspSweep : public ::testing::TestWithParam<SsspParam> {};

TEST_P(SsspSweep, MatchesDijkstra) {
  const auto& [ds, strategy, use_pq] = GetParam();
  const Csr g = build_dataset(ds, /*shrink=*/5);
  const VertexId source = 0;
  const auto oracle = serial::dijkstra(g, source);

  simt::Device dev;
  QueryOptions opts;
  opts.strategy = strategy;
  opts.use_priority_queue = use_pq;
  const SsspResult r = Engine(dev, g).sssp(source, opts);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.dist[v], oracle[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspSweep,
    ::testing::Combine(
        ::testing::Values("soc-orkut-s", "roadnet-s", "rgg-s"),
        ::testing::Values(AdvanceStrategy::kTwc,
                          AdvanceStrategy::kLoadBalanced,
                          AdvanceStrategy::kAuto),
        ::testing::Bool()),
    [](const auto& info) {
      const std::string ds = std::get<0>(info.param);
      std::string name = ds.substr(0, ds.find('-'));
      name += std::string("_") + to_string(std::get<1>(info.param)) +
              (std::get<2>(info.param) ? "_nearfar" : "_plain");
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Sssp, DeltaSweepAllAgree) {
  const Csr g = testing::random_graph(1024, 4096, 5);
  const auto oracle = serial::dijkstra(g, 7);
  simt::Device dev;
  for (std::uint32_t delta : {1u, 8u, 64u, 256u, 100000u}) {
    QueryOptions opts;
    opts.delta = delta;
    const SsspResult r = Engine(dev, g).sssp(7, opts);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.dist[v], oracle[v]) << "delta " << delta << " v " << v;
  }
}

TEST(Sssp, PathGraphDistancesAreWeightPrefixSums) {
  EdgeList el = path_graph(6);
  for (std::size_t i = 0; i < el.edges.size(); ++i)
    el.edges[i].weight = static_cast<Weight>(i + 1);
  BuildOptions b;
  b.symmetrize = true;
  const Csr g = build_csr(el, b);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  std::uint32_t acc = 0;
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(r.dist[v], acc);
    acc += static_cast<std::uint32_t>(v + 1);
  }
}

TEST(Sssp, UnreachableStaysInfinity) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1, 4}};
  const Csr g = testing::undirected_symw(el);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  EXPECT_EQ(r.dist[2], kInfinity);
}

TEST(Sssp, PredecessorsFormShortestPathTree) {
  const Csr g = testing::random_graph(256, 1024, 17);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (r.dist[v] == kInfinity) continue;
    const VertexId p = r.pred[v];
    ASSERT_NE(p, kInvalidVertex);
    // dist[v] == dist[p] + w(p, v) for the recorded predecessor edge.
    const auto nbrs = g.neighbors(p);
    const auto ws = g.edge_weights(p);
    bool ok = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (nbrs[i] == v && r.dist[p] + ws[i] == r.dist[v]) ok = true;
    EXPECT_TRUE(ok) << "vertex " << v;
  }
}

TEST(Sssp, RequiresWeights) {
  EdgeList el = path_graph(4);
  BuildOptions b;
  b.symmetrize = true;
  Csr g = build_csr(el, b);
  // Strip weights by rebuilding without them.
  Csr unweighted(g.num_vertices(),
                 {g.row_offsets().begin(), g.row_offsets().end()},
                 {g.col_indices().begin(), g.col_indices().end()});
  simt::Device dev;
  EXPECT_THROW(Engine(dev, unweighted).sssp(0), CheckError);
}

TEST(Sssp, AutoDeltaGatesOnDegree) {
  // Low-degree, high-diameter graphs decline the split (0); dense graphs
  // size delta from mean weight x average degree.
  BuildOptions b;
  b.symmetrize = true;
  const Csr sparse = build_csr(path_graph(64), b);  // avg degree 2
  EXPECT_EQ(sssp_auto_delta(sparse), 0u);
  const Csr dense = build_csr(complete_graph(64), b);  // avg degree 63
  EXPECT_GT(sssp_auto_delta(dense), 0u);
}

TEST(Sssp, StaleFarPileEntriesPromoteByCurrentDistance) {
  // A vertex banked far can (a) be appended to the far pile repeatedly as
  // its distance keeps improving above the cutoff, and (b) improve below
  // the cutoff through a longer path *while sitting in the pile* — the
  // stale entries then promote by the improved distance (the re-split
  // consults current dist; the relax guard at sssp.cpp's RelaxFunctor
  // tolerates the leftover duplicates). Distances must still be exact.
  EdgeList el;
  el.num_vertices = 10;
  // Unit-weight chain 0..8 keeps near work alive for many levels.
  for (VertexId v = 0; v + 1 < 9; ++v) el.edges.push_back(Edge{v, v + 1, 1});
  el.edges.push_back(Edge{0, 9, 50});  // banked far at round 1 (dist 50)
  el.edges.push_back(Edge{1, 9, 45});  // re-banked at round 2 (dist 46)
  el.edges.push_back(Edge{8, 9, 1});   // improves to 9 while still banked
  const Csr g = build_csr(el, BuildOptions{});  // directed: exact control
  const auto oracle = serial::dijkstra(g, 0);
  ASSERT_EQ(oracle[9], 9u);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions opts;
  opts.delta = 4;  // force a fine near/far schedule
  const SsspResult r = eng.sssp(0, opts);
  EXPECT_EQ(r.dist, oracle);
  // The far pile really was exercised (both heavy relaxations banked).
  EXPECT_GE(r.pq_stats.far_total, 2u);
  EXPECT_GT(r.pq_stats.splits, 1u);

  // Batched mirror: same graph, lane 0 from source 0 — the bit-matrix far
  // bank clears the stale bit on promotion instead of keeping duplicates.
  const VertexId sources[] = {0, 1};
  QueryOptions bopts;
  bopts.delta = 4;
  const BatchSsspResult batch = eng.batch_sssp(sources, bopts);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(batch.dist_at(v, 0), oracle[v]) << "vertex " << v;
}

TEST(Sssp, DeltaZeroFallsBackToPlainFrontier) {
  // use_priority_queue with delta 0 means "auto"; on a low-degree graph
  // the heuristic declines and the run must behave exactly like the plain
  // frontier path — zero splits, same distances.
  const Csr g = build_dataset("roadnet-s", /*shrink=*/5);
  ASSERT_EQ(sssp_auto_delta(g), 0u);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions auto_opts;  // use_priority_queue = true, delta = 0
  const SsspResult a = eng.sssp(0, auto_opts);
  EXPECT_EQ(a.pq_stats.splits, 0u);
  EXPECT_EQ(a.pq_stats.near_total + a.pq_stats.far_total, 0u);
  QueryOptions off;
  off.use_priority_queue = false;
  const SsspResult b = eng.sssp(0, off);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.summary.iterations, b.summary.iterations);
}

TEST(Sssp, AutoDeltaOnUniformWeightGraphs) {
  // All-equal weights collapse the distance distribution the mean-weight
  // sizing assumes — both extremes (all 1, all 64) must still be exact,
  // single-query and batched, with the auto schedule engaged.
  BuildOptions b;
  b.symmetrize = true;
  const Csr base = build_csr(rmat(9, 12, 3), b);  // avg degree ~24: engages
  simt::Device dev;
  for (const Weight w : {Weight{1}, Weight{64}}) {
    const Csr g = with_random_weights(base, /*seed=*/5, w, w);
    ASSERT_GT(sssp_auto_delta(g), 0u);
    const auto oracle = serial::dijkstra(g, 1);
    const SsspResult r = Engine(dev, g).sssp(1);  // auto delta
    EXPECT_EQ(r.dist, oracle) << "uniform weight " << w;
    const VertexId sources[] = {1, 3, 1};
    QueryOptions bopts;
    bopts.delta = 8;  // small graph: force the per-lane schedule on
    const BatchSsspResult batch = Engine(dev, g).batch_sssp(sources, bopts);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(batch.dist_at(v, 0), oracle[v])
          << "uniform weight " << w << " vertex " << v;
      EXPECT_EQ(batch.dist_at(v, 2), oracle[v])
          << "duplicate-source lane, weight " << w << " vertex " << v;
    }
  }
}

TEST(Sssp, NearFarReducesWorkOnRoadNetworks) {
  const Csr g = build_dataset("roadnet-s", /*shrink=*/3);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions with_pq, without_pq;
  with_pq.use_priority_queue = true;
  with_pq.delta = 64;  // force delta-stepping (auto policy would skip it)
  without_pq.use_priority_queue = false;
  const auto a = eng.sssp(0, with_pq);
  const auto b = eng.sssp(0, without_pq);
  // Delta-stepping's whole point: fewer wasted relaxations than the
  // Bellman-Ford-style frontier (Davidson et al.).
  EXPECT_LT(a.summary.edges_processed, b.summary.edges_processed);
}

}  // namespace
}  // namespace grx
