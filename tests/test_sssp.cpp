#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

using SsspParam = std::tuple<std::string, AdvanceStrategy, bool>;

bool pulled(const SsspResult& r) {
  return std::any_of(r.summary.per_iteration.begin(),
                     r.summary.per_iteration.end(),
                     [](const IterationStats& s) { return s.used_pull; });
}

/// Every reached vertex but the source records a predecessor p with an
/// arc (p -> v) in g and dist[p] + w(p, v) == dist[v].
void expect_shortest_path_tree(const Csr& g, VertexId source,
                               const SsspResult& r) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == source || r.dist[v] == kInfinity) continue;
    const VertexId p = r.pred[v];
    ASSERT_NE(p, kInvalidVertex) << "vertex " << v;
    const auto nbrs = g.neighbors(p);
    const auto ws = g.edge_weights(p);
    bool ok = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (nbrs[i] == v && r.dist[p] + ws[i] == r.dist[v]) ok = true;
    ASSERT_TRUE(ok) << "vertex " << v << " pred " << p;
  }
}

/// The vertex of largest out-degree: a source whose frontier turns dense.
VertexId hub(const Csr& g) {
  VertexId h = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(h)) h = v;
  return h;
}

/// A directed rmat graph with random weights: its in-edges differ from its
/// out-edges in structure and in weight.
Csr directed_rmat(std::uint32_t scale, std::uint64_t seed) {
  return with_random_weights(build_csr(rmat(scale, 16, seed), BuildOptions{}),
                             seed ^ 0x77);
}

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
  expect_shortest_path_tree(g, 0, Engine(dev, g).sssp(0));
}

// Pull rounds fold over weighted in-edges. On a structurally symmetric
// graph whose two arc directions carry independent weights, and on a
// directed graph, folding over g's out-edges instead would give wrong
// distances; each in-edge resolution (g's engine-built transpose, the
// explicit transpose) must match Dijkstra with pull rounds running.
TEST(Sssp, PullMatchesDijkstraOnAsymmetricWeights) {
  simt::Device dev;
  const Csr sym = testing::undirected(rmat(14, 16, 3));  // w(u,v) != w(v,u)
  ASSERT_TRUE(is_symmetric(sym));
  ASSERT_FALSE(has_symmetric_weights(sym));
  const Csr dir = directed_rmat(13, 5);
  ASSERT_FALSE(is_symmetric(dir));
  const Csr dirT = transpose(dir);
  struct Case {
    const char* name;
    const Csr& g;
    const Csr* gT;  ///< explicit transpose, or null
  };
  for (const Case& c : {Case{"symmetric, asymmetric weights", sym, nullptr},
                        Case{"directed, engine-built transpose", dir, nullptr},
                        Case{"directed, explicit transpose", dir, &dirT}}) {
    const VertexId src = hub(c.g);
    const auto oracle = serial::dijkstra(c.g, src);
    Engine eng = c.gT ? Engine(dev, c.g, *c.gT) : Engine(dev, c.g);
    const SsspResult r = eng.sssp(src);
    EXPECT_TRUE(pulled(r)) << c.name;
    EXPECT_EQ(r.dist, oracle) << c.name;
    expect_shortest_path_tree(c.g, src, r);
  }
}

// An explicit transpose without weights cannot serve the pull rounds
// (Csr::weight() reads 1 on an unweighted graph, so they would relax hop
// counts): the Engine falls back to its own weighted transpose, and the
// enactor rejects an unweighted one outright.
TEST(Sssp, UnweightedTransposeIsNotPulledOver) {
  const Csr g = directed_rmat(12, 9);
  const Csr wT = transpose(g);
  const Csr bareT(wT.num_vertices(),
                  {wT.row_offsets().begin(), wT.row_offsets().end()},
                  {wT.col_indices().begin(), wT.col_indices().end()});
  const VertexId src = hub(g);
  simt::Device dev;
  const SsspResult r = Engine(dev, g, bareT).sssp(src);
  EXPECT_TRUE(pulled(r));
  EXPECT_EQ(r.dist, serial::dijkstra(g, src));

  SsspEnactor enactor(dev);
  SsspResult out;
  EXPECT_THROW(enactor.enact(g, bareT, src, QueryOptions{}, out), CheckError);
  EXPECT_NO_THROW(enactor.enact(g, wT, src, QueryOptions{}, out));
  EXPECT_EQ(out.dist, r.dist);
}

// A pull round improves exactly the vertices a push round would, to the
// same distances: forcing push everywhere (pull_alpha ~ 0) changes no
// distance, queue statistic or round count. Predecessors may differ among
// equal-length parents, but both runs record a shortest-path tree.
TEST(Sssp, DirectionChangesNoByte) {
  simt::Device dev;
  const Csr power = testing::undirected(rmat(13, 16, 11));
  const Csr dir = directed_rmat(13, 5);
  for (const Csr* g : {&power, &dir}) {
    Engine eng(dev, *g);
    const VertexId src = hub(*g);
    QueryOptions push_only;
    push_only.pull_alpha = 1e-9;
    const SsspResult a = eng.sssp(src, push_only);
    const SsspResult b = eng.sssp(src);
    ASSERT_FALSE(pulled(a));
    ASSERT_TRUE(pulled(b));
    EXPECT_EQ(a.dist, b.dist);
    EXPECT_EQ(a.pq_stats, b.pq_stats);
    EXPECT_GT(b.pq_stats.splits, 0u);
    EXPECT_EQ(a.summary.iterations, b.summary.iterations);
    expect_shortest_path_tree(*g, src, a);
    expect_shortest_path_tree(*g, src, b);
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
