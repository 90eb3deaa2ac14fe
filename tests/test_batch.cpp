// Batched multi-source traversal (core/batch_enactor.hpp): per-lane
// results must equal B independent single-query runs — the batch engine is
// an amortization, never an approximation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

/// Deterministic scattered source ids, with a duplicate pair to exercise
/// independent lanes sharing a source.
std::vector<VertexId> pick_sources(const Csr& g, std::uint32_t count) {
  std::vector<VertexId> src = testing::scattered_sources(g, count);
  if (count >= 2) src[count - 1] = src[0];  // duplicate source
  return src;
}

std::vector<Csr> batch_graphs() {
  std::vector<Csr> gs;
  gs.push_back(testing::undirected(rmat(10, 16, 5)));  // power-law
  gs.push_back(testing::undirected(road_grid(40, 30, 0.2, 0.01, 3)));  // mesh
  return gs;
}

TEST(Batch, BfsMatchesSingleQueryPerLane) {
  for (const Csr& g : batch_graphs()) {
    const auto sources = pick_sources(g, 7);
    // Both the push-only default and the direction-optimal mode (legal
    // here: batch_graphs() are symmetrized) must match single-query runs.
    for (const Direction dir : {Direction::kPush, Direction::kOptimal}) {
      QueryOptions bopts;
      bopts.direction = dir;
      simt::Device dev;
      Engine eng(dev, g);
      const BatchBfsResult batch = eng.batch_bfs(sources, bopts);
      ASSERT_EQ(batch.num_lanes, sources.size());
      for (std::uint32_t q = 0; q < batch.num_lanes; ++q) {
        QueryOptions opts;
        opts.record_predecessors = false;
        const BfsResult single = eng.bfs(sources[q], opts);
        for (VertexId v = 0; v < g.num_vertices(); ++v)
          ASSERT_EQ(batch.depth_at(v, q), single.depth[v])
              << "lane " << q << " vertex " << v << " dir "
              << to_string(dir);
      }
    }
  }
}

TEST(Batch, BfsMultiWordLanes) {
  // B > 64 exercises multi-word masks (words_per_vertex > 1), in
  // direction-optimal mode so the multi-word pull path runs too.
  const Csr g = testing::undirected(rmat(9, 12, 11));
  const auto sources = pick_sources(g, 130);
  QueryOptions bopts;
  bopts.direction = Direction::kOptimal;
  simt::Device dev;
  Engine eng(dev, g);
  const BatchBfsResult batch = eng.batch_bfs(sources, bopts);
  ASSERT_EQ(batch.num_lanes, 130u);
  QueryOptions opts;
  opts.record_predecessors = false;
  for (std::uint32_t q = 0; q < batch.num_lanes; ++q) {
    const BfsResult single = eng.bfs(sources[q], opts);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(batch.depth_at(v, q), single.depth[v])
          << "lane " << q << " vertex " << v;
  }
}

TEST(Batch, DirectedGraphDefaultsToCorrectPushTraversal) {
  // On a *directed* (non-symmetrized) CSR the pull step is illegal (it
  // probes out-edges as in-edges), which is why the default direction is
  // kPush — results on directed graphs must match single-query BFS.
  BuildOptions bo;  // symmetrize = false
  const Csr g = build_csr(rmat(10, 8, 13), bo);
  const auto sources = pick_sources(g, 5);
  simt::Device dev;
  Engine eng(dev, g);
  const BatchBfsResult batch = eng.batch_bfs(sources);  // defaults
  for (std::uint32_t q = 0; q < batch.num_lanes; ++q) {
    QueryOptions opts;
    opts.record_predecessors = false;
    const BfsResult single = eng.bfs(sources[q], opts);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(batch.depth_at(v, q), single.depth[v])
          << "lane " << q << " vertex " << v;
  }
}

TEST(Batch, SsspMatchesSingleQueryPerLane) {
  for (const Csr& g : batch_graphs()) {
    const auto sources = pick_sources(g, 7);
    simt::Device dev;
    Engine eng(dev, g);
    const BatchSsspResult batch = eng.batch_sssp(sources);
    for (std::uint32_t q = 0; q < batch.num_lanes; ++q) {
      const SsspResult single = eng.sssp(sources[q]);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(batch.dist_at(v, q), single.dist[v])
            << "lane " << q << " vertex " << v;
    }
  }
}

TEST(Batch, ReachabilityMatchesBfs) {
  const Csr g = testing::undirected(rmat(10, 16, 5));
  const auto sources = pick_sources(g, 5);
  QueryOptions bopts;
  bopts.direction = Direction::kOptimal;  // undirected: pull legal
  simt::Device dev;
  Engine eng(dev, g);
  const BatchReachabilityResult reach =
      eng.batch_reachability(sources, bopts);
  const BatchBfsResult batch = eng.batch_bfs(sources, bopts);
  for (std::uint32_t q = 0; q < reach.num_lanes; ++q)
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(reach.reachable(v, q), batch.depth_at(v, q) != kInfinity)
          << "lane " << q << " vertex " << v;
}

TEST(Batch, BcForwardMatchesSingleQueryPerLane) {
  const Csr g = testing::undirected(rmat(9, 12, 7));
  const auto sources = pick_sources(g, 5);
  simt::Device dev;
  Engine eng(dev, g);
  const BatchBcForwardResult fwd = eng.batch_bc_forward(sources);
  for (std::uint32_t q = 0; q < fwd.num_lanes; ++q) {
    const BcResult single = eng.bc(sources[q]);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(fwd.depth_at(v, q), single.depth[v])
          << "lane " << q << " vertex " << v;
      // Sigma counts are integers in doubles: sums commute exactly.
      ASSERT_EQ(fwd.sigma_at(v, q), single.sigma[v])
          << "lane " << q << " vertex " << v;
    }
  }
}

TEST(Batch, BcBatchedMatchesPerSourceSum) {
  const Csr g = testing::undirected(rmat(9, 12, 7));
  const auto sources = pick_sources(g, 5);
  simt::Device dev;
  Engine eng(dev, g);
  const std::vector<double> batched = eng.bc_batched(sources);
  std::vector<double> ref(g.num_vertices(), 0.0);
  for (const VertexId s : sources) {
    const BcResult r = eng.bc(s);
    for (VertexId v = 0; v < g.num_vertices(); ++v) ref[v] += r.bc_values[v];
  }
  // Backward deltas are genuine doubles; allow FP association slack.
  EXPECT_TRUE(testing::near_vectors(batched, ref, 1e-6));
}

TEST(Batch, BcBatchedHonorsBackend) {
  // The lane-packed forward pass runs on the caller's backend; bytes are
  // backend-independent.
  const Csr g = testing::undirected(rmat(9, 12, 7));
  const auto sources = pick_sources(g, 5);
  QueryOptions scalar;
  scalar.backend.vec = simt::VecBackend::kScalar;
  simt::Device dev;
  Engine eng(dev, g);
  const std::vector<double> ref = eng.bc_batched(sources);
  EXPECT_EQ(eng.bc_batched(sources, scalar), ref);

  BatchEnactor batch(dev);
  BcEnactor back(dev);
  BatchBcForwardResult fwd;
  std::vector<double> out;
  bc_accumulate_batched(batch, back, g, sources, scalar, fwd, out);
  EXPECT_EQ(fwd.backend, simt::VecBackend::kScalar);
  EXPECT_EQ(out, ref);
}

TEST(Batch, SsspLaneStatsSurfaceThroughResult) {
  // Per-lane near/far schedule counters ride BatchSsspResult: sized B with
  // real work recorded when the schedule runs, absent when it is off —
  // and the schedule must be invisible to the distances themselves.
  const Csr g = testing::undirected(rmat(10, 16, 5));
  const auto sources = pick_sources(g, 6);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions on;
  on.delta = 8;  // small graph: force the schedule
  const BatchSsspResult with_pq = eng.batch_sssp(sources, on);
  EXPECT_EQ(with_pq.delta, 8u);
  ASSERT_EQ(with_pq.lane_stats.size(), sources.size());
  std::uint64_t near = 0, far = 0;
  for (const PriorityQueueStats& s : with_pq.lane_stats) {
    near += s.near_total;
    far += s.far_total;
  }
  EXPECT_GT(near, 0u);
  EXPECT_GT(far, 0u);  // delta 8 on 64-weight edges must defer something

  QueryOptions off;
  off.use_priority_queue = false;
  const BatchSsspResult plain = eng.batch_sssp(sources, off);
  EXPECT_EQ(plain.delta, 0u);
  EXPECT_TRUE(plain.lane_stats.empty());
  EXPECT_EQ(plain.dist, with_pq.dist);  // scheduling, not semantics
}

TEST(Batch, SsspStaleFarMinimumStillDrainsThePile) {
  // Regression: the per-lane tracked far minimum is a lower bound — when
  // the minimum banked bit is promoted near via a cheaper path, the
  // tracker goes stale-low, and a wake jumped to stale_min + delta can
  // activate nothing. With the union frontier empty, the enactment must
  // keep advancing the drained lanes (exact minimums after the failed
  // sweep) instead of terminating with relaxations still banked.
  //
  // Shape: 0->a w10 banks a (tracked min 10); 0->b w2, b->a w4 improves a
  // to 6, promoting it (bank bit cleared, tracker stays 10); 0->hub w34
  // stays banked. When near work drains, the first wake jumps only to
  // 10 + 8 = 18 < 34 — the hub and its fan-out must still resolve.
  EdgeList el;
  el.num_vertices = 84;
  const VertexId a = 1, b = 2, hub = 3;
  el.edges.push_back(Edge{0, a, 10});
  el.edges.push_back(Edge{0, b, 2});
  el.edges.push_back(Edge{b, a, 4});
  el.edges.push_back(Edge{0, hub, 34});
  for (VertexId f = 4; f < 44; ++f) {
    el.edges.push_back(Edge{hub, f, 1});       // fan at dist 35
    el.edges.push_back(Edge{f, f + 40, 1});    // leaves at dist 36
  }
  const Csr g = build_csr(el, BuildOptions{});  // directed: exact control
  const auto oracle = serial::dijkstra(g, 0);
  ASSERT_EQ(oracle[a], 6u);
  ASSERT_EQ(oracle[hub], 34u);
  ASSERT_EQ(oracle[43 + 40], 36u);
  simt::Device dev;
  const VertexId sources[] = {0};
  QueryOptions bopts;
  bopts.delta = 8;
  const BatchSsspResult run = Engine(dev, g).batch_sssp(sources, bopts);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(run.dist_at(v, 0), oracle[v]) << "vertex " << v;
}

TEST(Batch, EnactorReuseMatchesFresh) {
  // Pooled lane masks and workspaces must be invisible to results: a second
  // enactment on a reused engine (different batch size, different
  // primitive) equals a fresh engine's.
  const Csr g = testing::undirected(rmat(10, 16, 5));
  QueryOptions bopts;
  bopts.direction = Direction::kOptimal;
  simt::Device dev;
  Engine reused(dev, g);
  const auto warm = pick_sources(g, 70);  // sizes pools for 2 words/vertex
  (void)reused.batch_bfs(warm, bopts);
  (void)reused.batch_sssp(pick_sources(g, 3));
  const auto sources = pick_sources(g, 6);
  const BatchBfsResult again = reused.batch_bfs(sources, bopts);
  const BatchBfsResult fresh = Engine(dev, g).batch_bfs(sources, bopts);
  EXPECT_EQ(again.depth, fresh.depth);
}

TEST(Batch, SingleLaneDegenerateBatch) {
  const Csr g = testing::undirected(rmat(9, 12, 7));
  const VertexId src = 3;
  simt::Device dev;
  Engine eng(dev, g);
  const BatchBfsResult batch = eng.batch_bfs({&src, 1});
  QueryOptions opts;
  opts.record_predecessors = false;
  const BfsResult single = eng.bfs(src, opts);
  EXPECT_EQ(batch.depth, single.depth);  // B=1: layouts coincide
}

TEST(Batch, ContractViolationsThrow) {
  const Csr g = testing::undirected(rmat(8, 8, 5));
  simt::Device dev;
  const VertexId oob = g.num_vertices();
  EXPECT_THROW((void)Engine(dev, g).batch_bfs({&oob, 1}), CheckError);
  EXPECT_THROW((void)Engine(dev, g).batch_bfs({}), CheckError);
  // Weightless graph (build_csr always attaches weights; construct raw):
  // batched SSSP requires weights.
  const Csr unweighted(3, {0, 1, 2, 2}, {1, 2});
  const VertexId src = 0;
  EXPECT_THROW((void)Engine(dev, unweighted).batch_sssp({&src, 1}), CheckError);
}

TEST(Batch, SummaryAccountsIterationsAndEdges) {
  const Csr g = testing::undirected(rmat(10, 16, 5));
  const auto sources = pick_sources(g, 4);
  simt::Device dev;
  const BatchBfsResult batch = Engine(dev, g).batch_bfs(sources);
  // The union traversal runs as deep as the deepest lane.
  std::uint32_t deepest = 0;
  for (std::uint32_t q = 0; q < batch.num_lanes; ++q)
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      if (batch.depth_at(v, q) != kInfinity)
        deepest = std::max(deepest, batch.depth_at(v, q));
  EXPECT_GE(batch.summary.iterations, deepest);
  EXPECT_GT(batch.summary.edges_processed, 0u);
  EXPECT_EQ(batch.summary.per_iteration.size(), batch.summary.iterations);
}

}  // namespace
}  // namespace grx
