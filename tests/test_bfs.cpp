#include <gtest/gtest.h>

#include <tuple>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

// Sweep: every advance strategy x direction x idempotence must agree with
// the serial oracle on every dataset analog.
using BfsParam = std::tuple<std::string, AdvanceStrategy, Direction, bool>;

class BfsSweep : public ::testing::TestWithParam<BfsParam> {};

TEST_P(BfsSweep, MatchesSerialOracle) {
  const auto& [ds, strategy, direction, idempotent] = GetParam();
  const Csr g = build_dataset(ds, /*shrink=*/5);
  const VertexId source = 0;
  const auto oracle = serial::bfs(g, source);

  simt::Device dev;
  QueryOptions opts;
  opts.strategy = strategy;
  opts.direction = direction;
  opts.idempotent = idempotent;
  const BfsResult r = Engine(dev, g).bfs(source, opts);
  ASSERT_EQ(r.depth.size(), oracle.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.depth[v], oracle[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsSweep,
    ::testing::Combine(
        ::testing::Values("soc-orkut-s", "roadnet-s", "kron-s"),
        ::testing::Values(AdvanceStrategy::kThreadFine, AdvanceStrategy::kTwc,
                          AdvanceStrategy::kLoadBalanced,
                          AdvanceStrategy::kAuto),
        ::testing::Values(Direction::kPush, Direction::kOptimal),
        ::testing::Bool()),
    [](const auto& info) {
      const std::string ds = std::get<0>(info.param);
      std::string name = ds.substr(0, ds.find('-'));
      name += std::string("_") + to_string(std::get<1>(info.param)) + "_" +
              to_string(std::get<2>(info.param)) +
              (std::get<3>(info.param) ? "_idem" : "_atomic");
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Bfs, PathGraphDepths) {
  const Csr g = testing::undirected(path_graph(10));
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(r.depth[v], v);
}

TEST(Bfs, DisconnectedRemainsInfinity) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 1, 1}};  // 2, 3 isolated
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  EXPECT_EQ(r.depth[1], 1u);
  EXPECT_EQ(r.depth[2], kInfinity);
  EXPECT_EQ(r.depth[3], kInfinity);
}

TEST(Bfs, PredecessorsFormValidTree) {
  const Csr g = testing::random_graph(512, 2048, 77);
  simt::Device dev;
  QueryOptions opts;
  opts.idempotent = false;  // exact parents
  const BfsResult r = Engine(dev, g).bfs(3, opts);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == 3 || r.depth[v] == kInfinity) continue;
    const VertexId p = r.pred[v];
    ASSERT_NE(p, kInvalidVertex) << v;
    EXPECT_EQ(r.depth[v], r.depth[p] + 1) << v;
    // p must actually be a neighbor of v.
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), p) != nbrs.end());
  }
}

TEST(Bfs, SingleVertexGraph) {
  EdgeList el;
  el.num_vertices = 1;
  const Csr g = build_csr(el);
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  EXPECT_EQ(r.depth[0], 0u);
  EXPECT_EQ(r.summary.iterations, 1u);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Csr g = testing::undirected(path_graph(4));
  simt::Device dev;
  EXPECT_THROW(Engine(dev, g).bfs(99), CheckError);
}

TEST(Bfs, DirectionOptimalActuallyPulls) {
  // Scale-free graph: the frontier balloons, so kOptimal must switch.
  const Csr g = build_dataset("kron-s", /*shrink=*/4);
  simt::Device dev;
  QueryOptions opts;
  opts.direction = Direction::kOptimal;
  const BfsResult r = Engine(dev, g).bfs(0, opts);
  bool pulled = false;
  for (const auto& it : r.summary.per_iteration) pulled |= it.used_pull;
  EXPECT_TRUE(pulled);
}

TEST(Bfs, IdempotentVisitsAtLeastAsManyEdges) {
  const Csr g = build_dataset("soc-orkut-s", /*shrink=*/5);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions idem, atomic;
  idem.idempotent = true;
  atomic.idempotent = false;
  const auto ri = eng.bfs(0, idem);
  const auto ra = eng.bfs(0, atomic);
  // Duplicates make the idempotent variant traverse >= the exact one...
  EXPECT_GE(ri.summary.edges_processed, ra.summary.edges_processed);
  // ...but skipping atomics should still make it cheaper in device time on
  // scale-free graphs (Figure 8, middle).
  EXPECT_LT(ri.summary.device_time_ms, ra.summary.device_time_ms);
}

TEST(Bfs, SummaryAccounting) {
  const Csr g = testing::undirected(complete_graph(32));
  simt::Device dev;
  const BfsResult r = Engine(dev, g).bfs(0);
  EXPECT_EQ(r.summary.iterations, 2u);  // one expansion + empty check
  EXPECT_GT(r.summary.device_time_ms, 0.0);
  EXPECT_GT(r.summary.counters.kernel_launches, 0u);
  EXPECT_EQ(r.summary.per_iteration.size(), r.summary.iterations);
}

}  // namespace
}  // namespace grx
