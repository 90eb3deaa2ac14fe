#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <ranges>
#include <set>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/neighbor_reduce.hpp"
#include "core/priority_queue.hpp"
#include "graph/builder.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

/// Minimal functor that marks and collects every neighbor once (BFS step).
struct MarkFunctor {
  struct Problem {
    std::vector<std::uint8_t> seen;
  };
  static bool cond_edge(VertexId, VertexId dst, EdgeId, Problem& p) {
    return simt::atomic_cas(p.seen[dst], std::uint8_t{0},
                            std::uint8_t{1}) == 0;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, Problem&) {}
  static bool is_unvisited(VertexId v, Problem& p) { return !p.seen[v]; }
  static bool cond_vertex(VertexId, Problem&) { return true; }
  static void apply_vertex(VertexId, Problem&) {}
};

std::set<std::uint32_t> neighbors_of_set(const Csr& g,
                                         const std::vector<std::uint32_t>& in,
                                         const std::set<std::uint32_t>& skip) {
  std::set<std::uint32_t> out;
  for (auto v : in)
    for (auto u : g.neighbors(v))
      if (!skip.count(u)) out.insert(u);
  return out;
}

class AdvanceStrategyTest
    : public ::testing::TestWithParam<AdvanceStrategy> {};

TEST_P(AdvanceStrategyTest, MatchesSetExpansion) {
  const Csr g = testing::undirected(rmat(10, 8, 21));
  simt::Device dev;
  MarkFunctor::Problem p;
  p.seen.assign(g.num_vertices(), 0);

  Frontier in, out;
  std::vector<std::uint32_t> seed{1, 2, 3, 100, 200};
  for (auto v : seed) p.seen[v] = 1;
  in.assign(seed);

  AdvanceConfig cfg;
  cfg.strategy = GetParam();
  AdvanceWorkspace ws;
  const AdvanceStats stats =
      advance<MarkFunctor>(dev, g, in, out, p, cfg, ws);

  const std::set<std::uint32_t> expected = neighbors_of_set(
      g, seed, std::set<std::uint32_t>(seed.begin(), seed.end()));
  const std::set<std::uint32_t> got(out.items().begin(), out.items().end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(out.items().size(), got.size()) << "atomic claim must dedup";
  // Every frontier edge is visited exactly once.
  std::uint64_t deg_sum = 0;
  for (auto v : seed) deg_sum += g.degree(v);
  EXPECT_EQ(stats.edges_processed, deg_sum);
  EXPECT_GT(dev.counters().kernel_launches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, AdvanceStrategyTest,
                         ::testing::Values(AdvanceStrategy::kThreadFine,
                                           AdvanceStrategy::kTwc,
                                           AdvanceStrategy::kLoadBalanced,
                                           AdvanceStrategy::kAuto),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Advance, PullMatchesPush) {
  const Csr g = testing::undirected(rmat(9, 6, 31));
  simt::Device dev;

  // Mark a large frontier, then expand once in each direction.
  std::vector<std::uint32_t> seed;
  for (std::uint32_t v = 0; v < g.num_vertices(); v += 3) seed.push_back(v);

  auto run = [&](Direction dir) {
    MarkFunctor::Problem p;
    p.seen.assign(g.num_vertices(), 0);
    for (auto v : seed) p.seen[v] = 1;
    Frontier in, out;
    in.assign(seed);
    AdvanceConfig cfg;
    cfg.direction = dir;
    AdvanceWorkspace ws;
    advance<MarkFunctor>(dev, g, in, out, p, cfg, ws);
    return std::set<std::uint32_t>(out.items().begin(), out.items().end());
  };

  EXPECT_EQ(run(Direction::kPush), run(Direction::kPull));
}

TEST(Advance, PullVisitsFewerEdgesOnLargeFrontier) {
  const Csr g = testing::undirected(rmat(10, 16, 33));
  simt::Device dev;
  std::vector<std::uint32_t> seed;
  for (std::uint32_t v = 0; v < g.num_vertices(); v += 2) seed.push_back(v);

  std::uint64_t push_edges = 0, pull_probes = 0;
  for (Direction dir : {Direction::kPush, Direction::kPull}) {
    MarkFunctor::Problem p;
    p.seen.assign(g.num_vertices(), 0);
    for (auto v : seed) p.seen[v] = 1;
    Frontier in, out;
    in.assign(seed);
    AdvanceConfig cfg;
    cfg.direction = dir;
    AdvanceWorkspace ws;
    const auto stats = advance<MarkFunctor>(dev, g, in, out, p, cfg, ws);
    (dir == Direction::kPush ? push_edges : pull_probes) =
        stats.edges_processed;
  }
  // Pull stops each unvisited vertex's scan at its first frontier parent.
  EXPECT_LT(pull_probes, push_edges);
}

TEST(Advance, EmptyFrontierProducesEmptyOutput) {
  const Csr g = testing::undirected(path_graph(8));
  simt::Device dev;
  MarkFunctor::Problem p;
  p.seen.assign(g.num_vertices(), 0);
  Frontier in, out;
  AdvanceConfig cfg;
  AdvanceWorkspace ws;
  const auto stats = advance<MarkFunctor>(dev, g, in, out, p, cfg, ws);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.edges_processed, 0u);
}

struct PassFilter {
  struct Problem {
    std::vector<std::uint8_t> keep;
    int applied = 0;
  };
  static bool cond_vertex(VertexId v, Problem& p) { return p.keep[v]; }
  static void apply_vertex(VertexId, Problem& p) {
    simt::atomic_add(p.applied, 1);
  }
};

TEST(Filter, KeepsOnlyPassingAndApplies) {
  simt::Device dev;
  PassFilter::Problem p;
  p.keep = {1, 0, 1, 0, 1};
  std::vector<std::uint32_t> in{0, 1, 2, 3, 4};
  std::vector<std::uint32_t> out;
  FilterWorkspace ws;
  const FilterStats s =
      filter_vertices<PassFilter>(dev, in, out, p, FilterConfig{}, ws);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(p.applied, 3);
  EXPECT_EQ(s.inputs, 5u);
  EXPECT_EQ(s.outputs, 3u);
}

TEST(Filter, HistoryHeuristicCullsDuplicates) {
  simt::Device dev;
  PassFilter::Problem p;
  p.keep.assign(8, 1);
  // Heavily duplicated frontier, as an idempotent advance would produce.
  std::vector<std::uint32_t> in;
  for (int rep = 0; rep < 50; ++rep)
    for (std::uint32_t v = 0; v < 4; ++v) in.push_back(v);
  std::vector<std::uint32_t> out;
  FilterConfig cfg;
  cfg.dedup_heuristic = true;
  FilterWorkspace ws;
  const FilterStats s = filter_vertices<PassFilter>(dev, in, out, p, cfg, ws);
  EXPECT_GT(s.culled_by_history, 100u);  // most duplicates die
  // Heuristic is best-effort: survivors must still be a superset of the
  // distinct values.
  const std::set<std::uint32_t> distinct(out.begin(), out.end());
  EXPECT_EQ(distinct, (std::set<std::uint32_t>{0, 1, 2, 3}));
}

struct EdgeProblem {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return edges[e];
  }
};

struct KeepDifferent {
  static bool cond_edge(VertexId s, VertexId d, EdgeId, EdgeProblem&) {
    return s != d;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, EdgeProblem&) {}
};

TEST(Filter, EdgeFrontierFilter) {
  simt::Device dev;
  EdgeProblem p;
  p.edges = {{0, 1}, {2, 2}, {3, 4}};
  std::vector<std::uint32_t> in{0, 1, 2}, out;
  FilterWorkspace ws;
  const FilterStats s = filter_edges<KeepDifferent>(dev, in, out, p, ws);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(s.outputs, 2u);
}

TEST(PriorityQueue, SplitsByPredicate) {
  simt::Device dev;
  std::vector<std::uint32_t> items{1, 5, 2, 8, 3};
  std::vector<std::uint32_t> near, far;
  PriorityQueueStats stats;
  SplitWorkspace ws;
  split_near_far(dev, items, near, &far,
                 [](std::size_t, std::uint32_t v) { return v < 4; }, ws,
                 &stats);
  std::sort(near.begin(), near.end());
  std::sort(far.begin(), far.end());
  EXPECT_EQ(near, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(far, (std::vector<std::uint32_t>{5, 8}));
  EXPECT_EQ(stats.splits, 1u);
}

TEST(PriorityQueue, FarAppends) {
  simt::Device dev;
  std::vector<std::uint32_t> far{99};
  std::vector<std::uint32_t> near;
  SplitWorkspace ws;
  split_near_far(dev, std::vector<std::uint32_t>{1, 9}, near, &far,
                 [](std::size_t, std::uint32_t v) { return v < 4; }, ws);
  EXPECT_EQ(far.size(), 2u);  // 99 kept, 9 appended
}

TEST(PriorityQueue, NullFarCompactsByPosition) {
  simt::Device dev;
  std::vector<std::uint32_t> near;
  SplitWorkspace ws;
  // The predicate sees each item's position; misses are dropped.
  split_near_far(dev, std::views::iota(0u, 100u), near, nullptr,
                 [](std::size_t i, std::uint32_t v) {
                   return i == v && v % 7 == 0;
                 },
                 ws);
  std::vector<std::uint32_t> want;
  for (std::uint32_t v = 0; v < 100; v += 7) want.push_back(v);
  EXPECT_EQ(near, want);
}

TEST(Compute, RunsOnEveryElement) {
  simt::Device dev;
  Frontier f;
  f.assign({2, 4, 6});
  struct P {
    std::uint32_t sum = 0;
  } p;
  compute(dev, f, p,
          [](std::uint32_t v, P& prob) { simt::atomic_add(prob.sum, v); });
  EXPECT_EQ(p.sum, 12u);
}

/// Device time of the reduce kernels only, by name: what the whole-range
/// and frontier forms share (the frontier form adds its degree gather, scan
/// and sorted search around them).
std::map<std::string, double> reduce_kernel_us(const simt::Device& dev) {
  std::map<std::string, double> us;
  for (const auto& k : dev.kernel_log())
    if (k.name.starts_with("neighbor_reduce")) us[k.name] += k.time_us;
  return us;
}

TEST(NeighborReduce, WholeRangeMatchesIotaFrontier) {
  // Directed rmat (skewed: kAuto takes edge chunks) and a road grid (even
  // degrees: kAuto stays per-warp), each with zero-degree rows inside and
  // isolated vertices trailing the id range.
  EdgeList skewed = rmat(12, 8, 11);
  skewed.num_vertices += 100;
  EdgeList even = road_grid(80, 80, 0.0, 0.0, 3);
  even.num_vertices += 37;
  BuildOptions sym;
  sym.symmetrize = true;
  const Csr rmat_g = build_csr(skewed);
  const Csr grid_g = build_csr(even, sym);
  ASSERT_EQ(rmat_g.degree(rmat_g.num_vertices() - 1), 0u);
  ASSERT_EQ(grid_g.degree(grid_g.num_vertices() - 1), 0u);
  struct NullProblem {};
  // Order-sensitive double sums: any change of fold order shows in the
  // bytes.
  const auto map = [](VertexId, VertexId u, EdgeId e, NullProblem&) {
    return 1.0 / (1.0 + u) + 1e-3 * static_cast<double>(e % 7);
  };
  const auto sum = [](double a, double b) { return a + b; };
  for (const auto& [g, auto_chunked] :
       {std::pair{&rmat_g, true}, std::pair{&grid_g, false}}) {
    ASSERT_GE(g->num_vertices(), AdvanceConfig{}.lb_node_edge_threshold);
    Frontier iota;
    iota.assign_iota(g->num_vertices());
    for (AdvanceStrategy s :
         {AdvanceStrategy::kAuto, AdvanceStrategy::kLoadBalanced,
          AdvanceStrategy::kTwc}) {
      AdvanceConfig cfg;
      cfg.strategy = s;
      NullProblem p;
      simt::Device frontier_dev, whole_dev;
      frontier_dev.set_profiling(true);
      whole_dev.set_profiling(true);
      AdvanceWorkspace frontier_ws, whole_ws;
      std::vector<double> want, got;
      const std::uint64_t want_edges = neighbor_reduce<double>(
          frontier_dev, *g, iota, want, p, 0.0, map, sum, cfg, frontier_ws);
      WholeGatherPlan plan;
      plan_whole_gather(whole_dev, *g, cfg, plan);
      const std::uint64_t got_edges = neighbor_reduce_all<double>(
          whole_dev, *g, plan, got, p, 0.0, map, sum, whole_ws);
      const bool chunked =
          s == AdvanceStrategy::kLoadBalanced ||
          (s == AdvanceStrategy::kAuto && auto_chunked);
      EXPECT_EQ(plan.edge_chunked, chunked);
      EXPECT_EQ(got_edges, want_edges);
      EXPECT_EQ(got_edges, g->num_edges());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0)
          << "strategy " << static_cast<int>(s);
      EXPECT_EQ(reduce_kernel_us(whole_dev), reduce_kernel_us(frontier_dev));
      EXPECT_EQ(reduce_kernel_us(whole_dev).count("neighbor_reduce_lb"),
                chunked ? 1u : 0u);
      // The sweep itself pays for no degree gather or scan.
      for (const auto& k : whole_dev.kernel_log())
        EXPECT_TRUE(k.name.starts_with("neighbor_reduce") ||
                    k.name == "lb_search")
            << k.name;
    }
  }
}

TEST(Frontier, BitmapConversion) {
  Frontier f;
  f.assign({1, 3, 5});
  AtomicBitset bm(8);
  frontier_to_bitmap(f, bm);
  EXPECT_TRUE(bm.test(1));
  EXPECT_TRUE(bm.test(3));
  EXPECT_FALSE(bm.test(0));
  EXPECT_EQ(bm.count(), 3u);
}

TEST(Frontier, AssignHelpers) {
  Frontier f;
  f.assign_single(7);
  EXPECT_EQ(f.size(), 1u);
  f.assign_iota(5);
  EXPECT_EQ(f.size(), 5u);
  EXPECT_EQ(f.items()[4], 4u);
  f.clear();
  EXPECT_TRUE(f.empty());
}

TEST(Frontier, SwapPreservesKind) {
  Frontier a(FrontierKind::kVertex), b(FrontierKind::kVertex);
  a.assign({1, 2});
  b.assign({3});
  a.swap(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(a.kind(), FrontierKind::kVertex);
  // Swapping a vertex frontier with an edge frontier would silently trade
  // kinds through the double-buffer; it is a contract violation.
  Frontier e(FrontierKind::kEdge);
  EXPECT_THROW(a.swap(e), CheckError);
}

TEST(Filter, HistoryInvalidatedByNewGeneration) {
  // Regression test: a vertex recorded in the history table by a previous
  // enactment must not be culled from a fresh traversal on the same
  // workspace. new_generation() (called by EnactorBase::begin_enact)
  // invalidates the whole table in O(1).
  simt::Device dev;
  struct P {
  } p;
  struct PassAll {
    static bool cond_vertex(VertexId, P&) { return true; }
    static void apply_vertex(VertexId, P&) {}
  };
  FilterConfig cfg;
  cfg.dedup_heuristic = true;
  FilterWorkspace ws;
  std::vector<std::uint32_t> in{5, 5, 9}, out;
  FilterStats s = filter_vertices<PassAll>(dev, in, out, p, cfg, ws);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{5, 9}));
  EXPECT_EQ(s.culled_by_history, 1u);

  // Without a generation bump, 5 and 9 are still "seen" and get culled.
  std::vector<std::uint32_t> in2{5, 9, 11};
  s = filter_vertices<PassAll>(dev, in2, out, p, cfg, ws);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{11}));

  // A fresh enactment must see all of them again.
  ws.new_generation();
  s = filter_vertices<PassAll>(dev, in2, out, p, cfg, ws);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{5, 9, 11}));
  EXPECT_EQ(s.culled_by_history, 0u);
}

}  // namespace
}  // namespace grx
