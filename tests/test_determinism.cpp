// Determinism guarantees of the two-phase output assembler: advance and
// filter outputs are byte-identical regardless of how many host threads ran
// the kernel (per-chunk staging + scan placement, no per-thread drain
// order), and all push strategies emit the same frontier in the same order
// (accepted edges sorted by frontier position, then CSR edge index).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "api/engine.hpp"
#include "core/advance.hpp"
#include "core/filter.hpp"
#include "core/neighbor_reduce.hpp"
#include "core/priority_queue.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

struct NullProblem {
  std::vector<std::pair<VertexId, VertexId>> edges;  // for filter_edges
  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return edges[e];
  }
};

/// Stateless accept decisions: repeated runs (across thread counts and
/// strategies) see identical functor behavior, so any output difference can
/// only come from the assembly path itself.
struct StatelessFunctor {
  static bool cond_edge(VertexId, VertexId dst, EdgeId, NullProblem&) {
    return ((dst * 2654435761u) >> 29) != 0;  // deterministic ~87% accept
  }
  static void apply_edge(VertexId, VertexId, EdgeId, NullProblem&) {}
  static bool is_unvisited(VertexId v, NullProblem&) {
    return ((v * 40503u) & 3u) != 0;  // deterministic ~75% "unvisited"
  }
  static bool cond_vertex(VertexId v, NullProblem&) {
    return ((v * 2246822519u) >> 30) != 0;
  }
  static void apply_vertex(VertexId, NullProblem&) {}
};

std::vector<std::uint32_t> every_kth_vertex(const Csr& g, std::uint32_t k) {
  std::vector<std::uint32_t> out;
  for (VertexId v = 0; v < g.num_vertices(); v += k) out.push_back(v);
  return out;
}

class ThreadRestorer {
 public:
  ThreadRestorer() : saved_(omp_get_max_threads()) {}
  ~ThreadRestorer() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

std::vector<Csr> test_graphs() {
  std::vector<Csr> gs;
  gs.push_back(testing::undirected(rmat(11, 16, 5)));        // power-law
  gs.push_back(testing::undirected(erdos_renyi(2048, 16384, 9)));  // uniform
  return gs;
}

std::vector<std::uint32_t> run_advance(const Csr& g,
                                       const std::vector<std::uint32_t>& seed,
                                       AdvanceStrategy strategy,
                                       Direction dir = Direction::kPush) {
  simt::Device dev;
  NullProblem p;
  Frontier in, out;
  in.assign(seed);
  AdvanceConfig cfg;
  cfg.strategy = strategy;
  cfg.direction = dir;
  AdvanceWorkspace ws;
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, ws);
  return out.items();
}

constexpr AdvanceStrategy kAllStrategies[] = {
    AdvanceStrategy::kThreadFine, AdvanceStrategy::kTwc,
    AdvanceStrategy::kLoadBalanced, AdvanceStrategy::kAuto};

TEST(Determinism, AdvanceIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    for (AdvanceStrategy s : kAllStrategies) {
      omp_set_num_threads(1);
      const auto ref = run_advance(g, seed, s);
      ASSERT_FALSE(ref.empty());
      for (int threads : {4, 16}) {
        omp_set_num_threads(threads);
        EXPECT_EQ(run_advance(g, seed, s), ref)
            << to_string(s) << " with " << threads << " threads";
      }
    }
  }
}

TEST(Determinism, AdvanceIdenticalAcrossStrategies) {
  // All push strategies place accepted edges at their (frontier position,
  // edge index) rank, so the emitted frontier is identical — not just as a
  // set, but element for element.
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    const auto ref = run_advance(g, seed, AdvanceStrategy::kThreadFine);
    ASSERT_FALSE(ref.empty());
    for (AdvanceStrategy s :
         {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
          AdvanceStrategy::kAuto}) {
      EXPECT_EQ(run_advance(g, seed, s), ref) << to_string(s);
    }
  }
}

TEST(Determinism, AdvanceLbNodeAndEdgeChunkingAgree) {
  // Force both LB mappings across the node/edge threshold boundary.
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 2);
    simt::Device dev;
    NullProblem p;
    Frontier in, out_nodes, out_edges;
    in.assign(seed);
    AdvanceConfig cfg;
    cfg.strategy = AdvanceStrategy::kLoadBalanced;
    AdvanceWorkspace ws;
    cfg.lb_node_edge_threshold = 0xffffffffu;  // always chunk by nodes
    advance<StatelessFunctor>(dev, g, in, out_nodes, p, cfg, ws);
    cfg.lb_node_edge_threshold = 0;  // always chunk by edges
    advance<StatelessFunctor>(dev, g, in, out_edges, p, cfg, ws);
    EXPECT_EQ(out_nodes.items(), out_edges.items());
  }
}

TEST(Determinism, PullAdvanceIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    omp_set_num_threads(1);
    const auto ref =
        run_advance(g, seed, AdvanceStrategy::kAuto, Direction::kPull);
    ASSERT_FALSE(ref.empty());
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      EXPECT_EQ(run_advance(g, seed, AdvanceStrategy::kAuto, Direction::kPull),
                ref)
          << threads << " threads";
    }
  }
}

TEST(Determinism, FilterPreservesInputOrder) {
  ThreadRestorer restore;
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto in = every_kth_vertex(g, 1);
  // Reference: a serial copy_if over the input.
  std::vector<std::uint32_t> ref;
  NullProblem p;
  for (std::uint32_t v : in)
    if (StatelessFunctor::cond_vertex(v, p)) ref.push_back(v);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> out;
    FilterWorkspace ws;
    filter_vertices<StatelessFunctor>(dev, in, out, p, FilterConfig{}, ws);
    EXPECT_EQ(out, ref) << threads << " threads";
  }
}

TEST(Determinism, FilterEdgesPreservesInputOrder) {
  ThreadRestorer restore;
  NullProblem p;
  for (std::uint32_t e = 0; e < 4096; ++e)
    p.edges.emplace_back(e % 61, (e * 7) % 61);
  struct KeepDifferent {
    static bool cond_edge(VertexId s, VertexId d, EdgeId, NullProblem&) {
      return s != d;
    }
    static void apply_edge(VertexId, VertexId, EdgeId, NullProblem&) {}
  };
  std::vector<std::uint32_t> in(p.edges.size());
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = i;
  std::vector<std::uint32_t> ref;
  for (std::uint32_t e : in)
    if (p.edges[e].first != p.edges[e].second) ref.push_back(e);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> out;
    FilterWorkspace ws;
    filter_edges<KeepDifferent>(dev, in, out, p, ws);
    EXPECT_EQ(out, ref) << threads << " threads";
  }
}

TEST(Determinism, DedupFilterNeverDropsDistinctVertices) {
  // The history cull is best-effort under parallelism (racing duplicates
  // may slip through — never the reverse): every distinct vertex survives
  // at every thread count, and a serial pass with a table covering the id
  // space culls duplicates exactly.
  ThreadRestorer restore;
  std::vector<std::uint32_t> in;
  for (std::uint32_t i = 0; i < 20000; ++i) in.push_back((i * 97u) % 4096u);
  std::vector<std::uint32_t> expected(in.begin(), in.end());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  struct PassAll {
    static bool cond_vertex(VertexId, NullProblem&) { return true; }
    static void apply_vertex(VertexId, NullProblem&) {}
  };
  FilterConfig cfg;
  cfg.dedup_heuristic = true;
  cfg.history_bits = 12;  // table covers ids [0, 4096)
  NullProblem p;
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    FilterWorkspace ws;
    std::vector<std::uint32_t> out;
    const FilterStats s = filter_vertices<PassAll>(dev, in, out, p, cfg, ws);
    // Survivors + culled account for every input; nothing vanishes.
    EXPECT_EQ(out.size() + s.culled_by_history, in.size())
        << threads << " threads";
    std::sort(out.begin(), out.end());
    if (threads == 1) {
      EXPECT_EQ(out, expected);  // serial + covering table: exact cull
    } else {
      // Parallel: every distinct vertex still present at least once.
      out.erase(std::unique(out.begin(), out.end()), out.end());
      EXPECT_EQ(out, expected) << threads << " threads";
    }
  }
}

TEST(Determinism, SplitNearFarPreservesInputOrder) {
  ThreadRestorer restore;
  std::vector<std::uint32_t> items(5000);
  for (std::uint32_t i = 0; i < items.size(); ++i)
    items[i] = (i * 2654435761u) >> 16;
  auto is_near = [](std::uint32_t v) { return (v & 1u) == 0; };
  std::vector<std::uint32_t> ref_near, ref_far{777u};  // far pile appends
  for (std::uint32_t v : items)
    (is_near(v) ? ref_near : ref_far).push_back(v);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> near, far{777u};
    SplitWorkspace ws;
    split_near_far(
        dev, items, near, &far,
        [&](std::size_t, std::uint32_t v) { return is_near(v); }, ws);
    EXPECT_EQ(near, ref_near) << threads << " threads";
    EXPECT_EQ(far, ref_far) << threads << " threads";
  }
}

// --- batched traversal ------------------------------------------------------
//
// The batch engine's lane updates are commutative (OR, equal-value depth
// stores, atomicMin), so batched *results* must be byte-identical across
// host thread counts AND equal, lane for lane, to B independent
// single-query runs. B > 64 exercises the multi-word mask path.

using testing::scattered_sources;

TEST(Determinism, BatchBfsIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  // Direction-optimal (legal: test_graphs() are symmetrized), so both the
  // push advance and the batch pull step are exercised.
  QueryOptions bopts;
  bopts.direction = Direction::kOptimal;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    omp_set_num_threads(1);
    simt::Device dev;
    const BatchBfsResult ref = Engine(dev, g).batch_bfs(sources, bopts);
    // Per-lane cross-check against independent single-query runs.
    QueryOptions opts;
    opts.record_predecessors = false;
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const BfsResult single = Engine(dev, g).bfs(sources[q], opts);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.depth_at(v, q), single.depth[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      const BatchBfsResult run = Engine(dev, g).batch_bfs(sources, bopts);
      EXPECT_EQ(run.depth, ref.depth) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, BatchSsspIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    omp_set_num_threads(1);
    simt::Device dev;
    const BatchSsspResult ref = Engine(dev, g).batch_sssp(sources);
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const SsspResult single = Engine(dev, g).sssp(sources[q]);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.dist_at(v, q), single.dist[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      const BatchSsspResult run = Engine(dev, g).batch_sssp(sources);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
    }
  }
}

TEST(Determinism, BatchBcForwardIdenticalAcrossThreadCounts) {
  // Sigma values are integer counts stored in doubles, so the atomic adds
  // commute exactly and the forward pass is byte-deterministic too.
  ThreadRestorer restore;
  const Csr g = testing::undirected(rmat(10, 16, 5));
  const auto sources = scattered_sources(g, 67);
  omp_set_num_threads(1);
  simt::Device dev;
  const BatchBcForwardResult ref = Engine(dev, g).batch_bc_forward(sources);
  for (int threads : {4, 16}) {
    omp_set_num_threads(threads);
    const BatchBcForwardResult run = Engine(dev, g).batch_bc_forward(sources);
    EXPECT_EQ(run.depth, ref.depth) << threads << " threads";
    EXPECT_EQ(run.sigma, ref.sigma) << threads << " threads";
  }
}

// --- priority-frontier SSSP --------------------------------------------------
//
// The near/far schedule adds scheduling state (cutoffs, piles, per-lane
// levels) on top of the assembler guarantees. Pile membership is a pure
// function of post-advance distances and cutoffs, and all tallies are
// commutative sums/mins, so distances, iteration counts, and the schedule
// stats themselves must be byte-identical across 1/2/4/8 host threads and
// across every advance strategy. The single-query runs take the default
// push/pull switch, so pull rounds (one writer per vertex) are among the
// rounds compared.

bool any_pull(const SsspResult& r) {
  return std::any_of(r.summary.per_iteration.begin(),
                     r.summary.per_iteration.end(),
                     [](const IterationStats& s) { return s.used_pull; });
}

TEST(Determinism, SsspNearFarIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    QueryOptions opts;
    opts.delta = 16;  // force a fine schedule (many splits)
    omp_set_num_threads(1);
    simt::Device dev;
    const SsspResult ref = Engine(dev, g).sssp(3, opts);
    ASSERT_GT(ref.pq_stats.splits, 0u);
    ASSERT_TRUE(any_pull(ref));
    for (int threads : {2, 4, 8}) {
      omp_set_num_threads(threads);
      const SsspResult run = Engine(dev, g).sssp(3, opts);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
      EXPECT_EQ(run.pq_stats, ref.pq_stats) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, SsspNearFarIdenticalAcrossStrategies) {
  for (const Csr& g : test_graphs()) {
    simt::Device dev;
    QueryOptions opts;
    opts.delta = 16;
    opts.strategy = AdvanceStrategy::kThreadFine;
    const SsspResult ref = Engine(dev, g).sssp(3, opts);
    ASSERT_TRUE(any_pull(ref));
    for (AdvanceStrategy s :
         {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
          AdvanceStrategy::kAuto}) {
      opts.strategy = s;
      const SsspResult run = Engine(dev, g).sssp(3, opts);
      EXPECT_EQ(run.dist, ref.dist) << to_string(s);
      EXPECT_EQ(run.pq_stats, ref.pq_stats) << to_string(s);
    }
  }
}

TEST(Determinism, BatchSsspNearFarIdenticalAcrossThreadCounts) {
  // B = 67 exercises the multi-word mask path through the claim+split and
  // wake kernels; per-lane stats must match cell for cell, not just the
  // distance matrix.
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    QueryOptions bopts;
    bopts.delta = 16;
    omp_set_num_threads(1);
    simt::Device dev;
    const BatchSsspResult ref = Engine(dev, g).batch_sssp(sources, bopts);
    ASSERT_EQ(ref.lane_stats.size(), sources.size());
    std::uint64_t total_splits = 0;
    for (const PriorityQueueStats& s : ref.lane_stats)
      total_splits += s.splits;
    ASSERT_GT(total_splits, 0u);
    // Per-lane ground truth: every lane equals its single-query run.
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const SsspResult single = Engine(dev, g).sssp(sources[q]);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.dist_at(v, q), single.dist[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {2, 8}) {
      omp_set_num_threads(threads);
      const BatchSsspResult run = Engine(dev, g).batch_sssp(sources, bopts);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
      EXPECT_EQ(run.lane_stats, ref.lane_stats) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, BatchSsspNearFarIdenticalAcrossStrategies) {
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto sources = scattered_sources(g, 67);
  simt::Device dev;
  QueryOptions bopts;
  bopts.delta = 16;
  bopts.strategy = AdvanceStrategy::kThreadFine;
  const BatchSsspResult ref = Engine(dev, g).batch_sssp(sources, bopts);
  for (AdvanceStrategy s :
       {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
        AdvanceStrategy::kAuto}) {
    bopts.strategy = s;
    const BatchSsspResult run = Engine(dev, g).batch_sssp(sources, bopts);
    EXPECT_EQ(run.dist, ref.dist) << to_string(s);
    EXPECT_EQ(run.lane_stats, ref.lane_stats) << to_string(s);
    EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
        << to_string(s);
  }
}

// --- vector backend axis -----------------------------------------------------
//
// The lane-word kernels (simt/vec.hpp) promise byte parity across
// backends: kScalar is the reference semantics, and every vector path must
// reproduce its frontiers, labels, per-lane schedule stats, iteration
// counts, and even the pull probe counts (edges_processed feeds the cost
// model) bit for bit. B = 67 keeps the multi-word mask path in play.

constexpr simt::VecBackend kVecRequests[] = {
    simt::VecBackend::kAvx2, simt::VecBackend::kAvx512,
    simt::VecBackend::kAuto};

TEST(Determinism, BatchResultsIdenticalAcrossVecBackends) {
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    simt::Device dev;
    QueryOptions sopts;
    sopts.direction = Direction::kOptimal;  // exercise the batch pull step
    sopts.delta = 16;                       // and the claim-split/wake path
    sopts.backend.vec = simt::VecBackend::kScalar;
    const BatchBfsResult bfs_ref = Engine(dev, g).batch_bfs(sources, sopts);
    const BatchSsspResult sssp_ref =
        Engine(dev, g).batch_sssp(sources, sopts);
    const BatchReachabilityResult reach_ref =
        Engine(dev, g).batch_reachability(sources, sopts);
    const BatchBcForwardResult bc_ref =
        Engine(dev, g).batch_bc_forward(sources, sopts);
    ASSERT_EQ(bfs_ref.backend, simt::VecBackend::kScalar);
    for (const simt::VecBackend req : kVecRequests) {
      QueryOptions o = sopts;
      o.backend.vec = req;
      const BatchBfsResult bfs = Engine(dev, g).batch_bfs(sources, o);
      EXPECT_EQ(bfs.backend, simt::resolve_backend(req)) << to_string(req);
      EXPECT_EQ(bfs.depth, bfs_ref.depth) << to_string(req);
      EXPECT_EQ(bfs.summary.iterations, bfs_ref.summary.iterations)
          << to_string(req);
      EXPECT_EQ(bfs.summary.edges_processed, bfs_ref.summary.edges_processed)
          << to_string(req);
      const BatchSsspResult sssp = Engine(dev, g).batch_sssp(sources, o);
      EXPECT_EQ(sssp.dist, sssp_ref.dist) << to_string(req);
      EXPECT_EQ(sssp.lane_stats, sssp_ref.lane_stats) << to_string(req);
      EXPECT_EQ(sssp.delta, sssp_ref.delta) << to_string(req);
      EXPECT_EQ(sssp.summary.iterations, sssp_ref.summary.iterations)
          << to_string(req);
      const BatchReachabilityResult reach =
          Engine(dev, g).batch_reachability(sources, o);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        for (std::uint32_t w = 0; w < reach.visited.words_per_vertex(); ++w)
          ASSERT_EQ(reach.visited.row(v)[w], reach_ref.visited.row(v)[w])
              << to_string(req) << " vertex " << v << " word " << w;
      const BatchBcForwardResult bc =
          Engine(dev, g).batch_bc_forward(sources, o);
      EXPECT_EQ(bc.depth, bc_ref.depth) << to_string(req);
      EXPECT_EQ(bc.sigma, bc_ref.sigma) << to_string(req);
    }
  }
}

TEST(Determinism, WorkspaceReuseMatchesFreshWorkspace) {
  // Pooled workspaces must be invisible to results: running a second,
  // different advance on a reused workspace gives the same output as a
  // fresh one.
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto big = every_kth_vertex(g, 2);
  const auto small = every_kth_vertex(g, 17);
  AdvanceWorkspace reused;
  simt::Device dev;
  NullProblem p;
  AdvanceConfig cfg;
  Frontier in, out;
  in.assign(big);
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, reused);
  in.assign(small);
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, reused);
  EXPECT_EQ(out.items(), run_advance(g, small, AdvanceStrategy::kAuto));
}

/// Rows of the given out-degrees; row v's j-th edge points at (v+1+j) mod n
/// with integer weight (e * 7919) mod 1000 + 1.
Csr graph_with_degrees(const std::vector<std::uint32_t>& degrees) {
  const auto n = static_cast<VertexId>(degrees.size());
  std::vector<EdgeId> offsets{0};
  std::vector<VertexId> cols;
  std::vector<Weight> weights;
  for (VertexId v = 0; v < n; ++v) {
    for (std::uint32_t j = 0; j < degrees[v]; ++j) {
      cols.push_back((v + 1 + j) % n);
      weights.push_back(static_cast<Weight>(cols.size() * 7919 % 1000 + 1));
    }
    offsets.push_back(cols.size());
  }
  return Csr(n, std::move(offsets), std::move(cols), std::move(weights));
}

bool same_log(const std::vector<simt::KernelStats>& a,
              const std::vector<simt::KernelStats>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const simt::KernelStats& x, const simt::KernelStats& y) {
                      return x.name == y.name && x.warps == y.warps &&
                             x.total_warp_cycles == y.total_warp_cycles &&
                             x.max_warp_cycles == y.max_warp_cycles &&
                             x.active_lane_cycles == y.active_lane_cycles &&
                             x.time_us == y.time_us;
                    });
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Determinism, NeighborReduceIdenticalAcrossThreadCounts) {
  // The edge-chunked (LB) mapping: hubs of 1000, 536 and 900 edges span
  // several 256-edge chunks; the 536-edge hub ends exactly on a chunk
  // boundary (1000 + 536 = 6 * 256); zero-degree rows sit between hubs;
  // the rest are degree-1 leaves.
  std::vector<std::uint32_t> degrees(2000, 1);
  degrees[0] = 1000;
  for (VertexId v = 1; v <= 5; ++v) degrees[v] = 0;
  degrees[6] = 536;
  for (VertexId v = 7; v <= 9; ++v) degrees[v] = 0;
  degrees[10] = 900;
  const Csr g = graph_with_degrees(degrees);
  Frontier f;
  f.assign_iota(g.num_vertices());
  AdvanceConfig cfg;  // kAuto: the hubs make the frontier skewed
  cfg.lb_node_edge_threshold = 1;

  struct Out {
    std::vector<double> sum;
    std::vector<Weight> max;
    std::vector<simt::KernelStats> log;
  };
  auto run = [&] {
    simt::Device dev;
    dev.set_profiling(true);
    AdvanceWorkspace ws;
    NullProblem p;
    Out o;
    neighbor_reduce<double>(
        dev, g, f, o.sum, p, 0.0,
        [&](VertexId, VertexId, EdgeId e, NullProblem&) {
          return static_cast<double>(g.weight(e));
        },
        [](double a, double b) { return a + b; }, cfg, ws);
    neighbor_reduce<Weight>(
        dev, g, f, o.max, p, Weight{0},
        [&](VertexId, VertexId, EdgeId e, NullProblem&) { return g.weight(e); },
        [](Weight a, Weight b) { return std::max(a, b); }, cfg, ws);
    o.log = dev.kernel_log();
    return o;
  };

  ThreadRestorer restore;
  omp_set_num_threads(1);
  const Out ref = run();
  ASSERT_TRUE(std::any_of(ref.log.begin(), ref.log.end(), [](const auto& k) {
    return k.name == "neighbor_reduce_lb";
  }));
  ASSERT_EQ(ref.sum.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double sum = 0.0;
    Weight max = 0;
    for (Weight w : g.edge_weights(v)) {
      sum += w;
      max = std::max(max, w);
    }
    EXPECT_EQ(ref.sum[v], sum) << v;
    EXPECT_EQ(ref.max[v], max) << v;
  }
  for (int threads : {2, 4, 8}) {
    omp_set_num_threads(threads);
    const Out o = run();
    EXPECT_TRUE(same_bytes(o.sum, ref.sum)) << threads << " threads";
    EXPECT_EQ(o.max, ref.max) << threads << " threads";
    EXPECT_TRUE(same_log(o.log, ref.log)) << threads << " threads";
  }
}

TEST(Determinism, PagerankIdenticalAcrossThreadCounts) {
  // Power-law graph with a frontier above the LB threshold, so the gather
  // takes the edge-chunked mapping; with and without pruning.
  const Csr g = testing::undirected(rmat(12, 16, 5));
  QueryOptions exact;
  exact.epsilon = 0.0;
  exact.max_iterations = 20;
  const QueryOptions pruned;  // epsilon 1e-6, up to 50 iterations
  ThreadRestorer restore;
  for (const QueryOptions& opts : {exact, pruned}) {
    auto run = [&](std::vector<simt::KernelStats>& log) {
      simt::Device dev;
      dev.set_profiling(true);
      PagerankResult r;
      PrEnactor(dev).enact(g, g, opts, r);
      log = dev.kernel_log();
      return r;
    };
    omp_set_num_threads(1);
    std::vector<simt::KernelStats> ref_log;
    const PagerankResult ref = run(ref_log);
    ASSERT_TRUE(std::any_of(ref_log.begin(), ref_log.end(), [](const auto& k) {
      return k.name == "neighbor_reduce_lb";
    }));
    for (int threads : {2, 4, 8}) {
      omp_set_num_threads(threads);
      std::vector<simt::KernelStats> log;
      const PagerankResult r = run(log);
      EXPECT_TRUE(same_bytes(r.rank, ref.rank)) << threads << " threads";
      EXPECT_EQ(r.summary.device_time_ms, ref.summary.device_time_ms)
          << threads << " threads";
      EXPECT_EQ(r.summary.iterations, ref.summary.iterations);
      EXPECT_TRUE(same_log(log, ref_log)) << threads << " threads";
    }
  }
}

TEST(Determinism, BcIdenticalAcrossThreadCounts) {
  // rmat-15: big rows split across the edge chunks of both gathers (the
  // pull rounds' in-edge sums and the backward dependency folds). From the
  // hub and from a low-degree source.
  const Csr g = testing::undirected(rmat(15, 16, 5));
  VertexId hub = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  VertexId leaf = 0;
  while (g.degree(leaf) == 0 || g.degree(leaf) > 2) ++leaf;
  ThreadRestorer restore;
  for (const VertexId src : {hub, leaf}) {
    auto run = [&](std::vector<simt::KernelStats>& log) {
      simt::Device dev;
      dev.set_profiling(true);
      const BcResult r = Engine(dev, g).bc(src);
      log = dev.kernel_log();
      return r;
    };
    omp_set_num_threads(1);
    std::vector<simt::KernelStats> log;
    const BcResult ref = run(log);
    ASSERT_TRUE(std::any_of(log.begin(), log.end(), [](const auto& k) {
      return k.name == "neighbor_reduce_lb";
    })) << "source " << src;
    ASSERT_TRUE(std::any_of(
        ref.summary.per_iteration.begin(), ref.summary.per_iteration.end(),
        [](const IterationStats& s) { return s.used_pull; }))
        << "source " << src;
    ASSERT_GT(ref.summary.iterations, 3u) << "source " << src;
    for (int threads : {2, 4, 8}) {
      omp_set_num_threads(threads);
      const BcResult r = run(log);
      EXPECT_TRUE(same_bytes(r.bc_values, ref.bc_values))
          << "source " << src << ", " << threads << " threads";
      EXPECT_TRUE(same_bytes(r.sigma, ref.sigma))
          << "source " << src << ", " << threads << " threads";
      EXPECT_EQ(r.depth, ref.depth)
          << "source " << src << ", " << threads << " threads";
      EXPECT_EQ(r.summary.iterations, ref.summary.iterations)
          << "source " << src << ", " << threads << " threads";
      EXPECT_EQ(r.summary.edges_processed, ref.summary.edges_processed)
          << "source " << src << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace grx
