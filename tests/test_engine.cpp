// The grx::Engine façade contract (docs/api.md):
//
//  1. Parity — every Engine query returns the same result as the legacy
//     one-shot gunrock_* wrapper. Under one host thread every primitive is
//     bit-deterministic (no cross-thread races at all), so parity is
//     asserted byte-identical across the board, floating-point scores
//     included.
//  2. Steady-state allocation freedom — a warm Engine serving a repeated
//     query into a reused result object performs ZERO heap allocations:
//     every Problem buffer, operator workspace, priority pile, lane
//     matrix, and the result's own vectors are capacity-reused. Asserted
//     against a process-wide operator-new counter (the bench_micro
//     instrumentation pattern), not inferred from timings.
//  3. Determinism — integer-valued results (and SSSP's schedule stats) are
//     byte-identical across host thread counts, and a warm Engine returns
//     the same results as a cold one (workspace reuse and cross-primitive
//     interleaving never leak state between queries).
#include <gtest/gtest.h>

#include <algorithm>
#include <omp.h>

#include "api/engine.hpp"
#include "graph/generators.hpp"
#include "primitives/batch.hpp"

// This TU owns the binary's operator-new replacement: the zero
// steady-state-allocation contract is asserted against real allocator
// calls for the whole binary including libgrx (tests/alloc_probe.hpp).
#define GRX_ALLOC_PROBE_IMPLEMENT
#include "test_common.hpp"

namespace grx {
namespace {

using testing::allocations_during;
using testing::ThreadRestorer;
using testing::undirected_symw;

/// The shared serving graph: a symmetric weighted power-law CSR (weights
/// symmetric per undirected edge, as SSSP correctness requires).
const Csr& serving_graph() {
  static const Csr g = undirected_symw(rmat(10, 8, 2016));
  return g;
}

constexpr VertexId kSrc = 1;

// --- 1. parity with the one-shot wrappers (single-thread, byte-exact) -------

TEST(EngineParity, TraversalQueriesMatchWrappers) {
  ThreadRestorer tr;
  omp_set_num_threads(1);
  const Csr& g = serving_graph();
  simt::Device edev, wdev;
  Engine eng(edev, g);

  QueryOptions q;
  q.direction = Direction::kOptimal;
  const BfsResult eb = eng.bfs(kSrc, q);
  BfsOptions bo;
  bo.direction = Direction::kOptimal;
  const BfsResult wb = gunrock_bfs(wdev, g, kSrc, bo);
  EXPECT_EQ(eb.depth, wb.depth);
  EXPECT_EQ(eb.pred, wb.pred);
  EXPECT_EQ(eb.summary.iterations, wb.summary.iterations);
  EXPECT_EQ(eb.summary.edges_processed, wb.summary.edges_processed);

  const SsspResult es = eng.sssp(kSrc);
  const SsspResult ws = gunrock_sssp(wdev, g, kSrc);
  EXPECT_EQ(es.dist, ws.dist);
  EXPECT_EQ(es.pred, ws.pred);
  EXPECT_EQ(es.pq_stats, ws.pq_stats);
  EXPECT_EQ(es.summary.iterations, ws.summary.iterations);

  const BcResult ec = eng.bc(kSrc);
  const BcResult wc = gunrock_bc(wdev, g, kSrc);
  EXPECT_EQ(ec.bc_values, wc.bc_values);
  EXPECT_EQ(ec.sigma, wc.sigma);
  EXPECT_EQ(ec.depth, wc.depth);
}

TEST(EngineParity, AnalyticsQueriesMatchWrappers) {
  ThreadRestorer tr;
  omp_set_num_threads(1);
  const Csr& g = serving_graph();
  simt::Device edev, wdev;
  Engine eng(edev, g);

  const CcResult ecc = eng.cc();
  const CcResult wcc = gunrock_cc(wdev, g);
  EXPECT_EQ(ecc.component, wcc.component);
  EXPECT_EQ(ecc.num_components, wcc.num_components);
  EXPECT_EQ(ecc.summary.edges_processed, wcc.summary.edges_processed);

  const PagerankResult epr = eng.pagerank();
  const PagerankResult wpr = gunrock_pagerank(wdev, g);
  EXPECT_EQ(epr.rank, wpr.rank);
  EXPECT_EQ(epr.summary.iterations, wpr.summary.iterations);

  const ColoringResult ecol = eng.coloring();
  const ColoringResult wcol = gunrock_coloring(wdev, g);
  EXPECT_EQ(ecol.color, wcol.color);
  EXPECT_EQ(ecol.num_colors, wcol.num_colors);

  const MisResult emis = eng.mis();
  const MisResult wmis = gunrock_mis(wdev, g);
  EXPECT_EQ(emis.in_set, wmis.in_set);
  EXPECT_EQ(emis.set_size, wmis.set_size);

  const MstResult emst = eng.mst();
  const MstResult wmst = gunrock_mst(wdev, g);
  EXPECT_EQ(emst.total_weight, wmst.total_weight);
  EXPECT_EQ(emst.edges, wmst.edges);
  EXPECT_EQ(emst.num_components, wmst.num_components);

  const HitsResult eh = eng.hits();
  const HitsResult wh = gunrock_hits(wdev, g, g);
  EXPECT_EQ(eh.hub, wh.hub);
  EXPECT_EQ(eh.authority, wh.authority);

  const SalsaResult esa = eng.salsa();
  const SalsaResult wsa = gunrock_salsa(wdev, g, g);
  EXPECT_EQ(esa.hub, wsa.hub);
  EXPECT_EQ(esa.authority, wsa.authority);
}

TEST(EngineParity, BatchedQueriesMatchWrappers) {
  ThreadRestorer tr;
  omp_set_num_threads(1);
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  simt::Device edev, wdev;
  Engine eng(edev, g);

  const BatchBfsResult eb = eng.batch_bfs(sources);
  const BatchBfsResult wb = batch_bfs(wdev, g, sources);
  EXPECT_EQ(eb.depth, wb.depth);
  EXPECT_EQ(eb.summary.iterations, wb.summary.iterations);

  const BatchSsspResult es = eng.batch_sssp(sources);
  const BatchSsspResult ws = batch_sssp(wdev, g, sources);
  EXPECT_EQ(es.dist, ws.dist);
  EXPECT_EQ(es.delta, ws.delta);
  EXPECT_EQ(es.lane_stats, ws.lane_stats);

  const BatchReachabilityResult er = eng.batch_reachability(sources);
  const BatchReachabilityResult wr = batch_reachability(wdev, g, sources);
  for (VertexId v = 0; v < g.num_vertices(); v += 7)
    for (std::uint32_t q = 0; q < er.num_lanes; q += 5)
      EXPECT_EQ(er.reachable(v, q), wr.reachable(v, q));

  const std::vector<double> ebc = eng.bc_batched(sources);
  const std::vector<double> wbc = gunrock_bc_batched(wdev, g, sources);
  EXPECT_EQ(ebc, wbc);

  const std::vector<double> esam = eng.bc_sampled(4, 99);
  const std::vector<double> wsam = gunrock_bc_sampled(wdev, g, 4, 99);
  EXPECT_EQ(esam, wsam);
}

TEST(EngineParity, DirectedGraphsRequireExplicitTranspose) {
  // rmat without symmetrization is directed: the single-graph constructor
  // must refuse to treat it as its own transpose rather than silently
  // returning wrong HITS/SALSA scores.
  BuildOptions bo;
  const Csr g = build_csr(rmat(8, 8, 7), bo);
  ASSERT_FALSE(is_symmetric(g));
  const Csr gT = transpose(g);
  simt::Device dev;
  Engine bare(dev, g);
  EXPECT_THROW(bare.hits(), CheckError);
  EXPECT_THROW(bare.salsa(), CheckError);

  // With the transpose supplied, results match the explicit wrapper.
  simt::Device edev, wdev;
  Engine eng(edev, g, gT);
  ThreadRestorer tr;
  omp_set_num_threads(1);
  const HitsResult eh = eng.hits();
  const HitsResult wh = gunrock_hits(wdev, g, gT);
  EXPECT_EQ(eh.hub, wh.hub);
  EXPECT_EQ(eh.authority, wh.authority);
}

// --- 2. steady-state allocation freedom -------------------------------------

// Each case: one cold enact sizes the Problem pools, a second sizes the
// reused result object, and from then on the query must allocate NOTHING —
// not one heap allocation per enact, independent of BSP iteration count.
// This is the acceptance bar for BFS, SSSP, BC, CC, and PageRank, and is
// held by every other primitive too. Each case measures kSteadyRepeats
// enacts and asserts on the worst one: under several host threads an
// allocation that depends on the schedule (a racy round count, a
// ping-pong swap parity) shows up in only some enacts.

constexpr int kSteadyRepeats = 20;

/// The most heap allocations any one of kSteadyRepeats calls of `enact`
/// performed.
template <typename Fn>
std::uint64_t max_allocations_per_enact(Fn&& enact) {
  std::uint64_t worst = 0;
  for (int i = 0; i < kSteadyRepeats; ++i)
    worst = std::max(worst, allocations_during(enact));
  return worst;
}

TEST(EngineSteadyState, BfsAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.direction = Direction::kOptimal;  // exercise the pull bitmap pool too
  BfsResult r;
  eng.bfs(kSrc, r, q);
  eng.bfs(kSrc, r, q);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.bfs(kSrc, r, q); }), 0u);
  EXPECT_FALSE(r.depth.empty());
}

TEST(EngineSteadyState, SsspAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  SsspResult r;
  eng.sssp(kSrc, r);
  eng.sssp(kSrc, r);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.sssp(kSrc, r); }), 0u);
  // The near/far schedule must actually have run for this to mean much.
  EXPECT_GT(r.pq_stats.splits, 0u);
}

TEST(EngineSteadyState, BcAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  BcResult r;
  eng.bc(kSrc, r);
  eng.bc(kSrc, r);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.bc(kSrc, r); }), 0u);
  EXPECT_FALSE(r.bc_values.empty());
}

TEST(EngineSteadyState, CcAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  CcResult r;
  eng.cc(r);
  eng.cc(r);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.cc(r); }), 0u);
  EXPECT_GT(r.num_components, 0u);
}

TEST(EngineSteadyState, PagerankAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  PagerankResult r;
  eng.pagerank(r);
  eng.pagerank(r);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.pagerank(r); }), 0u);
  EXPECT_FALSE(r.rank.empty());
}

TEST(EngineSteadyState, PagerankGatherPathsAllocFree) {
  // The edge-chunked gather (frontier above the LB threshold) over a
  // symmetric graph, and over the transpose the engine builds for a
  // directed one: the build happens once, at the first query.
  const Csr& sym = testing::power_law_serving_graph(13);
  const Csr directed = build_csr(rmat(13, 8, 2016));
  for (const Csr* g : {&sym, &directed}) {
    simt::Device dev;
    Engine eng(dev, *g);
    PagerankResult r;
    eng.pagerank(r);
    eng.pagerank(r);
    EXPECT_EQ(max_allocations_per_enact([&] { eng.pagerank(r); }), 0u);
    EXPECT_FALSE(r.rank.empty());
  }
}

TEST(EngineSteadyState, RemainingPrimitivesAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  ColoringResult col;
  MisResult mis;
  MstResult mst;
  HitsResult hits;
  SalsaResult salsa;
  for (int warm = 0; warm < 2; ++warm) {
    eng.coloring(col);
    eng.mis(mis);
    eng.mst(mst);
    eng.hits(hits);
    eng.salsa(salsa);
  }
  EXPECT_EQ(max_allocations_per_enact([&] { eng.coloring(col); }), 0u);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.mis(mis); }), 0u);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.mst(mst); }), 0u);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.hits(hits); }), 0u);
  EXPECT_EQ(max_allocations_per_enact([&] { eng.salsa(salsa); }), 0u);
}

TEST(EngineSteadyState, BatchBfsAllocFree) {
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.direction = Direction::kOptimal;
  BatchBfsResult r;
  eng.batch_bfs(sources, r, q);
  eng.batch_bfs(sources, r, q);
  EXPECT_EQ(
      max_allocations_per_enact([&] { eng.batch_bfs(sources, r, q); }), 0u);
  EXPECT_EQ(r.num_lanes, 64u);
}

TEST(EngineSteadyState, BatchSsspNearConstantAllocs) {
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.delta = 8;  // force the per-lane near/far schedule
  BatchSsspResult r;
  eng.batch_sssp(sources, r, q);
  eng.batch_sssp(sources, r, q);
  // The per-lane stats vector is moved out to the caller each enact
  // (take_lane_stats), so the steady state is a small constant — never
  // proportional to iterations or priority levels.
  EXPECT_LE(
      max_allocations_per_enact([&] { eng.batch_sssp(sources, r, q); }), 4u);
  EXPECT_EQ(r.num_lanes, 64u);
}

// --- 3. determinism ----------------------------------------------------------

TEST(EngineDeterminism, WarmEngineMatchesColdEngine) {
  const Csr& g = serving_graph();
  simt::Device d1, d2;
  Engine cold(d1, g);
  Engine warm(d2, g);
  // Interleave queries on `warm` so every shared workspace has been
  // through other primitives before the measured repeats.
  (void)warm.bfs(kSrc);
  (void)warm.sssp(kSrc);
  (void)warm.cc();
  (void)warm.pagerank();
  (void)warm.bfs((kSrc + 5) % g.num_vertices());

  const BfsResult wb = warm.bfs(kSrc);
  const BfsResult cb = cold.bfs(kSrc);
  EXPECT_EQ(wb.depth, cb.depth);
  EXPECT_EQ(wb.summary.iterations, cb.summary.iterations);

  const SsspResult wsr = warm.sssp(kSrc);
  const SsspResult csr = cold.sssp(kSrc);
  EXPECT_EQ(wsr.dist, csr.dist);
  EXPECT_EQ(wsr.pq_stats, csr.pq_stats);
}

TEST(EngineDeterminism, ResultsIdenticalAcrossThreadCounts) {
  ThreadRestorer tr;
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);

  omp_set_num_threads(1);
  simt::Device rdev;
  Engine ref(rdev, g);
  const BfsResult rb = ref.bfs(kSrc);
  const SsspResult rs = ref.sssp(kSrc);
  const CcResult rc = ref.cc();
  const ColoringResult rcol = ref.coloring();
  const MisResult rmis = ref.mis();
  const MstResult rmst = ref.mst();
  const BatchSsspResult rbs = ref.batch_sssp(sources);

  for (int threads : {2, 8}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    Engine eng(dev, g);
    EXPECT_EQ(eng.bfs(kSrc).depth, rb.depth) << threads << " threads";
    const SsspResult s = eng.sssp(kSrc);
    EXPECT_EQ(s.dist, rs.dist) << threads << " threads";
    EXPECT_EQ(s.pq_stats, rs.pq_stats) << threads << " threads";
    EXPECT_EQ(eng.cc().component, rc.component) << threads << " threads";
    EXPECT_EQ(eng.coloring().color, rcol.color) << threads << " threads";
    EXPECT_EQ(eng.mis().in_set, rmis.in_set) << threads << " threads";
    const MstResult m = eng.mst();
    EXPECT_EQ(m.total_weight, rmst.total_weight) << threads << " threads";
    EXPECT_EQ(m.edges, rmst.edges) << threads << " threads";
    const BatchSsspResult bs = eng.batch_sssp(sources);
    EXPECT_EQ(bs.dist, rbs.dist) << threads << " threads";
    EXPECT_EQ(bs.lane_stats, rbs.lane_stats) << threads << " threads";
  }
}

}  // namespace
}  // namespace grx
