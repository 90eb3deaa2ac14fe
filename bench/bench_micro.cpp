// Micro-benchmarks (google-benchmark): operator-level costs underlying the
// paper tables — advance strategies on fixed frontiers, neighbor-reduce,
// filter/compact, scan, and the kernel-launch overhead that drives the
// fusion argument.
// These report host wall-clock of the emulation (per-op relative costs),
// plus the simulated device time as a counter.
#include <benchmark/benchmark.h>

// This TU owns the binary's operator-new replacement: the zero
// steady-state-allocation claim for the advance/filter loop is asserted
// against real allocator calls for the whole binary including the library
// under test (tests/alloc_probe.hpp).
#define GRX_ALLOC_PROBE_IMPLEMENT
#include "alloc_probe.hpp"

#include "api/engine.hpp"
#include "bench_common.hpp"
#include "core/advance.hpp"
#include "core/filter.hpp"
#include "core/neighbor_reduce.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "simt/primitives.hpp"

namespace {

using namespace grx;
using grx::testing::g_alloc_count;

struct MarkProblem {
  std::vector<std::uint8_t> seen;
};
struct MarkFunctor {
  static bool cond_edge(VertexId, VertexId dst, EdgeId, MarkProblem& p) {
    return simt::atomic_cas(p.seen[dst], std::uint8_t{0},
                            std::uint8_t{1}) == 0;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, MarkProblem&) {}
  static bool cond_vertex(VertexId, MarkProblem&) { return true; }
  static void apply_vertex(VertexId, MarkProblem&) {}
};

const Csr& scale_free() {
  static const Csr g = [] {
    BuildOptions o;
    o.symmetrize = true;
    return build_csr(rmat(13, 16, 11), o);
  }();
  return g;
}

const Csr& mesh() {
  static const Csr g = [] {
    BuildOptions o;
    o.symmetrize = true;
    return build_csr(road_grid(128, 96, 0.2, 0.01, 3), o);
  }();
  return g;
}

void run_advance(benchmark::State& state, const Csr& g,
                 AdvanceStrategy strategy) {
  std::vector<std::uint32_t> seed;
  for (VertexId v = 0; v < g.num_vertices(); v += 7) seed.push_back(v);
  double sim_ms = 0.0;
  for (auto _ : state) {
    simt::Device dev;
    MarkProblem p;
    p.seen.assign(g.num_vertices(), 0);
    Frontier in, out;
    in.assign(seed);
    AdvanceConfig cfg;
    cfg.strategy = strategy;
    AdvanceWorkspace ws;
    advance<MarkFunctor>(dev, g, in, out, p, cfg, ws);
    benchmark::DoNotOptimize(out.items().data());
    sim_ms = dev.counters().time_ms();
  }
  state.counters["sim_device_ms"] = sim_ms;
}

void BM_AdvanceThreadFine_ScaleFree(benchmark::State& s) {
  run_advance(s, scale_free(), AdvanceStrategy::kThreadFine);
}
void BM_AdvanceTwc_ScaleFree(benchmark::State& s) {
  run_advance(s, scale_free(), AdvanceStrategy::kTwc);
}
void BM_AdvanceLb_ScaleFree(benchmark::State& s) {
  run_advance(s, scale_free(), AdvanceStrategy::kLoadBalanced);
}
void BM_AdvanceThreadFine_Mesh(benchmark::State& s) {
  run_advance(s, mesh(), AdvanceStrategy::kThreadFine);
}
void BM_AdvanceTwc_Mesh(benchmark::State& s) {
  run_advance(s, mesh(), AdvanceStrategy::kTwc);
}
void BM_AdvanceLb_Mesh(benchmark::State& s) {
  run_advance(s, mesh(), AdvanceStrategy::kLoadBalanced);
}
BENCHMARK(BM_AdvanceThreadFine_ScaleFree);
BENCHMARK(BM_AdvanceTwc_ScaleFree);
BENCHMARK(BM_AdvanceLb_ScaleFree);
BENCHMARK(BM_AdvanceThreadFine_Mesh);
BENCHMARK(BM_AdvanceTwc_Mesh);
BENCHMARK(BM_AdvanceLb_Mesh);

// Gather-reduce over every vertex's neighborhood (PageRank's gather shape)
// on a warm workspace: the kAuto mapping picks edge chunks on the
// power-law graph and the per-warp mapping on the mesh.
struct GatherProblem {
  std::vector<double> value;
};

void run_neighbor_reduce(benchmark::State& state, const Csr& g) {
  simt::Device dev;
  GatherProblem p;
  p.value.assign(g.num_vertices(), 1.0 / g.num_vertices());
  Frontier in;
  in.assign_iota(g.num_vertices());
  std::vector<double> out;
  AdvanceWorkspace ws;
  auto gather = [&] {
    dev.reset();
    neighbor_reduce<double>(
        dev, g, in, out, p, 0.0,
        [](VertexId, VertexId u, EdgeId, GatherProblem& prob) {
          return prob.value[u];
        },
        [](double a, double b) { return a + b; }, AdvanceConfig{}, ws);
  };
  gather();  // warm-up: size the pooled scratch
  for (auto _ : state) {
    gather();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["sim_device_ms"] = dev.counters().time_ms();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(g.num_edges()));
}

void BM_NeighborReduce_ScaleFree(benchmark::State& s) {
  run_neighbor_reduce(s, scale_free());
}
void BM_NeighborReduce_Mesh(benchmark::State& s) {
  run_neighbor_reduce(s, mesh());
}
BENCHMARK(BM_NeighborReduce_ScaleFree);
BENCHMARK(BM_NeighborReduce_Mesh);

// Twenty unpruned PageRank iterations on a warm Engine (the analytics
// configuration): host wall time, simulated device time, and heap
// allocations per call (acceptance: 0).
void BM_PagerankPowerLaw(benchmark::State& state) {
  const Csr& g = scale_free();
  simt::Device dev;
  Engine engine(dev, g);
  QueryOptions q;
  q.epsilon = 0.0;
  q.max_iterations = 20;
  PagerankResult r;
  engine.pagerank(r, q);  // warm-up: symmetry check and pooled buffers
  std::uint64_t allocs = 0, runs = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    engine.pagerank(r, q);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++runs;
    benchmark::DoNotOptimize(r.rank.data());
  }
  state.counters["sim_device_ms"] = r.summary.device_time_ms;
  state.counters["allocs_per_run"] =
      static_cast<double>(allocs) / static_cast<double>(runs ? runs : 1);
}
BENCHMARK(BM_PagerankPowerLaw)->Unit(benchmark::kMillisecond);

// Single-source BC from the hub (vertex 0) on a warm Engine: host wall
// time, simulated device time, and heap allocations per call
// (acceptance: 0).
void BM_BcPowerLaw(benchmark::State& state) {
  const Csr& g = scale_free();
  simt::Device dev;
  Engine engine(dev, g);
  BcResult r;
  // Warm-up: the symmetry check, the pooled buffers, and the frontier
  // buffers' capacities, which rotate between calls.
  for (int i = 0; i < 3; ++i) engine.bc(0, r);
  std::uint64_t allocs = 0, runs = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    engine.bc(0, r);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++runs;
    benchmark::DoNotOptimize(r.bc_values.data());
  }
  state.counters["sim_device_ms"] = r.summary.device_time_ms;
  state.counters["allocs_per_run"] =
      static_cast<double>(allocs) / static_cast<double>(runs ? runs : 1);
}
BENCHMARK(BM_BcPowerLaw)->Unit(benchmark::kMillisecond);

// Single-source SSSP from vertex 0 on a warm Engine over the bench graph
// with random [1, 64] weights drawn per arc (so w(u,v) != w(v,u) and the
// pull rounds fold over the engine-built weighted transpose): host wall
// time, simulated device time, and heap allocations per call
// (acceptance: 0). BM_SsspPowerLaw takes the default push/pull switch;
// BM_SsspPowerLawPush forces push (pull_alpha ~ 0), the atomicMin
// relaxation of every round.
void run_sssp_power_law(benchmark::State& state, const QueryOptions& opts) {
  static const Csr g = with_random_weights(scale_free(), /*seed=*/7);
  simt::Device dev;
  Engine engine(dev, g);
  SsspResult r;
  // Warm-up: the in-edge resolution (symmetry checks, the transpose) and
  // the pooled buffers and frontier capacities.
  for (int i = 0; i < 3; ++i) engine.sssp(0, r, opts);
  std::uint64_t allocs = 0, runs = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    engine.sssp(0, r, opts);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++runs;
    benchmark::DoNotOptimize(r.dist.data());
  }
  state.counters["sim_device_ms"] = r.summary.device_time_ms;
  state.counters["allocs_per_run"] =
      static_cast<double>(allocs) / static_cast<double>(runs ? runs : 1);
}

void BM_SsspPowerLaw(benchmark::State& state) {
  run_sssp_power_law(state, QueryOptions{});
}
BENCHMARK(BM_SsspPowerLaw)->Unit(benchmark::kMillisecond);

void BM_SsspPowerLawPush(benchmark::State& state) {
  QueryOptions push_only;
  push_only.pull_alpha = 1e-9;
  run_sssp_power_law(state, push_only);
}
BENCHMARK(BM_SsspPowerLawPush)->Unit(benchmark::kMillisecond);

// Connected components on a warm Engine over the topology of the SSSP
// bench graph (CC reads no weights): host wall time, simulated device
// time, and heap allocations per call (acceptance: 0). The warm-up builds
// the hook list, which the Engine keeps for the binding.
void BM_CcPowerLaw(benchmark::State& state) {
  const Csr& g = scale_free();
  simt::Device dev;
  Engine engine(dev, g);
  CcResult r;
  // Warm-up: the hook list, the pooled buffers, and the frontier buffers'
  // capacities, which rotate between calls.
  for (int i = 0; i < 3; ++i) engine.cc(r);
  std::uint64_t allocs = 0, runs = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    engine.cc(r);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++runs;
    benchmark::DoNotOptimize(r.component.data());
  }
  state.counters["sim_device_ms"] = r.summary.device_time_ms;
  state.counters["allocs_per_run"] =
      static_cast<double>(allocs) / static_cast<double>(runs ? runs : 1);
}
BENCHMARK(BM_CcPowerLaw)->Unit(benchmark::kMillisecond);

void BM_FilterCompact(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint32_t> in(n);
  for (std::uint32_t i = 0; i < n; ++i) in[i] = i % (n / 2 + 1);
  MarkProblem p;
  p.seen.assign(n, 0);
  for (auto _ : state) {
    simt::Device dev;
    std::vector<std::uint32_t> out;
    FilterConfig cfg;
    cfg.dedup_heuristic = true;
    FilterWorkspace ws;
    filter_vertices<MarkFunctor>(dev, in, out, p, cfg, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterCompact)->Range(1 << 10, 1 << 18);

void BM_ExclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> in(n, 3);
  std::vector<std::uint64_t> out(n);
  for (auto _ : state) {
    simt::Device dev;
    benchmark::DoNotOptimize(simt::exclusive_scan(dev, in, out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ExclusiveScan)->Range(1 << 10, 1 << 20);

void BM_KernelLaunchOverhead(benchmark::State& state) {
  // The fusion argument: N tiny kernels vs one fused kernel.
  const int launches = static_cast<int>(state.range(0));
  double sim_us = 0.0;
  for (auto _ : state) {
    simt::Device dev;
    for (int i = 0; i < launches; ++i)
      dev.for_each("tiny", 32, [](simt::Lane& l, std::size_t) { l.alu(); });
    sim_us = dev.counters().time_us;
  }
  state.counters["sim_device_us"] = sim_us;
}
BENCHMARK(BM_KernelLaunchOverhead)->Arg(1)->Arg(2)->Arg(4);

// --- frontier-pipeline benchmarks (PR 1 acceptance) -------------------------

// Full BFS on the power-law graph in the paper's flagship configuration
// (idempotent + direction-optimal). Host wall time is the figure of merit;
// `allocs_per_run` counts every heap allocation of the cold query on a
// fresh Engine (the Engine's construction is outside the count).
void BM_BfsPowerLaw(benchmark::State& state) {
  const Csr& g = scale_free();
  std::uint64_t allocs = 0, runs = 0;
  for (auto _ : state) {
    simt::Device dev;
    Engine engine(dev, g);
    QueryOptions opts;
    opts.idempotent = true;
    opts.direction = Direction::kOptimal;
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto r = engine.bfs(0, opts);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++runs;
    benchmark::DoNotOptimize(r.depth.data());
  }
  state.counters["allocs_per_run"] =
      static_cast<double>(allocs) / static_cast<double>(runs ? runs : 1);
}
BENCHMARK(BM_BfsPowerLaw)->Unit(benchmark::kMillisecond);

// Same shape with a plain push advance: isolates the output-assembly path
// from the pull-bitmap machinery.
void BM_BfsPowerLawPush(benchmark::State& state) {
  const Csr& g = scale_free();
  for (auto _ : state) {
    simt::Device dev;
    QueryOptions opts;
    opts.idempotent = true;
    opts.direction = Direction::kPush;
    const auto r = Engine(dev, g).bfs(0, opts);
    benchmark::DoNotOptimize(r.depth.data());
  }
}
BENCHMARK(BM_BfsPowerLawPush)->Unit(benchmark::kMillisecond);

// Steady-state advance+filter loop on persistent workspaces: after the
// warm-up call has sized every pool, each further advance+filter pair must
// allocate nothing. `steady_allocs` reports the mean heap allocations per
// advance+filter pair across the measured iterations (acceptance: 0).
void BM_AdvanceFilterSteadyAllocs(benchmark::State& state) {
  const Csr& g = scale_free();
  std::vector<std::uint32_t> seed;
  for (VertexId v = 0; v < g.num_vertices(); v += 7) seed.push_back(v);

  simt::Device dev;
  MarkProblem p;
  p.seen.assign(g.num_vertices(), 0);
  Frontier in, out, filtered;
  in.assign(seed);
  AdvanceConfig cfg;
  cfg.strategy = AdvanceStrategy::kLoadBalanced;
  AdvanceWorkspace aws;
  FilterConfig fcfg;
  fcfg.dedup_heuristic = true;
  FilterWorkspace fws;

  // Warm-up: size every pooled buffer.
  advance<MarkFunctor>(dev, g, in, out, p, cfg, aws);
  filter_vertices<MarkFunctor>(dev, out.items(), filtered.items(), p, fcfg,
                               fws);

  std::uint64_t allocs = 0, iters = 0;
  for (auto _ : state) {
    std::fill(p.seen.begin(), p.seen.end(), std::uint8_t{0});
    in.items().assign(seed.begin(), seed.end());  // capacity reuse, no alloc
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    advance<MarkFunctor>(dev, g, in, out, p, cfg, aws);
    filter_vertices<MarkFunctor>(dev, out.items(), filtered.items(), p, fcfg,
                                 fws);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    benchmark::DoNotOptimize(filtered.items().data());
  }
  state.counters["steady_allocs"] =
      static_cast<double>(allocs) / static_cast<double>(iters ? iters : 1);
}
BENCHMARK(BM_AdvanceFilterSteadyAllocs);

// Batched traversal steady state: a warm BatchEnactor serving repeated
// B=64 BFS batches. Per-enactment allocations must be a small constant —
// the result matrices handed back to the caller — never proportional to
// BSP iterations: every loop-internal buffer (lane masks, claim marks,
// advance/filter/staging pools) is pooled, preserving the PR 1 guarantee.
void BM_BatchBfsSteadyAllocs(benchmark::State& state) {
  const Csr& g = scale_free();
  const std::vector<VertexId> sources = bench::scattered_sources(g, 64);
  simt::Device dev;
  BatchEnactor enactor(dev);
  QueryOptions opts;
  opts.direction = Direction::kOptimal;  // symmetrized graph: pull OK
  (void)enactor.bfs(g, sources, opts);  // warm-up: size every pooled buffer

  std::uint64_t allocs = 0, iters = 0, bsp_iters = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const BatchBfsResult r = enactor.bfs(g, sources, opts);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    bsp_iters = r.summary.iterations;
    benchmark::DoNotOptimize(r.depth.data());
  }
  state.counters["allocs_per_enact"] =
      static_cast<double>(allocs) / static_cast<double>(iters ? iters : 1);
  state.counters["bsp_iterations"] = static_cast<double>(bsp_iters);
}
BENCHMARK(BM_BatchBfsSteadyAllocs)->Unit(benchmark::kMillisecond);

// Batched SSSP under the per-lane near/far schedule: the priority frontier
// adds a far bank, pile lists, staging, tallies, and the enqueue-label
// matrix — all pooled in the enactor or assigned per enactment. Per-enact
// allocations must stay a small constant (result + per-enact matrices),
// never proportional to BSP iterations or priority levels.
void BM_BatchSsspNearFarSteadyAllocs(benchmark::State& state) {
  // The shared bench graph carries unit weights (every distance is within
  // the first priority band); random [1, 64] weights make the near/far
  // machinery — banking, wakes, the enqueue-label matrix — actually run.
  static const Csr g = with_random_weights(scale_free(), /*seed=*/7);
  const std::vector<VertexId> sources = bench::scattered_sources(g, 64);
  simt::Device dev;
  BatchEnactor enactor(dev);
  QueryOptions opts;
  opts.delta = 8;  // force the schedule (bench graph may sit under gates)
  (void)enactor.sssp(g, sources, opts);  // warm-up: size every pool

  std::uint64_t allocs = 0, iters = 0, bsp_iters = 0, splits = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const BatchSsspResult r = enactor.sssp(g, sources, opts);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    ++iters;
    bsp_iters = r.summary.iterations;
    splits = 0;
    for (const PriorityQueueStats& s : r.lane_stats) splits += s.splits;
    benchmark::DoNotOptimize(r.dist.data());
  }
  state.counters["allocs_per_enact"] =
      static_cast<double>(allocs) / static_cast<double>(iters ? iters : 1);
  state.counters["bsp_iterations"] = static_cast<double>(bsp_iters);
  state.counters["lane_splits"] = static_cast<double>(splits);
}
BENCHMARK(BM_BatchSsspNearFarSteadyAllocs)->Unit(benchmark::kMillisecond);

}  // namespace
