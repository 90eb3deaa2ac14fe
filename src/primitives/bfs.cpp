#include "primitives/bfs.hpp"

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Idempotent functor: benign races — concurrent discoverers write the
/// same depth, so no atomics are needed (Section 4.5).
struct IdempotentFunctor {
  static bool cond_edge(VertexId, VertexId dst, EdgeId, BfsProblem& p) {
    return simt::atomic_load(p.depth[dst]) == kInfinity;
  }
  static void apply_edge(VertexId src, VertexId dst, EdgeId, BfsProblem& p) {
    simt::atomic_store(p.depth[dst], p.iteration + 1);
    if (p.record_preds) simt::atomic_store(p.pred[dst], src);
  }
  static bool is_unvisited(VertexId v, BfsProblem& p) {
    return p.depth[v] == kInfinity;
  }
  static bool cond_vertex(VertexId, BfsProblem&) { return true; }
  static void apply_vertex(VertexId, BfsProblem&) {}
};

/// Non-idempotent functor: exact unique discovery via an atomic claim.
struct AtomicFunctor {
  static bool cond_edge(VertexId, VertexId dst, EdgeId, BfsProblem& p) {
    return p.visited.test_and_set(dst);
  }
  static void apply_edge(VertexId src, VertexId dst, EdgeId, BfsProblem& p) {
    simt::atomic_store(p.depth[dst], p.iteration + 1);
    if (p.record_preds) simt::atomic_store(p.pred[dst], src);
  }
  static bool is_unvisited(VertexId v, BfsProblem& p) {
    return !p.visited.test(v);
  }
  static bool cond_vertex(VertexId, BfsProblem&) { return true; }
  static void apply_vertex(VertexId, BfsProblem&) {}
};

/// BFS as an operator program: advance + filter per level until the
/// frontier drains.
template <typename F>
struct BfsProgram {
  BfsProblem& p;
  const QueryOptions& opts;
  VertexId source;
  AdvanceConfig acfg;
  FilterConfig fcfg;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    p.depth.assign(g.num_vertices(), kInfinity);
    p.pred.assign(opts.record_predecessors ? g.num_vertices() : 0,
                  kInvalidVertex);
    p.record_preds = opts.record_predecessors;
    p.iteration = 0;
    if (!opts.idempotent || opts.direction != Direction::kPush)
      p.visited.assign_zero(g.num_vertices());
    p.depth[source] = 0;
    if (!opts.idempotent) p.visited.test_and_set(source);

    acfg.strategy = opts.strategy;
    acfg.direction = opts.direction;
    acfg.idempotent = opts.idempotent;
    acfg.lb_node_edge_threshold = opts.lb_node_edge_threshold;
    acfg.pull_alpha = opts.pull_alpha;
    acfg.pull_beta = opts.pull_beta;
    fcfg.dedup_heuristic = opts.idempotent;
    // Clamp the history table to cover |V| when the graph is small: same
    // memory ceiling as Gunrock's 64K default, but slot v holds exactly v,
    // so the only duplicates that survive are concurrent racers (the cull
    // stays best-effort under parallelism, per the paper).
    while (fcfg.history_bits > 1 &&
           (1u << (fcfg.history_bits - 1)) >= g.num_vertices())
      --fcfg.history_bits;

    c.frontier().assign_single(source);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    const AdvanceStats a = c.advance<F>(p, acfg);
    c.filter<F>(p, fcfg);
    const IterationStats s{0, c.frontier().size(), c.staged().size(),
                           a.edges_processed, a.used_pull};
    c.promote();
    p.iteration++;
    return s;
  }
};

}  // namespace

void BfsEnactor::enact(const Csr& g, VertexId source, const QueryOptions& opts,
                       BfsResult& out) {
  GRX_CHECK_MSG(source < g.num_vertices(), "BFS source out of range");
  if (opts.idempotent) {
    BfsProgram<IdempotentFunctor> prog{problem_, opts, source, {}, {}};
    enact_program(g, prog, opts, out.summary);
  } else {
    BfsProgram<AtomicFunctor> prog{problem_, opts, source, {}, {}};
    enact_program(g, prog, opts, out.summary);
  }
  out.depth = problem_.depth;
  out.pred = problem_.pred;
}

}  // namespace grx
