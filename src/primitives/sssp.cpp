#include "primitives/sssp.hpp"

#include <algorithm>

#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

struct RelaxFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId e,
                        SsspProblem& p) {
    // Algorithm 1, UpdateLabel: relax with atomicMin; accept if improved.
    const std::uint32_t src_dist = p.labels[src];
    if (src_dist == kInfinity) return false;  // stale far-pile entry
    const std::uint32_t cand = src_dist + p.g->weight(e);
    return cand < simt::atomic_min(p.dist[dst], cand);
  }
  static void apply_edge(VertexId src, VertexId dst, EdgeId,
                         SsspProblem& p) {
    // Algorithm 1, SetPred. Benign race: any improving predecessor is valid
    // transiently; the final relaxation wins, as in Gunrock.
    simt::atomic_store(p.pred[dst], src);
  }
  /// Filter: RemoveRedundant — first claim of (vertex, iteration) survives.
  static bool cond_vertex(VertexId v, SsspProblem& p) {
    const std::uint32_t tag = p.iteration;
    const std::uint32_t old = simt::atomic_load(p.mark[v]);
    if (old == tag) return false;  // already queued this iteration
    return simt::atomic_cas(p.mark[v], old, tag) == old;
  }
  static void apply_vertex(VertexId, SsspProblem&) {}
};

/// SSSP as an operator program: label-stamp + relax-advance + dedup-filter
/// per round, with the near/far split as the frontier hand-off and the
/// priority-level advance folded into the convergence predicate (the
/// "is there more work" question includes the banked far pile).
struct SsspProgram {
  SsspProblem& p;
  PriorityFrontier& pq;
  const SsspOptions& opts;
  VertexId source;
  AdvanceConfig acfg;
  FilterConfig fcfg;

  auto priority() {
    return [this](std::uint32_t v) {
      return static_cast<std::uint64_t>(simt::atomic_load(p.dist[v]));
    };
  }

  void init(OpContext& c) {
    const Csr& g = c.graph();
    p.g = &g;
    p.dist.assign(g.num_vertices(), kInfinity);
    p.labels.assign(g.num_vertices(), kInfinity);
    p.pred.assign(g.num_vertices(), kInvalidVertex);
    p.dist[source] = 0;
    p.labels[source] = 0;
    p.mark.assign(g.num_vertices(), 0xdeadbeefu);
    p.pred[source] = source;
    p.iteration = 0;

    std::uint32_t delta = opts.delta;
    if (opts.use_priority_queue && delta == 0) delta = sssp_auto_delta(g);
    if (!opts.use_priority_queue) delta = 0;
    pq.begin(delta);

    acfg.strategy = opts.strategy;
    acfg.idempotent = false;  // relaxation needs the atomic min
    // fcfg: exact dedup lives in cond_vertex.

    c.frontier().assign_single(source);
  }

  bool converged(OpContext& c) {
    if (!c.frontier().empty()) return false;
    if (pq.far_empty()) return true;
    // Near pile exhausted: advance the priority level and re-split the
    // far pile (Section 4.5, two-level priority queue).
    pq.advance_level(c.dev(), c.frontier().items(), priority());
    return c.frontier().empty();
  }

  IterationStats step(OpContext& c) {
    stamp_labels(c);
    const AdvanceStats a = c.advance<RelaxFunctor>(p, acfg);
    p.iteration++;
    c.filter<RelaxFunctor>(p, fcfg);
    if (pq.enabled()) {
      pq.split(c.dev(), c.staged().items(), c.frontier().items(),
               priority());
    } else {
      c.promote();
    }
    return {0, c.frontier().size(), c.advance_out().size(),
            a.edges_processed, false};
  }

  /// Stamps each frontier vertex's enqueue-time label (see
  /// SsspProblem::labels). A sub-phase of the frontier hand-off, not a
  /// separate launch: one scattered read + write per frontier vertex.
  void stamp_labels(OpContext& c) {
    const auto& items = c.frontier().items();
    constexpr std::size_t kChunk = 256;
    simt::Device::parallel_chunks(
        (items.size() + kChunk - 1) / kChunk, [&](std::size_t ch) {
          const std::size_t lo = ch * kChunk;
          const std::size_t hi = std::min(items.size(), lo + kChunk);
          for (std::size_t i = lo; i < hi; ++i) {
            const std::uint32_t v = items[i];
            p.labels[v] = simt::atomic_load(p.dist[v]);
          }
        });
    c.dev().charge_pass("sssp_labels", items.size(),
                        2 * simt::CostModel::kScattered, /*fused=*/true);
  }
};

}  // namespace

void SsspEnactor::enact(const Csr& g, VertexId source,
                        const SsspOptions& opts, SsspResult& out) {
  GRX_CHECK_MSG(source < g.num_vertices(), "SSSP source out of range");
  GRX_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  SsspProgram prog{problem_, pq_, opts, source, {}, {}};
  enact_program(g, prog, out.summary);
  out.dist = problem_.dist;
  out.pred = problem_.pred;
  out.pq_stats = pq_.stats();
}

std::uint32_t sssp_auto_delta(const Csr& g) {
  const double avg_deg =
      g.num_vertices()
          ? static_cast<double>(g.num_edges()) / g.num_vertices()
          : 1.0;
  if (avg_deg < 8.0) {
    // Low-degree, high-diameter graphs already run latency-bound with
    // hundreds of tiny iterations; extra priority levels only add
    // launches. Leave the pile unsplit.
    return 0;
  }
  // Mean weight of U[1,64] is 32.5; delta ~ avg edge relaxation reach per
  // bucket.
  return static_cast<std::uint32_t>(
      std::max(1.0, 32.5 * std::max(1.0, avg_deg / 8.0)));
}

}  // namespace grx
