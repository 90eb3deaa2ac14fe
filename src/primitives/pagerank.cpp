#include "primitives/pagerank.hpp"

#include <cmath>

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Filter: keep vertices that have not converged.
struct PruneFunctor {
  static bool cond_vertex(VertexId v, PrProblem& p) { return !p.converged[v]; }
  static void apply_vertex(VertexId, PrProblem&) {}
};

double contribution(const Csr& g, VertexId v, double rank) {
  return g.degree(v) ? rank / static_cast<double>(g.degree(v)) : 0.0;
}

/// PageRank as an operator program: gather over in-edges, fused
/// update-and-contribute compute, prune-filter. While the frontier is every
/// vertex (always at epsilon 0, and until the first prune otherwise) the
/// gather takes the whole-range form, planned once per enact.
struct PrProgram {
  PrProblem& p;
  const Csr& gT;
  const QueryOptions& opts;
  AdvanceConfig cfg;
  FilterConfig fcfg;
  std::uint32_t iter = 0;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    const auto n = g.num_vertices();
    p.rank.assign(n, 1.0 / n);
    p.contrib.resize(n);
    p.converged.assign(n, 0);
    p.epsilon = opts.epsilon;
    c.compute_all(n, p, [&](std::uint32_t v, PrProblem& prob) {
      prob.contrib[v] = contribution(g, v, prob.rank[v]);
    });
    // The dangling vertices, in vertex order: a compaction of the degree
    // flags the compute above reads.
    p.dangling.clear();
    for (VertexId v = 0; v < n; ++v)
      if (g.degree(v) == 0) p.dangling.push_back(v);
    c.dev().charge_pass("pr_dangling", n, simt::CostModel::kCoalesced,
                        /*fused=*/true);

    cfg.strategy = opts.strategy;
    c.plan_whole_gather(gT, p.plan, cfg);
    iter = 0;

    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) {
    return c.frontier().empty() || iter >= opts.max_iterations;
  }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    const auto n = g.num_vertices();
    // gathered[i] = sum of contrib[u] over the in-edges (u -> v_i).
    const auto map = [](VertexId, VertexId u, EdgeId, PrProblem& prob) {
      return prob.contrib[u];
    };
    const auto sum = [](double a, double b) { return a + b; };
    // A frontier of n items is the iota frontier: the filter only drops.
    const std::uint64_t edges =
        c.frontier().size() == n
            ? c.neighbor_reduce_all<double>(gT, p.plan, p.gathered, p, 0.0,
                                            map, sum)
            : c.neighbor_reduce<double>(gT, p.gathered, p, 0.0, map, sum,
                                        cfg);

    // Dangling mass: vertices with no out-edges spread uniformly. Summed
    // in vertex order.
    double dangling = 0.0;
    for (VertexId v : p.dangling) dangling += p.rank[v];
    c.dev().charge_pass("pr_dangling", p.dangling.size(),
                        simt::CostModel::kCoalesced);

    // Rank update + convergence test + the next gather's contribution.
    const double base =
        (1.0 - opts.damping) / n + opts.damping * dangling / n;
    c.compute_indexed(p, [&](std::size_t i, std::uint32_t v, PrProblem& prob) {
      const double next = base + opts.damping * prob.gathered[i];
      if (prob.epsilon > 0.0 &&
          std::abs(next - prob.rank[v]) < prob.epsilon * (1.0 / n))
        prob.converged[v] = 1;
      prob.rank[v] = next;
      prob.contrib[v] = contribution(g, v, next);
    });
    ++iter;

    // Without a positive epsilon nothing converges, so the prune filter
    // could drop nothing: the frontier stays whole.
    const std::uint64_t active = c.frontier().size();
    if (opts.epsilon <= 0.0) return {0, active, active, edges, false};
    c.filter_frontier<PruneFunctor>(p, fcfg);
    const IterationStats s{0, active, c.staged().size(), edges, false};
    c.promote();
    return s;
  }
};

}  // namespace

void PrEnactor::enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
                      PagerankResult& out) {
  GRX_CHECK(g.num_vertices() > 0);
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  PrProgram prog{problem_, gT, opts, {}, {}};
  enact_program(g, prog, opts, out.summary);
  out.rank = problem_.rank;
}

}  // namespace grx
