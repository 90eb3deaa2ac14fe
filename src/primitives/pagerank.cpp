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
/// update-and-contribute compute, prune-filter.
struct PrProgram {
  PrProblem& p;
  const Csr& gT;
  const PagerankOptions& opts;
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

    cfg.strategy = opts.strategy;
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
    const std::uint64_t edges = c.neighbor_reduce<double>(
        gT, p.gathered, p, 0.0,
        [](VertexId, VertexId u, EdgeId, PrProblem& prob) {
          return prob.contrib[u];
        },
        [](double a, double b) { return a + b; }, cfg);

    // Dangling mass: vertices with no out-edges spread uniformly.
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v)
      if (g.degree(v) == 0) dangling += p.rank[v];
    c.dev().charge_pass("pr_dangling", n, simt::CostModel::kCoalesced);

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

    c.filter_frontier<PruneFunctor>(p, fcfg);
    const IterationStats s{0, c.frontier().size(), c.staged().size(), edges,
                           false};
    if (opts.epsilon > 0.0) c.promote();
    ++iter;
    return s;
  }
};

}  // namespace

void PrEnactor::enact(const Csr& g, const Csr& gT, const PagerankOptions& opts,
                      PagerankResult& out) {
  GRX_CHECK(g.num_vertices() > 0);
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  PrProgram prog{problem_, gT, opts, {}, {}};
  enact_program(g, prog, out.summary);
  out.rank = problem_.rank;
}

}  // namespace grx
