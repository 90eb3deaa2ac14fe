#include "primitives/hits.hpp"

#include <cmath>

#include "core/compute.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

void l2_normalize(simt::Device& dev, std::vector<double>& xs) {
  double ss = 0.0;
  for (double x : xs) ss += x * x;
  dev.charge_pass("hits_norm_reduce", xs.size(), simt::CostModel::kCoalesced);
  const double inv = ss > 0.0 ? 1.0 / std::sqrt(ss) : 0.0;
  for (double& x : xs) x *= inv;
  dev.charge_pass("hits_norm_scale", xs.size(), simt::CostModel::kCoalesced);
}

/// HITS as an operator program: two gather-reduce sweeps (one over the
/// transpose, one over the graph) plus normalizations per iteration, for a
/// fixed iteration count.
struct HitsProgram {
  HitsProblem& p;
  std::vector<double>& scratch;
  const Csr& gT;
  const QueryOptions& opts;
  std::uint32_t it = 0;

  void init(OpContext& c) {
    const VertexId n = c.graph().num_vertices();
    p.hub.assign(n, 1.0);
    p.auth.assign(n, 1.0);
    // The frontier is every vertex on every iteration: both sweeps take
    // the whole-range gather, planned here once per enact.
    c.plan_whole_gather(gT, p.in_plan);
    c.plan_whole_gather(c.graph(), p.out_plan);
    it = 0;
  }

  bool converged(OpContext&) { return it >= opts.iterations; }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    // auth(v) = sum over in-edges (u -> v) of hub(u): a gather-reduce over
    // the transpose's neighborhoods.
    c.neighbor_reduce_all<double>(
        gT, p.in_plan, scratch, p, 0.0,
        [&](VertexId, VertexId u, EdgeId, HitsProblem& prob) {
          return prob.hub[u];
        },
        [](double a, double b) { return a + b; });
    p.auth.swap(scratch);
    l2_normalize(c.dev(), p.auth);

    // hub(v) = sum over out-edges (v -> u) of auth(u).
    c.neighbor_reduce_all<double>(
        g, p.out_plan, scratch, p, 0.0,
        [&](VertexId, VertexId u, EdgeId, HitsProblem& prob) {
          return prob.auth[u];
        },
        [](double a, double b) { return a + b; });
    p.hub.swap(scratch);
    l2_normalize(c.dev(), p.hub);

    const std::uint64_t edges = g.num_edges() + gT.num_edges();
    const IterationStats s{it, g.num_vertices(), g.num_vertices(), edges,
                           false};
    ++it;
    return s;
  }
};

}  // namespace

void HitsEnactor::enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
                        HitsResult& out) {
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  GRX_CHECK(g.num_vertices() > 0);
  HitsProgram prog{problem_, scratch_, gT, opts};
  enact_program(g, prog, opts, out.summary);
  out.hub = problem_.hub;
  out.authority = problem_.auth;
}

}  // namespace grx
