#include "primitives/salsa.hpp"

#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

void l1_normalize(simt::Device& dev, std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  dev.charge_pass("salsa_norm_reduce", xs.size(),
                  simt::CostModel::kCoalesced);
  if (total > 0.0)
    for (double& x : xs) x /= total;
  dev.charge_pass("salsa_norm_scale", xs.size(),
                  simt::CostModel::kCoalesced);
}

/// SALSA as an operator program: two degree-normalized gather-reduce
/// sweeps plus L1 normalizations per iteration, fixed iteration count.
struct SalsaProgram {
  SalsaProblem& p;
  std::vector<double>& scratch;
  const Csr& gT;
  const QueryOptions& opts;
  std::uint32_t it = 0;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    const VertexId n = g.num_vertices();
    p.g = &g;
    p.gT = &gT;
    // Seed mass on the sides that can carry it.
    p.hub.assign(n, 0.0);
    p.auth.assign(n, 0.0);
    for (VertexId v = 0; v < n; ++v) {
      if (g.degree(v) > 0) p.hub[v] = 1.0;
      if (gT.degree(v) > 0) p.auth[v] = 1.0;
    }
    l1_normalize(c.dev(), p.hub);
    l1_normalize(c.dev(), p.auth);
    // The frontier is every vertex on every iteration: both sweeps take
    // the whole-range gather, planned here once per enact.
    c.plan_whole_gather(gT, p.in_plan);
    c.plan_whole_gather(c.graph(), p.out_plan);
    it = 0;
  }

  bool converged(OpContext&) { return it >= opts.iterations; }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    // Authority step: a(v) = sum over in-edges (u -> v) of h(u)/outdeg(u).
    c.neighbor_reduce_all<double>(
        gT, p.in_plan, scratch, p, 0.0,
        [&](VertexId, VertexId u, EdgeId, SalsaProblem& prob) {
          const auto d = prob.g->degree(u);
          return d ? prob.hub[u] / d : 0.0;
        },
        [](double a, double b) { return a + b; });
    p.auth.swap(scratch);
    l1_normalize(c.dev(), p.auth);

    // Hub step: h(u) = sum over out-edges (u -> v) of a(v)/indeg(v).
    c.neighbor_reduce_all<double>(
        g, p.out_plan, scratch, p, 0.0,
        [&](VertexId, VertexId v, EdgeId, SalsaProblem& prob) {
          const auto d = prob.gT->degree(v);
          return d ? prob.auth[v] / d : 0.0;
        },
        [](double a, double b) { return a + b; });
    p.hub.swap(scratch);
    l1_normalize(c.dev(), p.hub);

    const std::uint64_t edges = g.num_edges() + gT.num_edges();
    const IterationStats s{it, g.num_vertices(), g.num_vertices(), edges,
                           false};
    ++it;
    return s;
  }
};

}  // namespace

void SalsaEnactor::enact(const Csr& g, const Csr& gT,
                         const QueryOptions& opts, SalsaResult& out) {
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  GRX_CHECK(g.num_vertices() > 0);
  SalsaProgram prog{problem_, scratch_, gT, opts};
  enact_program(g, prog, opts, out.summary);
  out.hub = problem_.hub;
  out.authority = problem_.auth;
}

}  // namespace grx
