#include "primitives/coloring.hpp"

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

struct UncoloredFunctor {
  static bool cond_vertex(VertexId v, ColorProblem& p) {
    return simt::atomic_load(p.color[v]) == kInfinity;
  }
  static void apply_vertex(VertexId, ColorProblem&) {}
};

/// Jones-Plassmann as an operator program: priority-draw compute, fused
/// gather + color-selection kernel, uncolored filter per round.
struct ColoringProgram {
  ColorProblem& p;
  std::uint64_t seed;

  void init(OpContext& c) {
    const VertexId n = c.graph().num_vertices();
    p.color.assign(n, kInfinity);
    p.priority.assign(n, 0);
    p.seed = seed;
    p.round = 0;
    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    // 1. Per-round priorities (stateless hash, compute step).
    c.compute(p, [&](std::uint32_t v, ColorProblem& prob) {
      Rng h(prob.seed ^ (static_cast<std::uint64_t>(prob.round) << 40) ^ v);
      prob.priority[v] = (h.next_u64() << 20) | v;
    });

    // 2. Local maxima color themselves with the smallest color missing
    //    from their colored neighborhood (a fused gather + compute; the
    //    64-bit occupancy mask covers the first 64 colors, with a linear
    //    fallback beyond — rare, since colors <= maxdegree+1).
    const auto& items = c.frontier().items();
    std::uint64_t edge_acc = 0;
    c.dev().for_each("color_select", items.size(),
                     [&](simt::Lane& lane, std::size_t i) {
                       const VertexId v = items[i];
                       const auto nbrs = g.neighbors(v);
                       lane.charge(nbrs.size() *
                                   simt::CostModel::kScattered);
                       simt::atomic_add(
                           edge_acc,
                           static_cast<std::uint64_t>(nbrs.size()));
                       std::uint64_t used_mask = 0;
                       for (VertexId u : nbrs) {
                         const std::uint32_t cu =
                             simt::atomic_load(p.color[u]);
                         if (cu == kInfinity) {
                           if (p.priority[u] > p.priority[v])
                             return;  // defer
                         } else if (cu < 64) {
                           used_mask |= 1ull << cu;
                         }
                       }
                       std::uint32_t col =
                           used_mask == ~0ull
                               ? 64u
                               : static_cast<std::uint32_t>(
                                     __builtin_ctzll(~used_mask));
                       if (col >= 64) {
                         // Linear probe beyond 64 colors.
                         for (col = 64;; ++col) {
                           bool used = false;
                           for (VertexId u : nbrs)
                             used |= simt::atomic_load(p.color[u]) == col;
                           if (!used) break;
                         }
                       }
                       // Winners are an independent set, so no two adjacent
                       // vertices write in the same round: plain store.
                       simt::atomic_store(p.color[v], col);
                     });

    // 3. Filter the still-uncolored into the next round.
    const FilterStats fs = c.filter_frontier<UncoloredFunctor>(p);
    const IterationStats s{p.round, fs.inputs, fs.outputs, edge_acc, false};
    c.promote();
    p.round++;
    return s;
  }
};

}  // namespace

void ColoringEnactor::enact(const Csr& g, const QueryOptions& opts,
                            ColoringResult& out) {
  const VertexId n = g.num_vertices();
  if (n == 0) {
    out.color.clear();
    out.num_colors = 0;
    out.summary = {};
    return;
  }
  ColoringProgram prog{problem_, opts.seed};
  enact_program(g, prog, opts, out.summary);

  out.color = problem_.color;
  out.num_colors = 0;
  for (std::uint32_t col : out.color)
    out.num_colors = std::max(out.num_colors, col + 1);
}

}  // namespace grx
