#include "primitives/mis.hpp"

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/neighbor_reduce.hpp"
#include "core/program.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

enum State : std::uint8_t { kUndecided = 0, kInSet = 1, kExcluded = 2 };

/// Filter functor: keep only still-undecided vertices in the frontier.
struct UndecidedFunctor {
  static bool cond_vertex(VertexId v, MisProblem& p) {
    return simt::atomic_load(p.state[v]) == kUndecided;
  }
  static void apply_vertex(VertexId, MisProblem&) {}
};

/// Luby MIS as an operator program: priority-draw compute, neighborhood
/// max gather-reduce, select/exclude computes, undecided filter. The
/// summary's edge total counts gathered degrees (not logged per round, as
/// before) — tracked in total_edges.
struct MisProgram {
  MisProblem& p;
  std::vector<std::uint64_t>& nbr_max;
  std::uint64_t seed;
  std::uint64_t total_edges = 0;

  void init(OpContext& c) {
    const VertexId n = c.graph().num_vertices();
    p.state.assign(n, kUndecided);
    p.priority.assign(n, 0);
    p.seed = seed;
    p.round = 0;
    total_edges = 0;
    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    // 1. Draw per-round priorities (compute step; stateless hash so lanes
    //    are independent).
    c.compute(p, [&](std::uint32_t v, MisProblem& prob) {
      Rng h(prob.seed ^ (static_cast<std::uint64_t>(prob.round) << 40) ^ v);
      prob.priority[v] = (h.next_u64() << 20) | v;  // tie-break by id
    });

    // 2. Gather-reduce: the max priority among undecided neighbors.
    c.neighbor_reduce<std::uint64_t>(
        nbr_max, p, 0,
        [](VertexId, VertexId u, EdgeId, MisProblem& prob) {
          return prob.state[u] == kUndecided ? prob.priority[u] : 0;
        },
        [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
    for (std::uint32_t v : c.frontier().items()) total_edges += g.degree(v);

    // 3. Local maxima join the set; mark them (compute step).
    const auto& items = c.frontier().items();
    c.dev().for_each("mis_select", items.size(),
                     [&](simt::Lane& lane, std::size_t i) {
                       lane.load_coalesced(2);
                       const VertexId v = items[i];
                       if (p.priority[v] > nbr_max[i]) p.state[v] = kInSet;
                     });

    // 4. Winners exclude their neighbors (advance-style scatter; plain
    //    stores suffice — all writers write kExcluded).
    c.dev().for_each("mis_exclude", items.size(),
                     [&](simt::Lane& lane, std::size_t i) {
                       const VertexId v = items[i];
                       if (p.state[v] != kInSet) return;
                       const EdgeId end = g.row_end(v);
                       lane.charge((end - g.row_start(v)) *
                                   simt::CostModel::kScattered);
                       for (EdgeId e = g.row_start(v); e < end; ++e) {
                         const VertexId u = g.col_index(e);
                         if (simt::atomic_load(p.state[u]) == kUndecided)
                           simt::atomic_store(
                               p.state[u],
                               static_cast<std::uint8_t>(kExcluded));
                       }
                     });

    // 5. Filter undecided survivors into the next round's frontier.
    const FilterStats fs = c.filter_frontier<UndecidedFunctor>(p);
    const IterationStats s{p.round, fs.inputs, fs.outputs, 0, false};
    c.promote();
    p.round++;
    return s;
  }
};

}  // namespace

void MisEnactor::enact(const Csr& g, const QueryOptions& opts,
                       MisResult& out) {
  const VertexId n = g.num_vertices();
  out.in_set.assign(n, 0);
  out.set_size = 0;
  if (n == 0) {
    out.summary = {};
    return;
  }
  Timer wall;
  begin_enact(opts);
  MisProgram prog{problem_, nbr_max_, opts.seed};
  run_program(g, prog);

  for (VertexId v = 0; v < n; ++v)
    if (problem_.state[v] == kInSet) {
      out.in_set[v] = 1;
      out.set_size++;
    }
  finish_into(out.summary, prog.total_edges, wall.elapsed_ms());
}

}  // namespace grx
