#include "primitives/cc.hpp"

#include <bit>
#include <limits>
#include <numeric>

#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Hooking: roots of differing components merge — the larger root label is
/// atomically lowered to the smaller (monotone, so races converge; Soman's
/// odd/even alternation serves the same purpose on a PRAM).
/// An edge whose endpoints already share a component is removed.
struct HookFunctor {
  static bool cond_edge(VertexId s, VertexId d, EdgeId, CcProblem& p) {
    const VertexId cs = simt::atomic_load(p.comp[s]);
    const VertexId cd = simt::atomic_load(p.comp[d]);
    if (cs == cd) return false;  // settled: drop from the edge frontier
    const VertexId hi = std::max(cs, cd), lo = std::min(cs, cd);
    if (simt::atomic_min(p.comp[hi], lo) > lo)
      simt::atomic_store_if_differs(p.changed, 1u);
    return true;  // keep: endpoints may still need future hooks
  }
  static void apply_edge(VertexId, VertexId, EdgeId, CcProblem&) {}
};

/// Pointer jumping: c[v] <- c[c[v]] until every label is a root. A vertex
/// whose label is already a root leaves the frontier.
struct JumpFunctor {
  static bool cond_vertex(VertexId v, CcProblem& p) {
    const VertexId c = simt::atomic_load(p.comp[v]);
    const VertexId cc = simt::atomic_load(p.comp[c]);
    if (c == cc) return false;  // star reached: remove from frontier
    simt::atomic_min(p.comp[v], cc);
    return true;
  }
  static void apply_vertex(VertexId, CcProblem&) {}
};

/// Upper bound on the hook rounds (BSP steps) of CC on an n-vertex graph.
/// The count depends on which racing atomic_min lands first, so a measured
/// enact can run more rounds than any warm-up did; the enactor reserves its
/// round log and the caller's per-iteration record to this bound up front.
///
/// After each round's pointer jumping every label is a root, and a root is
/// the smallest id in its tree (labels only fall, from the identity). Call a
/// tree live while an edge joins it to another tree. However lanes race:
///  (a) a tree with a lower-labelled neighbour at round start hooks (its
///      root is lowered) in that round — the joining edge reads the tree's
///      own label and a smaller one;
///  (b) a live tree S that neither hooks nor absorbs another tree in a
///      round lowers, through each edge whose far endpoint is not a root,
///      that endpoint's root to at most S's label; so by the next round S
///      has absorbed that tree or has a lower neighbour and hooks by (a).
///      If every far endpoint is a root, its tree has S as a lower
///      neighbour and hooks in this round by (a), so in the next round no
///      far endpoint is a root.
/// So a live root that is still a root three rounds later has absorbed a
/// tree that was live three rounds earlier; trees are disjoint, so the live
/// roots at least halve every three rounds: after 3*ceil(log2 n) rounds
/// none is live, and one more round sees no change and converges. (With
/// round-start reads they halve every two rounds; a racing read can
/// redirect a hook mid-round, which the argument above covers with the
/// third.) Exceeding the bound would cost an allocation, never a wrong
/// label.
std::size_t cc_max_rounds(std::size_t n) {
  return 3 * static_cast<std::size_t>(std::bit_width(n > 1 ? n - 1 : 0)) + 1;
}

/// CC as an operator program. One step = one hook round over the shrinking
/// edge frontier followed by full pointer-jump compression (both phases on
/// shrinking frontiers, per Figure 6); converged when a hook round moved no
/// label. The jump passes' inputs are extra device work beyond the logged
/// hook inputs — tallied in jump_work for the summary total.
struct CcProgram {
  CcProblem& p;
  std::vector<std::uint32_t>& edge_frontier;
  std::vector<std::uint32_t>& next_edges;
  std::vector<std::uint32_t>& vf;
  std::vector<std::uint32_t>& nvf;
  std::uint64_t jump_work = 0;
  bool done = false;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    p.comp.resize(g.num_vertices());
    std::iota(p.comp.begin(), p.comp.end(), VertexId{0});
    edge_frontier.resize(p.edge_src.size());
    std::iota(edge_frontier.begin(), edge_frontier.end(), 0u);
    // The ping-pong swaps in step() hand either buffer of a pair either
    // role, and the swap parity varies with the racy round count, so both
    // buffers of each pair hold full capacity.
    next_edges.reserve(p.edge_src.size());
    vf.reserve(g.num_vertices());
    nvf.reserve(g.num_vertices());
    done = false;
    jump_work = 0;
  }

  bool converged(OpContext&) { return done; }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    p.changed = 0;
    const FilterStats hs =
        c.filter_edges_into<HookFunctor>(edge_frontier, next_edges, p);
    edge_frontier.swap(next_edges);

    // Pointer-jumping rounds (vertex filter) until all labels are roots.
    vf.resize(g.num_vertices());
    std::iota(vf.begin(), vf.end(), 0u);
    while (!vf.empty()) {
      const FilterStats js = c.filter_into<JumpFunctor>(vf, nvf, p);
      jump_work += js.inputs;
      vf.swap(nvf);
    }

    if (p.changed == 0) done = true;
    return {0, hs.inputs, hs.outputs, hs.inputs, false};
  }
};

}  // namespace

void build_cc_hook_list(const Csr& g, CcHookList& out) {
  const auto n = static_cast<std::ptrdiff_t>(g.num_vertices());
  // start[v + 1] = hooks row v contributes; the scan turns it into row v's
  // first slot, so the parallel scatter writes the serial walk's order.
  std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::ptrdiff_t v = 0; v < n; ++v) {
    std::size_t k = 0;
    for (VertexId u : g.neighbors(static_cast<VertexId>(v)))
      k += static_cast<std::size_t>(v) < u;
    start[v + 1] = k;
  }
  std::inclusive_scan(start.begin(), start.end(), start.begin());
  GRX_CHECK_MSG(start.back() <= std::numeric_limits<std::uint32_t>::max(),
                "CC edge id space exceeded");
  out.src.resize(start.back());
  out.dst.resize(start.back());
  std::uint32_t* const src = out.src.data();
  std::uint32_t* const dst = out.dst.data();
#pragma omp parallel for schedule(dynamic, 1024)
  for (std::ptrdiff_t v = 0; v < n; ++v) {
    std::size_t slot = start[v];
    for (VertexId u : g.neighbors(static_cast<VertexId>(v)))
      if (static_cast<std::size_t>(v) < u) {
        src[slot] = static_cast<std::uint32_t>(v);
        dst[slot++] = u;
      }
  }
}

void CcEnactor::enact(const Csr& g, const CcHookList& hooks,
                      const QueryOptions& opts, CcResult& out) {
  Timer wall;
  begin_enact(opts);
  problem_.edge_src = hooks.src;
  problem_.edge_dst = hooks.dst;
  CcProgram prog{problem_, edge_frontier_, next_edges_, vf_, nvf_};
  const std::size_t max_rounds = cc_max_rounds(g.num_vertices());
  log_.reserve(max_rounds);
  out.summary.per_iteration.reserve(max_rounds);
  const std::uint64_t hook_work = run_program(g, prog);

  out.component = problem_.comp;
  // Count roots = components.
  out.num_components = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (out.component[v] == v) out.num_components++;
  finish_into(out.summary, hook_work + prog.jump_work, wall.elapsed_ms());
}

}  // namespace grx
