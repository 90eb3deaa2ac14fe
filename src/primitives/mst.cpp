#include "primitives/mst.hpp"

#include <numeric>

#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

using CM = simt::CostModel;

constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};
constexpr std::uint32_t kEdgeBits = 30;

std::uint64_t pack(Weight w, std::uint32_t edge_id) {
  // Weight in the high bits; edge id as a deterministic tie-break so all
  // packed keys are distinct — then the "each component follows its
  // minimum edge" graph has no cycles except mutual pairs.
  return (static_cast<std::uint64_t>(w) << kEdgeBits) | edge_id;
}

std::uint32_t unpack_edge(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & ((1u << kEdgeBits) - 1));
}

/// Edge-frontier filter: drop edges whose endpoints merged.
struct CrossComponentFunctor {
  static bool cond_edge(VertexId s, VertexId d, EdgeId, MstProblem& p) {
    return simt::atomic_load(p.comp[s]) != simt::atomic_load(p.comp[d]);
  }
  static void apply_edge(VertexId, VertexId, EdgeId, MstProblem&) {}
};

/// Borůvka as an operator program. One step = min-edge selection + partner
/// resolution + hook + full pointer-jump compression + cross-component
/// refilter; converged when a round hooks nothing (only isolated
/// components remain) or the edge frontier drains. The terminal probe
/// round (selection that finds no partner) is logged like any other.
struct MstProgram {
  MstProblem& p;
  std::vector<std::uint32_t>& frontier;
  std::vector<std::uint32_t>& next;
  std::vector<std::uint8_t>& in_mst;
  std::vector<VertexId>& partner;
  std::uint64_t total_weight = 0;
  std::uint32_t round = 0;
  bool done = false;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    const VertexId n = g.num_vertices();
    p.comp.resize(n);
    std::iota(p.comp.begin(), p.comp.end(), VertexId{0});
    // Flat edge arrays are rebuilt in place every enact — caching on graph
    // identity would be unsound (a new Csr can reuse a previous one's
    // address), and the cleared vectors keep capacity, so the rebuild
    // allocates nothing in steady state.
    p.esrc.clear();
    p.edst.clear();
    p.ew.clear();
    for (VertexId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto ws = g.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        if (v < nbrs[i]) {
          p.esrc.push_back(v);
          p.edst.push_back(nbrs[i]);
          p.ew.push_back(ws[i]);
        }
    }
    GRX_CHECK_MSG(p.esrc.size() < (1u << kEdgeBits),
                  "edge id space exceeded");
    p.best.assign(n, kNoEdge);

    frontier.resize(p.esrc.size());
    std::iota(frontier.begin(), frontier.end(), 0u);
    in_mst.assign(p.esrc.size(), 0);
    partner.assign(n, kInvalidVertex);
    total_weight = 0;
    round = 0;
    done = false;
  }

  bool converged(OpContext&) { return done || frontier.empty(); }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    const VertexId n = g.num_vertices();
    simt::Device& dev = c.dev();
    const std::uint64_t selected = frontier.size();

    // 1. Min-edge selection: every cross edge bids for both endpoint
    //    components (compute fused into an edge-frontier advance).
    dev.for_each("mst_select", frontier.size(),
                 [&](simt::Lane& lane, std::size_t i) {
                   const std::uint32_t e = frontier[i];
                   lane.load_coalesced(2);
                   const VertexId rs = p.comp[p.esrc[e]];
                   const VertexId rd = p.comp[p.edst[e]];
                   if (rs == rd) return;
                   const std::uint64_t key = pack(p.ew[e], e);
                   lane.atomic(2);
                   simt::atomic_min(p.best[rs], key);
                   simt::atomic_min(p.best[rd], key);
                 });

    // 2a. Partner resolution (read-only): each root with a candidate edge
    //     finds the root on the other side and records the edge. Mutual
    //     pairs (two roots picking the same edge) record it once, via the
    //     CAS on in_mst.
    dev.for_each("mst_partner", n, [&](simt::Lane& lane, std::size_t vi) {
      const auto r = static_cast<VertexId>(vi);
      lane.load_coalesced();
      partner[r] = kInvalidVertex;
      if (p.comp[r] != r) return;  // not a root
      const std::uint64_t key = p.best[r];
      if (key == kNoEdge) return;
      const std::uint32_t e = unpack_edge(key);
      const VertexId rs = p.comp[p.esrc[e]];
      const VertexId rd = p.comp[p.edst[e]];
      const VertexId other = (rs == r) ? rd : rs;
      GRX_CHECK(other != r);
      // Mutual-pair cycle breaking: the smaller root stays put.
      if (p.best[other] == key && r < other) return;
      partner[r] = other;
      lane.atomic();
      if (simt::atomic_cas(in_mst[e], std::uint8_t{0}, std::uint8_t{1}) == 0)
        simt::atomic_add(total_weight,
                         static_cast<std::uint64_t>(p.ew[e]));
    });

    // 2b. Hook: each root writes only its own label (no lost updates);
    //     with cycles broken above, the hook graph is a forest.
    std::uint32_t hooked = 0;
    dev.for_each("mst_hook", n, [&](simt::Lane& lane, std::size_t vi) {
      const auto r = static_cast<VertexId>(vi);
      if (partner[r] == kInvalidVertex) return;
      lane.load_coalesced();
      p.comp[r] = partner[r];
      simt::atomic_store_if_differs(hooked, 1u);
    });
    if (hooked == 0) {
      // Only isolated components remain: stop before touching the frontier
      // (the selection probe above is still logged as this round's work).
      done = true;
      return {round, selected, selected, selected, false};
    }

    // 3. Pointer jumping until every label is a root (as in CC; plain
    //    stores — the structure is a forest, so this converges by depth
    //    halving regardless of interleaving).
    bool jumping = true;
    while (jumping) {
      std::uint32_t jchanged = 0;
      dev.for_each("mst_jump", n, [&](simt::Lane& lane, std::size_t vi) {
        lane.load_coalesced();
        const VertexId comp = simt::atomic_load(p.comp[vi]);
        const VertexId cc = simt::atomic_load(p.comp[comp]);
        if (comp == cc) return;
        lane.load_scattered();
        simt::atomic_store(p.comp[vi], cc);
        simt::atomic_store_if_differs(jchanged, 1u);
      });
      jumping = jchanged != 0;
    }
    std::fill(p.best.begin(), p.best.end(), kNoEdge);
    dev.charge_pass("mst_reset", n, CM::kCoalesced);

    // 4. Filter the edge frontier down to still-cross-component edges.
    const FilterStats fs =
        c.filter_edges_into<CrossComponentFunctor>(frontier, next, p);
    frontier.swap(next);
    round++;
    return {round - 1, fs.inputs, fs.outputs, fs.inputs, false};
  }
};

}  // namespace

void MstEnactor::enact(const Csr& g, const QueryOptions& opts,
                       MstResult& out) {
  GRX_CHECK_MSG(g.has_weights(), "MST requires edge weights");
  out.edges.clear();
  out.total_weight = 0;
  out.num_components = 0;
  const VertexId n = g.num_vertices();
  if (n == 0) {
    out.summary = {};
    return;
  }

  Timer wall;
  begin_enact(opts);
  MstProgram prog{problem_, frontier_, next_, in_mst_, partner_};
  const std::uint64_t work = run_program(g, prog);

  out.total_weight = prog.total_weight;
  for (std::size_t e = 0; e < problem_.esrc.size(); ++e)
    if (in_mst_[e])
      out.edges.emplace_back(problem_.esrc[e], problem_.edst[e],
                             problem_.ew[e]);
  for (VertexId v = 0; v < n; ++v)
    if (problem_.comp[v] == v) out.num_components++;
  finish_into(out.summary, work, wall.elapsed_ms());
}

}  // namespace grx
