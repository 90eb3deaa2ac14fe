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

/// SSSP as an operator program: label-stamp, then a push round
/// (relax-advance + dedup-filter) or a pull round (in-edge fold) by
/// Beamer's switch, with the near/far split as the frontier hand-off and
/// the priority-level advance folded into the convergence predicate (the
/// "is there more work" question includes the banked far pile).
struct SsspProgram {
  SsspProblem& p;
  PriorityFrontier& pq;
  const QueryOptions& opts;
  const Csr& gT;
  VertexId source;
  AdvanceConfig acfg;
  FilterConfig fcfg;
  DirectionState dir;

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
    const std::size_t size = c.frontier().size();
    bool prepared = false;
    const bool pulling = detail::choose_pull(
        c.dev(), c.graph(), c.frontier().items(), opts.pull_alpha,
        opts.pull_beta, dir, c.advance_workspace(), prepared);
    const std::uint32_t min_label = stamp_labels(c);
    const std::uint64_t edges =
        pulling ? pull(c, min_label) : push(c, prepared);
    if (pq.enabled()) {
      pq.split(c.dev(), c.staged().items(), c.frontier().items(),
               priority());
    } else {
      c.promote();
    }
    return {0, size, c.frontier().size(), edges, pulling};
  }

  /// Push round: relax-advance into advance_out(), then the dedup filter
  /// into staged(). Returns the edges relaxed.
  std::uint64_t push(OpContext& c, bool prepared) {
    const AdvanceStats a = advance_push<RelaxFunctor>(
        c.dev(), c.graph(), c.frontier().items(), c.advance_out().items(), p,
        acfg, c.advance_workspace(), prepared);
    p.iteration++;
    c.filter<RelaxFunctor>(p, fcfg);
    return a.edges_processed;
  }

  /// Stamps each frontier vertex's enqueue-time label (see
  /// SsspProblem::labels) and returns the smallest: no candidate of this
  /// round can be below it. A sub-phase of the frontier hand-off, not a
  /// separate launch: one scattered read + write per frontier vertex, the
  /// min a warp reduction on the side.
  std::uint32_t stamp_labels(OpContext& c) {
    const auto& items = c.frontier().items();
    constexpr std::size_t kChunk = 256;
    std::uint32_t min_label = kInfinity;
    const auto stamp = [&](std::size_t ch) {
      const std::size_t lo = ch * kChunk;
      const std::size_t hi = std::min(items.size(), lo + kChunk);
      std::uint32_t m = kInfinity;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint32_t v = items[i];
        p.labels[v] = simt::atomic_load(p.dist[v]);
        m = std::min(m, p.labels[v]);
      }
      return m;
    };
    const std::size_t chunks = (items.size() + kChunk - 1) / kChunk;
    if (chunks <= simt::Device::kSerialLaunchWarps) {
      for (std::size_t ch = 0; ch < chunks; ++ch)
        min_label = std::min(min_label, stamp(ch));
    } else {
#pragma omp parallel for schedule(static) reduction(min : min_label)
      for (std::ptrdiff_t ch = 0; ch < static_cast<std::ptrdiff_t>(chunks);
           ++ch)
        min_label = std::min(min_label, stamp(static_cast<std::size_t>(ch)));
    }
    c.dev().charge_pass("sssp_labels", items.size(),
                        2 * simt::CostModel::kScattered, /*fused=*/true);
    return min_label;
  }

  /// Pull round: every vertex v folds min(label[u] + w(u -> v)) over its
  /// in-edges from frontier members u (the frontier bitmap) and, where the
  /// fold beats dist[v], writes dist and pred itself. A vertex at or below
  /// `min_label` (the smallest label) cannot improve and skips its
  /// in-edges; an in-edge whose weight alone reaches the fold's best so far
  /// skips its label read.
  /// Each warp owns 32 consecutive vertices and sweeps their in-edges
  /// cooperatively, as neighbor_reduce's per-warp mapping does; improved
  /// vertices are staged per warp and scattered into staged() in vertex
  /// order, unique — no dedup filter. Returns the in-edges swept.
  std::uint64_t pull(OpContext& c, std::uint32_t min_label) {
    using CM = simt::CostModel;
    simt::Device& dev = c.dev();
    AdvanceWorkspace& ws = c.advance_workspace();
    const VertexId n = gT.num_vertices();
    detail::mark_frontier(dev, n, c.frontier().items(), ws);
    const std::size_t num_warps = (n + CM::kWarpSize - 1) / CM::kWarpSize;
    ws.out.begin(num_warps, n);
    if (ws.warp_probes.size() < num_warps) ws.warp_probes.resize(num_warps);
    dev.for_each_warp("sssp_pull", num_warps, [&](simt::Warp& w) {
      const VertexId base = static_cast<VertexId>(w.id() * CM::kWarpSize);
      const auto lanes = static_cast<unsigned>(
          std::min<VertexId>(CM::kWarpSize, n - base));
      std::uint32_t* stage = ws.out.scratch.data() + base;
      std::uint32_t improved = 0;
      std::uint64_t swept = 0, hits = 0;
      for (VertexId v = base; v < base + lanes; ++v) {
        std::uint32_t best = p.dist[v];
        if (best <= min_label) continue;
        VertexId arg = kInvalidVertex;
        const EdgeId end = gT.row_end(v);
        swept += end - gT.row_start(v);
        for (EdgeId e = gT.row_start(v); e < end; ++e) {
          // No label is below min_label, so an arc whose weight alone
          // closes the gap cannot improve v: skip its label read.
          const std::uint32_t w_uv = gT.weight(e);
          if (w_uv >= best - min_label) continue;
          const VertexId u = gT.col_index(e);
          if (!ws.bitmap.test(u)) continue;
          ++hits;
          const std::uint32_t cand = p.labels[u] + w_uv;
          if (cand < best) {
            best = cand;
            arg = u;
          }
        }
        if (arg == kInvalidVertex) continue;
        p.dist[v] = best;
        p.pred[v] = arg;
        stage[improved++] = v;
      }
      w.load_coalesced(lanes);               // dist reads, row offsets
      w.bulk(swept, CM::kCoalesced);         // in-edge sweep, bitmap tests
      w.bulk(hits, CM::kScattered);          // frontier members' labels
      w.bulk(improved, 2 * CM::kCoalesced);  // dist + pred stores
      ws.out.counts[w.id()] = improved;
      ws.warp_probes[w.id()] = swept;
    });
    simt::scatter_into(dev, ws.out, num_warps, c.staged().items(),
                       [](std::size_t ch) { return ch * CM::kWarpSize; });
    std::uint64_t swept = 0;
    for (std::size_t w = 0; w < num_warps; ++w) swept += ws.warp_probes[w];
    return swept;
  }
};

}  // namespace

void SsspEnactor::enact(const Csr& g, const Csr& gT, VertexId source,
                        const QueryOptions& opts, SsspResult& out) {
  GRX_CHECK_MSG(source < g.num_vertices(), "SSSP source out of range");
  GRX_CHECK_MSG(g.has_weights(), "SSSP requires edge weights");
  GRX_CHECK(gT.num_vertices() == g.num_vertices() &&
            gT.num_edges() == g.num_edges());
  GRX_CHECK_MSG(gT.weights().size() == g.weights().size(),
                "SSSP pull rounds need g's weighted in-edges: an unweighted "
                "transpose would relax hop counts");
  SsspProgram prog{problem_, pq_, opts, gT, source, {}, {}, {}};
  enact_program(g, prog, opts, out.summary);
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
