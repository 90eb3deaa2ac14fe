// Neighborhood gather-reduce operator — the paper's first named piece of
// future work (Section 7): "a new gather-reduce operator on neighborhoods
// associated with vertices in the current frontier both fits nicely into
// Gunrock's abstraction and will significantly improve performance"
// compared to expressing reductions through atomics in an advance.
//
// For each frontier vertex v, computes
//     out[v] = reduce(init, map(v, u, e) for each incident edge (v,u,e))
// as a segmented reduction (no atomics), with the advance's workload
// mapping chosen by the same kAuto rule from the same degree gather:
//
//  * per-warp   — each warp owns 32 consecutive segments and sweeps them
//                 cooperatively (evenly-distributed degrees, and every
//                 frontier below the LB node/edge threshold).
//  * edge-chunk — the LB advance's partitioning (Davidson et al.): scan the
//                 frontier's degrees, split the edge range into 256-edge
//                 chunks, sorted-search each chunk's first row. A chunk
//                 folds the rows it holds, one row sub-range at a time. A
//                 row split across chunks is finished by a fixup that folds
//                 the later chunks' partials into it in chunk order.
//
// Both mappings fix the fold order from the frontier alone, so results are
// byte-identical across host thread counts, floating-point sums included.
//
// neighbor_reduce_all is the whole-vertex-range form, the gather's
// counterpart of compute_all: its frontier is [0, n), never built. The
// graph's row offsets are that frontier's degree scan, and its totals (m,
// max degree) are the degree gather's, so a WholeGatherPlan decides the
// mapping and sorted-searches the chunk starts once, for every sweep over
// that graph that follows; the sweeps pay only the reduce kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/advance.hpp"
#include "core/frontier.hpp"
#include "graph/csr.hpp"
#include "simt/device.hpp"
#include "simt/primitives.hpp"

namespace grx {

namespace detail {

/// Edges per chunk of the edge-chunked mapping (one CTA's worth).
inline constexpr std::uint64_t kReduceChunkEdges = simt::CostModel::kCtaSize;

/// Whether a frontier of `n` items may take the edge-chunked mapping at
/// all: only then is the degree gather that decides it paid for.
inline bool may_chunk_edges(const AdvanceConfig& cfg, std::size_t n) {
  return n >= cfg.lb_node_edge_threshold &&
         (cfg.strategy == AdvanceStrategy::kAuto ||
          cfg.strategy == AdvanceStrategy::kLoadBalanced);
}

/// The mapping rule both forms share, read from a frontier's totals: edge
/// chunks when kAuto finds the frontier skewed or kLoadBalanced forces
/// them, per-warp otherwise.
inline bool chunks_edges(const AdvanceConfig& cfg, std::size_t n,
                         std::uint64_t edges, std::uint32_t max_degree) {
  return may_chunk_edges(cfg, n) && edges > 0 &&
         resolve_strategy(cfg.strategy, edges, max_degree, n) ==
             AdvanceStrategy::kLoadBalanced;
}

/// Per-warp mapping over rows [0, n), row i being vertex `vertex(i)`: each
/// warp owns 32 segments, sweeping them cooperatively — coalesced edge
/// reads, no atomics, one coalesced result write per segment. Returns the
/// edges swept.
template <typename T, typename P, typename VertexAt, typename MapFn,
          typename ReduceFn>
std::uint64_t reduce_per_warp(simt::Device& dev, const Csr& g, std::size_t n,
                              VertexAt vertex, std::vector<T>& out, P& prob,
                              T init, MapFn& map, ReduceFn& reduce,
                              AdvanceWorkspace& ws) {
  using CM = simt::CostModel;
  out.assign(n, init);
  const std::size_t num_warps = (n + CM::kWarpSize - 1) / CM::kWarpSize;
  if (ws.warp_probes.size() < num_warps) ws.warp_probes.resize(num_warps);
  dev.for_each_warp("neighbor_reduce", num_warps, [&](simt::Warp& w) {
    const std::size_t base = w.id() * CM::kWarpSize;
    const std::size_t lanes = std::min<std::size_t>(CM::kWarpSize, n - base);
    w.load_coalesced(static_cast<unsigned>(lanes));  // segment offsets
    std::uint64_t edges = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const VertexId v = vertex(base + l);
      T acc = init;
      const EdgeId end = g.row_end(v);
      for (EdgeId e = g.row_start(v); e < end; ++e) {
        acc = reduce(acc, map(v, g.col_index(e), e, prob));
        ++edges;
      }
      out[base + l] = acc;
    }
    w.bulk(edges, CM::kCoalesced);                   // edge sweep
    w.load_coalesced(static_cast<unsigned>(lanes));  // result write
    ws.warp_probes[w.id()] = edges;
  });
  std::uint64_t swept = 0;
  for (std::size_t w = 0; w < num_warps; ++w) swept += ws.warp_probes[w];
  return swept;
}

/// Edge-chunked mapping over rows [0, n), row i being vertex `vertex(i)`:
/// `offsets` (n + 1 entries) holds the rows' exclusive edge ranks and
/// `starts` each chunk's first row (the sorted search over `offsets`).
template <typename T, typename P, typename VertexAt, typename MapFn,
          typename ReduceFn>
void reduce_edge_chunked(simt::Device& dev, const Csr& g, std::size_t n,
                         VertexAt vertex,
                         std::span<const std::uint64_t> offsets,
                         std::span<const std::uint32_t> starts,
                         std::vector<T>& out, P& prob, T init, MapFn& map,
                         ReduceFn& reduce) {
  using CM = simt::CostModel;
  const std::uint64_t total = offsets[n];
  const std::uint64_t chunk = kReduceChunkEdges;
  const std::size_t num_chunks = starts.size();
  // Rows start at `init` (zero-degree rows keep it); slot n + c holds chunk
  // c's partial of a row that began in an earlier chunk.
  out.assign(n + num_chunks, init);
  dev.for_each_warp("neighbor_reduce_lb", num_chunks, [&](simt::Warp& w) {
    const std::uint64_t lo = w.id() * chunk;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, total);
    std::uint32_t row = starts[w.id()];
    std::uint64_t rows = 0;
    for (std::uint64_t k = lo; k < hi; ++rows) {
      while (offsets[row + 1] <= k) ++row;  // skip zero-degree rows
      const VertexId v = vertex(row);
      const std::uint64_t row_end = std::min(offsets[row + 1], hi);
      const EdgeId first = g.row_start(v) + (k - offsets[row]);
      const EdgeId last = first + (row_end - k);
      T acc = init;
      for (EdgeId e = first; e < last; ++e)
        acc = reduce(acc, map(v, g.col_index(e), e, prob));
      out[offsets[row] < lo ? n + w.id() : row] = acc;
      k = row_end;
    }
    w.bulk(hi - lo, CM::kCoalesced);  // edge sweep, as in the per-warp map
    w.alu();                          // chunk setup
    w.bulk(rows, CM::kCoalesced);     // row and carry writes
  });
  // Fixup: fold each carried partial into its row, in chunk order. Only a
  // chunk's first row can have begun earlier, so one slot per chunk.
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::uint32_t row = starts[c];
    if (offsets[row] < c * chunk) out[row] = reduce(out[row], out[n + c]);
  }
  dev.charge_pass("neighbor_reduce_fixup", num_chunks,
                  2 * CM::kCoalesced, /*fused=*/true);
  out.resize(n);
}

}  // namespace detail

/// Result values are written to out[i] for frontier item i (dense, aligned
/// with the input frontier order; prior contents are destroyed). `init`
/// must be an identity of `reduce` (0 for sums, the minimum for max): the
/// edge-chunked mapping folds each chunk's share of a row from `init`.
///
/// `cfg.strategy` picks the mapping (kAuto: the advance's hybrid rule;
/// kLoadBalanced: edge chunks; kTwc/kThreadFine: per-warp) and
/// `cfg.lb_node_edge_threshold` is the frontier size below which LB stays
/// per-warp, as in the advance. `ws` holds the degree gather, scan, chunk
/// starts and per-warp edge tallies; `out` doubles as the carry pool (one
/// tail slot per chunk during the call). Both keep their capacity, so callers that keep them
/// alive across BSP iterations (as the primitives do) pay no steady-state
/// allocations.
///
/// `map(src, dst, e, prob) -> T`; `reduce(T, T) -> T`. Returns the edges
/// swept: the frontier's total degree in `g`.
template <typename T, typename P, typename MapFn, typename ReduceFn>
std::uint64_t neighbor_reduce(simt::Device& dev, const Csr& g,
                              const Frontier& in, std::vector<T>& out,
                              P& prob, T init, MapFn&& map,
                              ReduceFn&& reduce, const AdvanceConfig& cfg,
                              AdvanceWorkspace& ws) {
  GRX_CHECK(in.kind() == FrontierKind::kVertex);
  const auto& items = in.items();
  const std::size_t n = items.size();
  if (n == 0) {
    out.clear();
    return 0;
  }
  const auto vertex = [&items](std::size_t i) { return items[i]; };

  bool edge_chunked = false;
  if (detail::may_chunk_edges(cfg, n)) {
    detail::prepare_frontier(dev, g, items, ws);
    edge_chunked =
        detail::chunks_edges(cfg, n, ws.frontier_edges, ws.max_degree);
  }
  if (!edge_chunked)
    return detail::reduce_per_warp(dev, g, n, vertex, out, prob, init, map,
                                   reduce, ws);

  // Edge-chunked: per-row edge ranks from the scan, chunk starts from the
  // sorted search (both charged by their primitives, as in the LB advance).
  const std::uint64_t total = ws.frontier_edges;
  ws.offsets.resize(n + 1);
  simt::exclusive_scan(dev, ws.degrees, std::span(ws.offsets).first(n));
  ws.offsets[n] = total;
  simt::sorted_search_chunks(dev, ws.offsets, detail::kReduceChunkEdges,
                             ws.lb_starts);
  detail::reduce_edge_chunked(dev, g, n, vertex,
                              std::span<const std::uint64_t>(ws.offsets),
                              std::span<const std::uint32_t>(ws.lb_starts),
                              out, prob, init, map, reduce);
  return total;
}

/// The whole-vertex-range gather's plan over one graph: the mapping the
/// frontier form would pick for the iota frontier [0, n), and for the
/// edge-chunked mapping the chunk starts. Pooled by the caller (a
/// program's Problem) and rebuilt once per enact by plan_whole_gather.
struct WholeGatherPlan {
  VertexId num_vertices = 0;  ///< the planned graph's size, checked on use
  EdgeId num_edges = 0;
  bool edge_chunked = false;
  std::vector<std::uint32_t> lb_starts;  ///< each chunk's first row
};

/// Decides the mapping from the graph's totals (m, max degree — what the
/// frontier form's degree gather yields for an iota frontier) under the
/// same `cfg` rule, and sorted-searches the chunk starts over
/// g.row_offsets() (that frontier's degree scan). Charges only the sorted
/// search, once.
inline void plan_whole_gather(simt::Device& dev, const Csr& g,
                              const AdvanceConfig& cfg,
                              WholeGatherPlan& plan) {
  plan.num_vertices = g.num_vertices();
  plan.num_edges = g.num_edges();
  plan.edge_chunked = detail::chunks_edges(cfg, g.num_vertices(),
                                           g.num_edges(), g.max_degree());
  if (plan.edge_chunked)
    simt::sorted_search_chunks(dev, g.row_offsets(),
                               detail::kReduceChunkEdges, plan.lb_starts);
}

/// neighbor_reduce over every vertex of `g`, with `plan` built for `g`:
/// out[v] for vertex v. Same mapping, chunk boundaries and fold order as
/// neighbor_reduce over an iota frontier, so the same `out` bytes and
/// kernel charges for the reduce itself, without that form's per-call
/// degree gather, scan and sorted search. Returns the edges swept (the
/// graph's edge count).
template <typename T, typename P, typename MapFn, typename ReduceFn>
std::uint64_t neighbor_reduce_all(simt::Device& dev, const Csr& g,
                                  const WholeGatherPlan& plan,
                                  std::vector<T>& out, P& prob, T init,
                                  MapFn&& map, ReduceFn&& reduce,
                                  AdvanceWorkspace& ws) {
  GRX_CHECK_MSG(plan.num_vertices == g.num_vertices() &&
                    plan.num_edges == g.num_edges(),
                "whole-range gather plan was built for another graph");
  const std::size_t n = g.num_vertices();
  if (n == 0) {
    out.clear();
    return 0;
  }
  const auto vertex = [](std::size_t i) { return static_cast<VertexId>(i); };
  if (!plan.edge_chunked)
    return detail::reduce_per_warp(dev, g, n, vertex, out, prob, init, map,
                                   reduce, ws);
  detail::reduce_edge_chunked(dev, g, n, vertex, g.row_offsets(),
                              std::span<const std::uint32_t>(plan.lb_starts),
                              out, prob, init, map, reduce);
  return g.num_edges();
}

}  // namespace grx
