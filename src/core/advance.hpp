// Advance: generate a new frontier by visiting neighbors of the current one
// (Section 4.1), with the paper's workload-mapping strategies (Section 4.4)
// and push/pull + idempotence optimizations (Section 4.5).
//
// Strategies:
//  * kThreadFine    — one frontier vertex's neighbor list per lane; the warp
//                     serializes to its longest list (Merrill's baseline).
//  * kTwc           — per-Thread/Warp/CTA size classing (Merrill et al.,
//                     Figure 4): large lists processed block-cooperatively,
//                     medium warp-cooperatively, small per-thread.
//  * kLoadBalanced  — Davidson et al.'s partitioning (Figure 5): scan the
//                     frontier's degrees, split the edge range into equal
//                     chunks, sorted-search the chunk boundaries.
//  * kAuto          — the paper's hybrid: fine-grained grouping for evenly-
//                     distributed small degrees, LB for skewed frontiers;
//                     within LB, balance over nodes below a 4096-item
//                     frontier threshold and over edges above it.
//
// Direction:
//  * kPush          — scatter from the frontier to neighbors.
//  * kPull          — iterate over unvisited vertices and probe their
//                     incoming neighbors against a frontier bitmap
//                     (requires PullableFunctor). Beamer's optimization.
//  * kOptimal       — switch push->pull when the frontier's edge volume
//                     exceeds |E|/alpha, back when it shrinks below
//                     |V|/beta (direction-optimizing BFS).
//
// Operator contracts and configuration semantics: docs/operators.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "core/functor.hpp"
#include "graph/csr.hpp"
#include "simt/atomic.hpp"
#include "simt/device.hpp"
#include "simt/primitives.hpp"
#include "util/bitset.hpp"

namespace grx {

enum class AdvanceStrategy : std::uint8_t {
  kThreadFine,
  kTwc,
  kLoadBalanced,
  kAuto,
};

enum class Direction : std::uint8_t { kPush, kPull, kOptimal };

const char* to_string(AdvanceStrategy s);
const char* to_string(Direction d);

/// TWC size-class boundaries (paper Figure 4): a neighbor list longer than
/// kTwcWarpThreshold is swept by a whole warp, one longer than
/// kTwcCtaThreshold by a whole CTA; shorter lists go one per thread.
inline constexpr std::uint32_t kTwcWarpThreshold = 32;
inline constexpr std::uint32_t kTwcCtaThreshold = 256;

struct AdvanceConfig {
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  Direction direction = Direction::kPush;
  /// Idempotent ops skip the per-edge atomic claim; duplicates may appear
  /// in the output frontier and are culled (cheaply, heuristically) by the
  /// next filter.
  bool idempotent = false;
  /// Paper Section 4.4: below this frontier size, LB balances over nodes;
  /// above it, over edges. "Setting this threshold to 4096 yields
  /// consistent high performance across all Gunrock-provided primitives."
  std::uint32_t lb_node_edge_threshold = 4096;
  /// Direction-optimal switch parameters (Beamer et al.).
  double pull_alpha = 14.0;
  double pull_beta = 24.0;
};

struct AdvanceStats {
  std::uint64_t edges_processed = 0;  ///< edges touched (or pull probes)
  std::uint64_t outputs = 0;          ///< items emitted before filtering
  bool used_pull = false;
  AdvanceStrategy used_strategy = AdvanceStrategy::kAuto;
};

/// Sticky state of Beamer's push/pull switch (detail::choose_pull), one per
/// traversal.
struct DirectionState {
  bool pulling = false;
  std::size_t prev_size = 0;  ///< frontier size at the previous decision
};

/// Reusable scratch across advance calls, owned by the primitive's enactor:
/// the pull bitmap (maintained incrementally), the frontier degree/offset
/// arrays shared by every push strategy and the direction heuristic, and the
/// two-phase output-assembly pools. All buffers only ever grow, so the
/// steady-state advance loop allocates nothing.
struct AdvanceWorkspace {
  // Pull direction: frontier bitmap plus the vertices currently set in it,
  // so each iteration clears only the previous frontier's bits instead of
  // wiping all |V|.
  AtomicBitset bitmap;
  std::vector<std::uint32_t> bitmap_frontier;

  // Per-frontier degree gather, computed once per advance and shared by the
  // chunk-placement logic of every push strategy, the kAuto dispatch, and
  // the kOptimal direction heuristic. warp_bases is the exclusive scan of
  // per-warp degree sums (num_warps + 1 entries) — 32x less scan work than
  // a per-item scan, and exactly the granularity the warp-chunked kernels
  // place their scratch slices at. The per-item scan (offsets) is computed
  // only by the edge-chunked LB advance, which needs per-row edge ranks.
  std::vector<std::uint32_t> degrees;
  std::vector<std::uint64_t> warp_bases;
  std::vector<std::uint64_t> offsets;
  std::uint64_t frontier_edges = 0;  ///< sum of frontier degrees (m_f)
  std::uint32_t max_degree = 0;      ///< max frontier degree

  simt::ChunkedOutput out;                 ///< two-phase assembly pools
  std::vector<std::uint32_t> lb_starts;    ///< LB sorted-search chunk rows
  /// Per-warp tallies: pull probe counts, neighbor_reduce's swept edges.
  std::vector<std::uint64_t> warp_probes;

  DirectionState direction;  ///< sticky direction state for kOptimal

  /// Clears cross-enactment state (sticky direction); pooled buffer
  /// capacity is deliberately retained.
  void begin_enact() { direction = {}; }
};

namespace detail {

/// Gathers frontier degrees into ws.degrees, exclusive-scans the per-warp
/// degree sums into ws.warp_bases, and summarizes totals into
/// ws.frontier_edges/max_degree. One pass per advance: the caller chain
/// passes `frontier_prepared = true` downstream once done, so the direction
/// heuristic, strategy dispatch, and chunk placement all feed from the same
/// arrays.
inline void prepare_frontier(simt::Device& dev, const Csr& g,
                             const std::vector<std::uint32_t>& in,
                             AdvanceWorkspace& ws) {
  constexpr unsigned W = simt::CostModel::kWarpSize;
  const std::size_t n = in.size();
  const std::size_t num_warps = (n + W - 1) / W;
  ws.degrees.resize(n);
  ws.warp_bases.resize(num_warps + 1);
  std::uint32_t max_deg = 0;
  auto gather_warp = [&](std::size_t w) {
    const std::size_t base = w * W;
    const std::size_t lanes = std::min<std::size_t>(W, n - base);
    std::uint64_t sum = 0;
    std::uint32_t wmax = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint32_t d = g.degree(in[base + l]);
      ws.degrees[base + l] = d;
      sum += d;
      wmax = std::max(wmax, d);
    }
    ws.warp_bases[w + 1] = sum;  // per-warp sum; scanned below
    return wmax;
  };
  if (num_warps <= simt::Device::kSerialLaunchWarps) {
    for (std::size_t w = 0; w < num_warps; ++w)
      max_deg = std::max(max_deg, gather_warp(w));
  } else {
#pragma omp parallel for schedule(static) reduction(max : max_deg)
    for (std::ptrdiff_t w = 0; w < static_cast<std::ptrdiff_t>(num_warps);
         ++w)
      max_deg = std::max(max_deg, gather_warp(static_cast<std::size_t>(w)));
  }
  ws.warp_bases[0] = 0;
  for (std::size_t w = 0; w < num_warps; ++w)
    ws.warp_bases[w + 1] += ws.warp_bases[w];
  // Row-offset reads for scattered frontier vertices plus the warp-count
  // scan; sub-phases of the advance's count/scan kernel, not separate
  // launches.
  dev.charge_pass("gather_degrees", n, simt::CostModel::kScattered,
                  /*fused=*/true);
  dev.charge_pass("count_scan", num_warps, 2 * simt::CostModel::kCoalesced,
                  /*fused=*/true);
  ws.frontier_edges = ws.warp_bases[num_warps];
  ws.max_degree = max_deg;
}

/// Beamer's sticky push/pull switch (Section 4.5): pull once the frontier's
/// edge volume m_f passes |E|/alpha, push again once the frontier is below
/// |V|/beta and shrinking. Only the push->pull entry needs m_f: it runs the
/// degree gather into `ws` and sets `prepared`, so the push that most
/// likely follows reuses it. At most one gather is wasted per flip, and
/// sticky-pull rounds (the big frontiers) never sweep degrees at all.
inline bool choose_pull(simt::Device& dev, const Csr& g,
                        const std::vector<std::uint32_t>& frontier,
                        double alpha, double beta, DirectionState& state,
                        AdvanceWorkspace& ws, bool& prepared) {
  if (!state.pulling) {
    prepare_frontier(dev, g, frontier, ws);
    prepared = true;
    state.pulling = static_cast<double>(ws.frontier_edges) >
                    static_cast<double>(g.num_edges()) / alpha;
  } else if (static_cast<double>(frontier.size()) <
                 static_cast<double>(g.num_vertices()) / beta &&
             frontier.size() < state.prev_size) {
    state.pulling = false;
  }
  state.prev_size = frontier.size();
  return state.pulling;
}

/// Makes ws.bitmap hold exactly the frontier `in` (the pull directions'
/// membership test). Incremental: clears only the bits the previous
/// frontier set (tracked in ws.bitmap_frontier) instead of wiping all |V|
/// words, then sets the current frontier's bits. Single writer, so the bit
/// ops are plain load/or/store — no locked RMWs.
inline void mark_frontier(simt::Device& dev, VertexId num_vertices,
                          const std::vector<std::uint32_t>& in,
                          AdvanceWorkspace& ws) {
  if (ws.bitmap.size() != num_vertices) {
    ws.bitmap.resize(num_vertices);  // fresh bitmaps come zeroed
    ws.bitmap_frontier.clear();
  }
  for (std::uint32_t v : ws.bitmap_frontier) ws.bitmap.reset_unsync(v);
  const std::size_t stale = ws.bitmap_frontier.size();
  for (std::uint32_t v : in) ws.bitmap.set_unsync(v);
  ws.bitmap_frontier.assign(in.begin(), in.end());
  dev.charge_pass("frontier_bitmap", stale + in.size(),
                  simt::CostModel::kScattered);
}

/// The kAuto hybrid rule (Section 4.4), read from a frontier's edge total
/// and max degree (prepare_frontier's degree gather, or the graph's own
/// totals for the whole vertex range): skewed frontiers -> LB partitioning;
/// evenly-distributed small degrees -> fine-grained dynamic grouping (TWC).
/// Exact max/avg, no sampling pass. Explicit strategies pass through
/// unchanged. Shared by the push advance and neighbor_reduce.
inline AdvanceStrategy resolve_strategy(AdvanceStrategy s,
                                        std::uint64_t frontier_edges,
                                        std::uint32_t max_degree,
                                        std::size_t frontier_size) {
  if (s != AdvanceStrategy::kAuto) return s;
  const double avg = frontier_size == 0
                         ? 0.0
                         : static_cast<double>(frontier_edges) /
                               static_cast<double>(frontier_size);
  return (max_degree > 16 * std::max(1.0, avg) || max_degree > 256)
             ? AdvanceStrategy::kLoadBalanced
             : AdvanceStrategy::kTwc;
}

/// Runs the functor on one edge; stages dst compactly into the chunk's
/// scratch slice on acceptance. Returns the updated in-chunk count.
template <typename F, typename P>
inline std::uint32_t process_edge(const Csr& g, VertexId src, EdgeId e,
                                  P& prob, std::uint32_t* chunk_scratch,
                                  std::uint32_t count) {
  const VertexId dst = g.col_index(e);
  if (F::cond_edge(src, dst, e, prob)) {
    F::apply_edge(src, dst, e, prob);
    chunk_scratch[count++] = dst;
  }
  return count;
}

}  // namespace detail

/// Push advance, per-thread fine-grained mapping.
template <typename F, typename P>
  requires EdgeFunctor<F, P>
AdvanceStats advance_thread_fine(simt::Device& dev, const Csr& g,
                                 const std::vector<std::uint32_t>& in,
                                 std::vector<std::uint32_t>& out, P& prob,
                                 const AdvanceConfig& cfg,
                                 AdvanceWorkspace& ws,
                                 bool frontier_prepared = false) {
  using CM = simt::CostModel;
  AdvanceStats stats;
  stats.used_strategy = AdvanceStrategy::kThreadFine;
  if (!frontier_prepared) detail::prepare_frontier(dev, g, in, ws);
  const std::size_t num_warps = (in.size() + CM::kWarpSize - 1) / CM::kWarpSize;
  ws.out.begin(num_warps, ws.frontier_edges);
  // Each lane owns one neighbor list; the warp serializes to its longest
  // (max), idle lanes burn slots; each edge is a scattered access;
  // non-idempotent ops add an atomic claim per edge. Work and cost
  // accounting fused into one warp program.
  const std::uint64_t per_edge =
      CM::kScattered + (cfg.idempotent ? 0 : CM::kAtomic);
  dev.for_each_warp("advance_thread_fine", num_warps, [&](simt::Warp& w) {
    const std::size_t base = w.id() * CM::kWarpSize;
    const std::size_t lanes =
        std::min<std::size_t>(CM::kWarpSize, in.size() - base);
    std::uint32_t* scratch = ws.out.scratch.data() + ws.warp_bases[w.id()];
    std::uint32_t n_out = 0;
    std::uint64_t max_d = 0, sum_d = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const VertexId v = in[base + l];
      const std::uint64_t d = ws.degrees[base + l];
      max_d = std::max(max_d, d);
      sum_d += d;
      const EdgeId end = g.row_end(v);
      for (EdgeId e = g.row_start(v); e < end; ++e)
        n_out = detail::process_edge<F>(g, v, e, prob, scratch, n_out);
    }
    ws.out.counts[w.id()] = n_out;
    w.load_coalesced(static_cast<unsigned>(lanes));  // offset loads
    w.charge(max_d * per_edge, sum_d * per_edge);
  });
  simt::scatter_into(dev, ws.out, num_warps, out,
                     [&](std::size_t c) { return ws.warp_bases[c]; });
  stats.edges_processed = ws.frontier_edges;
  stats.outputs = out.size();
  return stats;
}

/// Push advance, per-thread/warp/CTA size classing (Merrill et al.).
template <typename F, typename P>
  requires EdgeFunctor<F, P>
AdvanceStats advance_twc(simt::Device& dev, const Csr& g,
                         const std::vector<std::uint32_t>& in,
                         std::vector<std::uint32_t>& out, P& prob,
                         const AdvanceConfig& cfg, AdvanceWorkspace& ws,
                         bool frontier_prepared = false) {
  using CM = simt::CostModel;
  AdvanceStats stats;
  stats.used_strategy = AdvanceStrategy::kTwc;
  if (!frontier_prepared) detail::prepare_frontier(dev, g, in, ws);
  const std::size_t num_warps = (in.size() + CM::kWarpSize - 1) / CM::kWarpSize;
  ws.out.begin(num_warps, ws.frontier_edges);
  const std::uint64_t atomic_extra = cfg.idempotent ? 0 : CM::kAtomic;

  // Real work and cost accounting fused: the warp program does both.
  dev.for_each_warp("advance_twc", num_warps, [&](simt::Warp& w) {
    const std::size_t base = w.id() * CM::kWarpSize;
    const std::size_t lanes =
        std::min<std::size_t>(CM::kWarpSize, in.size() - base);
    std::uint32_t* scratch = ws.out.scratch.data() + ws.warp_bases[w.id()];
    std::uint32_t n_out = 0;
    w.load_coalesced(static_cast<unsigned>(lanes));  // stage offsets
    w.alu(static_cast<unsigned>(lanes));             // size classification

    std::uint64_t small_max = 0, small_sum = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const VertexId v = in[base + l];
      const std::uint32_t d = ws.degrees[base + l];
      // Host side: process the list now regardless of class.
      const EdgeId end = g.row_end(v);
      for (EdgeId e = g.row_start(v); e < end; ++e)
        n_out = detail::process_edge<F>(g, v, e, prob, scratch, n_out);
      // Device side: charge by class.
      if (d > kTwcCtaThreshold) {
        // CTA-cooperative: coalesced, but the whole list streams through a
        // *single* CTA, so it sees one SM's share of DRAM bandwidth while
        // other SMs drain. LB's chunking spreads the same list across the
        // device — this 2x factor is why coarse-grained wins on
        // hub-dominated frontiers (Figure 8 left; "higher overhead due to
        // the sequential processing", Section 4.4).
        w.bulk(d, 2 * CM::kCoalesced + atomic_extra);
        w.alu();  // block arbitration
      } else if (d > kTwcWarpThreshold) {
        // Warp-cooperative sweep.
        w.bulk(d, CM::kCoalesced + atomic_extra);
      } else {
        small_max = std::max<std::uint64_t>(small_max, d);
        small_sum += d;
      }
    }
    // Small lists: per-thread, serialized to the longest small list in the
    // warp (divergence shows up as max vs sum); offsets and list heads are
    // staged through shared memory, so per-edge cost stays near-coalesced.
    const std::uint64_t per_edge = CM::kCoalesced + atomic_extra;
    w.charge(small_max * per_edge, small_sum * per_edge);
    ws.out.counts[w.id()] = n_out;
  });
  simt::scatter_into(dev, ws.out, num_warps, out,
                     [&](std::size_t c) { return ws.warp_bases[c]; });
  stats.edges_processed = ws.frontier_edges;
  stats.outputs = out.size();
  return stats;
}

/// Push advance, load-balanced partitioning (Davidson et al.).
template <typename F, typename P>
  requires EdgeFunctor<F, P>
AdvanceStats advance_load_balanced(simt::Device& dev, const Csr& g,
                                   const std::vector<std::uint32_t>& in,
                                   std::vector<std::uint32_t>& out, P& prob,
                                   const AdvanceConfig& cfg,
                                   AdvanceWorkspace& ws,
                                   bool frontier_prepared = false) {
  using CM = simt::CostModel;
  AdvanceStats stats;
  stats.used_strategy = AdvanceStrategy::kLoadBalanced;
  if (!frontier_prepared) detail::prepare_frontier(dev, g, in, ws);
  const std::uint64_t total_work = ws.frontier_edges;
  if (total_work == 0) {
    out.clear();
    return stats;
  }

  const bool over_edges = in.size() >= cfg.lb_node_edge_threshold;
  const std::uint64_t atomic_extra = cfg.idempotent ? 0 : CM::kAtomic;
  const std::uint64_t per_edge = CM::kCoalesced + CM::kAlu + atomic_extra;

  if (over_edges) {
    // Equal chunks of *edges* per CTA; neighbor lists may split. A sorted
    // search over the per-item offset scan (computed here — only the
    // edge-chunked mapping needs per-row edge ranks) finds each chunk's
    // first source row (Figure 5).
    ws.offsets.resize(in.size() + 1);
    simt::exclusive_scan(dev, ws.degrees,
                         std::span(ws.offsets).first(in.size()));
    ws.offsets[in.size()] = total_work;
    const std::uint64_t chunk = CM::kCtaSize;
    simt::sorted_search_chunks(dev, ws.offsets, chunk, ws.lb_starts);
    const std::size_t num_chunks = ws.lb_starts.size();
    ws.out.begin(num_chunks, total_work);
    dev.for_each_warp("advance_lb_edges", num_chunks, [&](simt::Warp& w) {
      const std::uint64_t lo = w.id() * chunk;
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, total_work);
      std::uint32_t row = ws.lb_starts[w.id()];
      std::uint32_t* scratch = ws.out.scratch.data() + lo;
      std::uint32_t n_out = 0;
      // Binary search charged inside sorted_search_chunks; per-row rank
      // recovery is a few ALU ops. The chunk walks its rows one sub-range
      // at a time: one row skip per row, then a tight edge loop.
      for (std::uint64_t k = lo; k < hi;) {
        while (ws.offsets[row + 1] <= k) ++row;  // skip zero-degree rows
        const VertexId src = in[row];
        const std::uint64_t row_end = std::min(ws.offsets[row + 1], hi);
        const EdgeId first = g.row_start(src) + (k - ws.offsets[row]);
        const EdgeId last = first + (row_end - k);
        for (EdgeId e = first; e < last; ++e)
          n_out = detail::process_edge<F>(g, src, e, prob, scratch, n_out);
        k = row_end;
      }
      w.bulk(hi - lo, per_edge);
      w.alu();  // chunk setup
      ws.out.counts[w.id()] = n_out;
    });
    simt::scatter_into(dev, ws.out, num_chunks, out,
                       [&](std::size_t c) { return c * chunk; });
  } else {
    // Equal chunks of *nodes* per CTA: all lists of a chunk processed
    // cooperatively. Balanced within a chunk; imbalance across chunks shows
    // up as critical-path cycles (exactly why the paper switches to
    // edge-chunking for large frontiers).
    const std::size_t chunk_nodes = CM::kWarpSize;
    const std::size_t num_chunks =
        (in.size() + chunk_nodes - 1) / chunk_nodes;
    ws.out.begin(num_chunks, total_work);
    dev.for_each_warp("advance_lb_nodes", num_chunks, [&](simt::Warp& w) {
      const std::size_t base = w.id() * chunk_nodes;
      const std::size_t n_here =
          std::min(chunk_nodes, in.size() - base);
      // chunk_nodes == kWarpSize, so warp_bases is exactly this chunking.
      std::uint32_t* scratch = ws.out.scratch.data() + ws.warp_bases[w.id()];
      std::uint32_t n_out = 0;
      std::uint64_t count = 0;
      for (std::size_t l = 0; l < n_here; ++l) {
        const VertexId v = in[base + l];
        const EdgeId end = g.row_end(v);
        count += end - g.row_start(v);
        for (EdgeId e = g.row_start(v); e < end; ++e)
          n_out = detail::process_edge<F>(g, v, e, prob, scratch, n_out);
      }
      w.load_coalesced(static_cast<unsigned>(n_here));
      w.bulk(count, per_edge);
      ws.out.counts[w.id()] = n_out;
    });
    simt::scatter_into(dev, ws.out, num_chunks, out,
                       [&](std::size_t c) { return ws.warp_bases[c]; });
  }
  stats.edges_processed = total_work;
  stats.outputs = out.size();
  return stats;
}

/// Pull advance (direction-optimized): iterate over unvisited vertices,
/// probe incoming neighbors against the frontier bitmap, stop at first hit.
template <typename F, typename P>
  requires PullableFunctor<F, P>
AdvanceStats advance_pull(simt::Device& dev, const Csr& g,
                          const std::vector<std::uint32_t>& in,
                          std::vector<std::uint32_t>& out, P& prob,
                          AdvanceWorkspace& ws) {
  using CM = simt::CostModel;
  AdvanceStats stats;
  stats.used_pull = true;
  stats.used_strategy = AdvanceStrategy::kLoadBalanced;

  detail::mark_frontier(dev, g.num_vertices(), in, ws);

  // Each unvisited vertex emits at most itself: stage per-warp compactly at
  // the warp's base slot, then scan+scatter (deterministic vertex order).
  // Probe counts accumulate per warp — a warp reduction on a real GPU —
  // instead of hammering one cache line with per-lane atomics.
  const std::size_t num_warps =
      (g.num_vertices() + CM::kWarpSize - 1) / CM::kWarpSize;
  ws.out.begin(num_warps, g.num_vertices());
  if (ws.warp_probes.size() < num_warps) ws.warp_probes.resize(num_warps);
  dev.for_each("advance_pull", g.num_vertices(), [&](simt::Lane& lane,
                                                     std::size_t vi) {
    const std::size_t warp = vi / CM::kWarpSize;
    if (vi % CM::kWarpSize == 0) {
      ws.out.counts[warp] = 0;
      ws.warp_probes[warp] = 0;
    }
    const auto v = static_cast<VertexId>(vi);
    lane.load_coalesced();  // visited-status read
    if (!F::is_unvisited(v, prob)) return;
    std::uint64_t probes = 0;
    const EdgeId end = g.row_end(v);
    for (EdgeId e = g.row_start(v); e < end; ++e) {
      ++probes;
      const VertexId u = g.col_index(e);
      if (!ws.bitmap.test(u)) continue;
      // u is in the frontier: pull the value across edge (u -> v).
      if (F::cond_edge(u, v, e, prob)) {
        F::apply_edge(u, v, e, prob);
        ws.out.scratch[warp * CM::kWarpSize + ws.out.counts[warp]++] = v;
      }
      break;  // Beamer: first valid parent suffices
    }
    lane.charge(probes * CM::kCoalesced);  // sequential list + bitmap reads
    ws.warp_probes[warp] += probes;
  });
  simt::scatter_into(dev, ws.out, num_warps, out, [](std::size_t c) {
    return c * CM::kWarpSize;
  });
  std::uint64_t probes_acc = 0;
  for (std::size_t w = 0; w < num_warps; ++w) probes_acc += ws.warp_probes[w];
  stats.edges_processed = probes_acc;
  stats.outputs = out.size();
  return stats;
}

/// Strategy dispatch for push advance.
template <typename F, typename P>
  requires EdgeFunctor<F, P>
AdvanceStats advance_push(simt::Device& dev, const Csr& g,
                          const std::vector<std::uint32_t>& in,
                          std::vector<std::uint32_t>& out, P& prob,
                          const AdvanceConfig& cfg, AdvanceWorkspace& ws,
                          bool frontier_prepared = false) {
  if (!frontier_prepared) {
    detail::prepare_frontier(dev, g, in, ws);
    frontier_prepared = true;
  }
  switch (detail::resolve_strategy(cfg.strategy, ws.frontier_edges,
                                   ws.max_degree, in.size())) {
    case AdvanceStrategy::kThreadFine:
      return advance_thread_fine<F>(dev, g, in, out, prob, cfg, ws,
                                    frontier_prepared);
    case AdvanceStrategy::kTwc:
      return advance_twc<F>(dev, g, in, out, prob, cfg, ws,
                            frontier_prepared);
    default:
      return advance_load_balanced<F>(dev, g, in, out, prob, cfg, ws,
                                      frontier_prepared);
  }
}

/// Full advance with direction selection. For kOptimal, the push->pull
/// switch follows Beamer's heuristic on frontier edge volume; the state is
/// sticky across iterations via the workspace.
template <typename F, typename P>
  requires EdgeFunctor<F, P>
AdvanceStats advance(simt::Device& dev, const Csr& g, const Frontier& in,
                     Frontier& out, P& prob, const AdvanceConfig& cfg,
                     AdvanceWorkspace& ws) {
  GRX_CHECK(in.kind() == FrontierKind::kVertex);
  out.clear();
  AdvanceStats stats;
  Direction dir = cfg.direction;
  bool prepared = false;
  if (dir == Direction::kOptimal) {
    dir = Direction::kPush;
    if constexpr (PullableFunctor<F, P>) {
      if (detail::choose_pull(dev, g, in.items(), cfg.pull_alpha,
                              cfg.pull_beta, ws.direction, ws, prepared))
        dir = Direction::kPull;
    }
  }
  if (dir == Direction::kPull) {
    if constexpr (PullableFunctor<F, P>) {
      stats = advance_pull<F>(dev, g, in.items(), out.items(), prob, ws);
    } else {
      GRX_CHECK_MSG(false, "functor does not support pull traversal");
    }
  } else {
    stats = advance_push<F>(dev, g, in.items(), out.items(), prob, cfg, ws,
                            prepared);
  }
  return stats;
}

}  // namespace grx
