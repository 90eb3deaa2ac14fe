// Batched multi-source traversal: the lane-packed BSP loops behind
// BatchEnactor (core/batch_enactor.hpp).
//
// Shape of every loop: the union frontier (a plain vertex Frontier) feeds
// the *same* advance/filter templates as the single-query primitives; the
// batch semantics live in the functors, whose per-edge work is a few
// 64-lane word operations against the BatchFrontier masks:
//
//   cond_edge(src, dst):  D = cur[src] & ~visited[dst]   (BFS/BC/reach)
//                         next[dst] |= D  (atomic OR; emit dst iff it won
//                         at least one new bit -> duplicates are rare and
//                         the filter's claim dedups them exactly)
//   filter cond_vertex:   first claim of (vertex, iteration) survives —
//                         the union frontier carries each vertex once
//   lane sweep (compute): for the deduped new frontier, commit per-lane
//                         values (depth/sigma) and fold next into visited
//
// SSSP replaces the lane sweep with the per-lane near/far split
// (LanePriorityFrontier::claim_split / advance_drained,
// core/priority_queue.hpp): improved lanes above their cutoff are banked
// instead of re-relaxed, and drained lanes re-split without stalling the
// batch.
//
// Lane updates are commutative (OR, equal-value stores, atomicMin), so
// results are independent of edge visit order and host thread count; the
// two-phase assembler keeps the frontier *assembly* deterministic exactly
// as in the single-query pipeline.
#include "core/batch_enactor.hpp"

#include <omp.h>

#include <algorithm>

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "primitives/sssp.hpp"  // sssp_auto_delta, shared with single-query
#include "simt/vec.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Exact vertex-level dedup of the advance output: first claim of
/// (vertex, iteration) survives, everything later is dropped — the
/// output_queue_id idiom single-query SSSP uses, shared by every batched
/// primitive via the problem's `mark`/`iteration` members.
template <typename P>
struct LaneClaimFunctor {
  static bool cond_vertex(VertexId v, P& p) {
    const std::uint32_t tag = p.iteration;
    if (p.serial) {
      if ((*p.mark)[v] == tag) return false;
      (*p.mark)[v] = tag;
      return true;
    }
    const std::uint32_t old = simt::atomic_load((*p.mark)[v]);
    if (old == tag) return false;  // already queued this iteration
    return simt::atomic_cas((*p.mark)[v], old, tag) == old;
  }
  static void apply_vertex(VertexId, P&) {}
};

// --- BFS / reachability ------------------------------------------------------

struct BatchBfsProblem {
  LaneMatrix* cur = nullptr;
  LaneMatrix* next = nullptr;
  LaneMatrix* visited = nullptr;
  std::vector<std::uint32_t>* mark = nullptr;
  std::uint32_t num_lanes = 0;
  std::uint32_t wpv = 0;
  std::uint32_t iteration = 0;
  /// One host thread -> no concurrency -> plain word ops instead of locked
  /// RMWs (~10x cheaper; the host-side analog of AtomicBitset's _unsync
  /// path). Results are identical either way: the updates commute.
  bool serial = false;
};

/// Discovery across all lanes of one edge. Emits dst iff this edge set at
/// least one lane bit no other edge had set yet — so each newly reached
/// vertex is emitted at least once, duplicates only on racing words.
struct BatchBfsFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId,
                        BatchBfsProblem& p) {
    const std::uint64_t* fsrc = p.cur->row(src);
    const std::uint64_t* vdst = p.visited->row(dst);
    std::uint64_t* ndst = p.next->row(dst);
    bool won = false;
    for (std::uint32_t w = 0; w < p.wpv; ++w) {
      const std::uint64_t d = fsrc[w] & ~simt::atomic_load(vdst[w]);
      if (!d) continue;
      std::uint64_t prev;
      if (p.serial) {
        prev = ndst[w];
        ndst[w] = prev | d;
      } else {
        prev = simt::atomic_fetch_or(ndst[w], d);
      }
      won |= (d & ~prev) != 0;
    }
    return won;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BatchBfsProblem&) {}
};

// --- SSSP --------------------------------------------------------------------

struct BatchSsspProblem {
  const Csr* g = nullptr;
  LaneMatrix* cur = nullptr;
  LaneMatrix* next = nullptr;
  std::uint32_t* dist = nullptr;  ///< |V| x B
  /// Source labels the relaxation reads: under the priority schedule this
  /// is the enqueue-time snapshot (written by claim_split / wake), making
  /// each round's improvement set a pure function of round-start state —
  /// per-lane schedule stats stay byte-identical across thread counts.
  /// The plain Bellman-Ford path aliases it to `dist` (live reads chain
  /// improvements within a round, converging in fewer rounds).
  const std::uint32_t* labels = nullptr;  ///< |V| x B
  std::vector<std::uint32_t>* mark = nullptr;
  /// Per-thread (edge, active-lane) relaxation tallies, padded a cache line
  /// apart (stride kPairStride); the round's sum prices the per-lane
  /// relaxation volume — the term the near/far schedule shrinks.
  std::uint64_t* pairs = nullptr;
  std::uint32_t num_lanes = 0;
  std::uint32_t wpv = 0;
  std::uint32_t iteration = 0;
  bool serial = false;  ///< see BatchBfsProblem::serial
  /// Resolved lane-kernel backend. Only the serial relax path vectorizes:
  /// in parallel mode concurrent atomic_min writers race any full-width
  /// read of the dist row, so the parallel branch stays per-lane scalar
  /// (the claim/split/sweep kernels vectorize in both modes — there the
  /// rows are exclusively owned and dist is read-only).
  simt::VecBackend vb = simt::VecBackend::kScalar;

  static constexpr std::size_t kPairStride = 8;
};

/// Per-lane relaxation with atomicMin, Bellman-Ford rounds over the union
/// frontier. Emits dst iff some lane's distance improved.
struct BatchRelaxFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId e,
                        BatchSsspProblem& p) {
    const std::uint64_t* fsrc = p.cur->row(src);
    std::uint64_t* ndst = p.next->row(dst);
    const Weight wt = p.g->weight(e);
    const std::size_t src_base =
        static_cast<std::size_t>(src) * p.num_lanes;
    const std::size_t dst_base =
        static_cast<std::size_t>(dst) * p.num_lanes;
    bool any = false;
    std::uint64_t pairs = 0;
    for (std::uint32_t w = 0; w < p.wpv; ++w) {
      std::uint64_t m = fsrc[w];
      if (!m) continue;
      pairs += static_cast<std::uint64_t>(__builtin_popcountll(m));
      std::uint64_t improved = 0;
      const std::uint32_t lane_base = w * kLanesPerWord;
      if (p.serial && p.vb != simt::VecBackend::kScalar) {
        // Single-writer relax: the whole active word in a few masked
        // vector ops (see BatchSsspProblem::vb for why parallel mode
        // stays scalar). Arithmetic matches the loop below exactly.
        improved = simt::relax_min_u32(p.vb, p.dist + dst_base + lane_base,
                                       p.labels + src_base + lane_base, wt,
                                       m);
      } else {
        do {
          const auto q =
              lane_base + static_cast<std::uint32_t>(__builtin_ctzll(m));
          m &= m - 1;
          const std::uint32_t ds = simt::atomic_load(p.labels[src_base + q]);
          if (ds == kInfinity) continue;  // stale lane, nothing to relax
          const std::uint32_t cand = ds + wt;
          if (p.serial) {
            std::uint32_t& dd = p.dist[dst_base + q];
            if (cand < dd) {
              dd = cand;
              improved |= 1ull << (q - lane_base);
            }
          } else if (cand < simt::atomic_min(p.dist[dst_base + q], cand)) {
            improved |= 1ull << (q - lane_base);
          }
        } while (m);
      }
      if (improved) {
        if (p.serial) {
          ndst[w] |= improved;
        } else {
          simt::atomic_fetch_or(ndst[w], improved);
        }
        any = true;
      }
    }
    if (pairs)
      p.pairs[static_cast<std::size_t>(omp_get_thread_num()) *
              BatchSsspProblem::kPairStride] += pairs;
    return any;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BatchSsspProblem&) {}
};

// --- BC forward --------------------------------------------------------------

struct BatchBcProblem {
  LaneMatrix* cur = nullptr;
  LaneMatrix* next = nullptr;
  LaneMatrix* visited = nullptr;
  double* sigma = nullptr;  ///< |V| x B
  std::vector<std::uint32_t>* mark = nullptr;
  std::uint32_t num_lanes = 0;
  std::uint32_t wpv = 0;
  std::uint32_t iteration = 0;
  bool serial = false;  ///< see BatchBfsProblem::serial
};

/// Brandes forward step across lanes: every edge from a frontier lane into
/// a not-yet-visited lane contributes the source's sigma (sigma values are
/// integer counts in doubles, so the atomic adds commute exactly).
struct BatchBcForwardFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId,
                        BatchBcProblem& p) {
    const std::uint64_t* fsrc = p.cur->row(src);
    const std::uint64_t* vdst = p.visited->row(dst);
    std::uint64_t* ndst = p.next->row(dst);
    const std::size_t src_base =
        static_cast<std::size_t>(src) * p.num_lanes;
    const std::size_t dst_base =
        static_cast<std::size_t>(dst) * p.num_lanes;
    bool won = false;
    for (std::uint32_t w = 0; w < p.wpv; ++w) {
      std::uint64_t contrib = fsrc[w] & ~simt::atomic_load(vdst[w]);
      if (!contrib) continue;
      std::uint64_t prev;
      if (p.serial) {
        prev = ndst[w];
        ndst[w] = prev | contrib;
      } else {
        prev = simt::atomic_fetch_or(ndst[w], contrib);
      }
      won |= (contrib & ~prev) != 0;
      const std::uint32_t lane_base = w * kLanesPerWord;
      do {
        const auto q =
            lane_base + static_cast<std::uint32_t>(__builtin_ctzll(contrib));
        contrib &= contrib - 1;
        if (p.serial) {
          p.sigma[dst_base + q] += p.sigma[src_base + q];
        } else {
          simt::atomic_add(p.sigma[dst_base + q],
                           simt::atomic_load(p.sigma[src_base + q]));
        }
      } while (contrib);
    }
    return won;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BatchBcProblem&) {}
};

constexpr std::uint32_t kUnclaimed = 0xdeadbeefu;

/// Below this many vertices the batched SSSP auto heuristic leaves the
/// per-lane priority schedule off (see the sizing comment in sssp()).
constexpr VertexId kMinPriorityVertices = 4096;

constexpr std::uint32_t kMaxWpv =
    BatchEnactor::kMaxLanes / kLanesPerWord;

/// Bottom-up (pull) step of batched BFS/reachability — the MS-BFS analog
/// of Beamer's direction switch. Vertex-centric: every vertex with at
/// least one undiscovered lane probes its incoming neighbors, gathers
/// frontier bits word-at-a-time, and stops as soon as *every* pending lane
/// has found a parent (the per-lane generalization of "first valid parent
/// suffices"). On the saturated mid-traversal levels most vertices are
/// fully visited and cost wpv word loads, versus a full neighbor-list scan
/// in push mode — the same asymmetry that makes single-query
/// direction-optimal BFS win.
///
/// Single writer per vertex row and a fixed (CSR) probe order make this
/// step fully deterministic — no atomics at all. Emits the new frontier in
/// vertex order through the shared staging + scatter assembler. Because
/// each vertex row has exactly one writer, the lane sweep is fused in:
/// newly found lanes are committed to `depth` (when non-null) and folded
/// into `visited` right here, so pull iterations skip the separate sweep
/// kernel entirely.
/// `live` is a |V|-bit skip bitmap owned by the enactor: bit v set means
/// vertex v might still have undiscovered lanes. The pull sweep walks live
/// bits only (ctz per 64-vertex group) and clears a vertex's bit the round
/// its pend empties — either observed empty (saturated via a push round) or
/// fully covered by this round's probe. Late pull rounds, where most of the
/// graph is saturated, thus touch a handful of words instead of paying the
/// per-vertex fixed cost |V| times. Saturation is monotone (visited only
/// gains bits), so a stale-set bit costs exactly one extra visit.
std::uint64_t batch_pull_step(simt::Device& dev, const Csr& g,
                              LaneMatrix& cur, LaneMatrix& next,
                              LaneMatrix& visited, std::uint32_t* depth,
                              std::uint32_t next_depth,
                              const std::vector<std::uint32_t>& frontier,
                              std::vector<std::uint32_t>& out,
                              AdvanceWorkspace& ws, std::uint64_t* live,
                              simt::VecBackend vb) {
  using CM = simt::CostModel;
  const std::uint32_t wpv = cur.words_per_vertex();
  const std::uint32_t b = cur.num_lanes();
  GRX_CHECK(wpv <= kMaxWpv);
  std::uint64_t lane_mask[kMaxWpv];
  for (std::uint32_t w = 0; w < wpv; ++w) lane_mask[w] = ~0ull;
  if (const std::uint32_t rem = b % kLanesPerWord; rem != 0)
    lane_mask[wpv - 1] = (1ull << rem) - 1;

  // Union of lanes still expanding: every set bit of every cur row is a
  // lane with a non-empty frontier, so a probe can only ever return bits
  // inside this union — restricting the probe target to it yields the
  // same discoveries while letting the early exit fire once the *active*
  // part of a vertex's pend is covered (a pend bit of a finished or
  // far-away lane would otherwise force a full adjacency scan). Lane
  // activity is monotone in BFS-style loops (an emptied lane frontier
  // stays empty), so a vertex whose pend misses the union is dead for
  // every remaining round and leaves the live bitmap for good.
  std::uint64_t active[kMaxWpv] = {};
  for (const std::uint32_t v : frontier) {
    const std::uint64_t* r = cur.row(v);
    for (std::uint32_t w = 0; w < wpv; ++w) active[w] |= r[w];
  }
  dev.charge_pass("batch_lane_union",
                  static_cast<std::uint64_t>(frontier.size()) * wpv,
                  CM::kCoalesced, /*fused=*/true);

  // One warp-program per 64-vertex group (one live-bitmap word); staged
  // output is per-group, gathered in vertex order below. Work within a
  // group is charged cooperatively (bulk): probes and row reads spread
  // over warp lanes, the persistent-thread shape a GPU pull kernel uses.
  const std::size_t num_groups =
      (static_cast<std::size_t>(g.num_vertices()) + 63) / 64;
  ws.out.begin(num_groups, g.num_vertices());
  if (ws.warp_probes.size() < num_groups) ws.warp_probes.resize(num_groups);
  dev.for_each_warp(
      "batch_advance_pull", num_groups, [&](simt::Warp& warp) {
        const std::size_t gw = warp.id();
        ws.out.counts[gw] = 0;
        ws.warp_probes[gw] = 0;
        warp.step(1, CM::kCoalesced);  // live-word read
        std::uint64_t lv = live[gw];
        if (!lv) return;
        std::uint64_t still = lv;  // bits that stay live after this round
        std::uint64_t probes_w = 0, writes_w = 0, visits = 0;
        std::uint32_t emitted = 0;
        do {
          const unsigned bit = static_cast<unsigned>(__builtin_ctzll(lv));
          lv &= lv - 1;
          const auto v = static_cast<VertexId>(gw * 64 + bit);
          ++visits;
          std::uint64_t* vis = visited.row(v);
          const std::size_t dbase = static_cast<std::size_t>(v) * b;
          // Commit one word of newly found lanes: depth values (when
          // asked for), visited fold, next mask, contiguous writes.
          const auto commit = [&](std::uint32_t w, std::uint64_t bits) {
            next.row(v)[w] = bits;
            vis[w] |= bits;
            if (depth == nullptr) return;
            writes_w += static_cast<std::uint64_t>(
                __builtin_popcountll(bits));
            simt::masked_store_u32(vb, depth + dbase + w * kLanesPerWord,
                                   bits, next_depth);
          };
          if (wpv == 1) {
            // Single-word batches (B <= 64, the common case): the whole
            // per-vertex state is three words; the probe loop is the
            // vectorized gather kernel (its scalar variant is the probe
            // loop verbatim — probe counts, and therefore the cost model
            // and edges_processed, are backend-independent).
            const std::uint64_t pend1 = lane_mask[0] & ~vis[0] & active[0];
            if (!pend1) {  // saturated, or dead for every remaining lane
              still &= ~(1ull << bit);
              continue;
            }
            std::uint64_t got1 = 0;
            probes_w += simt::pull_probe_u64(vb, cur.row(0),
                                             g.neighbors(v).data(),
                                             g.degree(v), pend1, &got1);
            if (!got1) continue;
            if ((pend1 & ~got1) == 0) still &= ~(1ull << bit);
            commit(0, got1);
            ws.out.scratch[gw * 64 + emitted++] = v;
            continue;
          }
          std::uint64_t pend[kMaxWpv];
          std::uint64_t got[kMaxWpv];
          std::uint64_t pending = 0;
          for (std::uint32_t w = 0; w < wpv; ++w) {
            pend[w] = lane_mask[w] & ~vis[w] & active[w];
            got[w] = 0;
            pending |= pend[w];
          }
          if (!pending) {  // saturated, or dead for every remaining lane
            still &= ~(1ull << bit);
            continue;
          }
          bool won = false;
          const EdgeId end = g.row_end(v);
          for (EdgeId e = g.row_start(v); e < end && pending; ++e) {
            probes_w += 1;
            const std::uint64_t* fu = cur.row(g.col_index(e));
            pending = 0;
            for (std::uint32_t w = 0; w < wpv; ++w) {
              const std::uint64_t d = fu[w] & pend[w];
              if (d) {
                got[w] |= d;
                pend[w] &= ~d;
                won = true;
              }
              pending |= pend[w];
            }
          }
          if (!pending) still &= ~(1ull << bit);
          if (!won) continue;
          for (std::uint32_t w = 0; w < wpv; ++w)
            if (got[w]) commit(w, got[w]);
          ws.out.scratch[gw * 64 + emitted++] = v;
        } while (lv);
        live[gw] = still;
        ws.out.counts[gw] = emitted;
        ws.warp_probes[gw] = probes_w;
        warp.bulk(visits, wpv * CM::kCoalesced);  // visited-row reads
        warp.bulk(probes_w, wpv * CM::kCoalesced);  // frontier-mask probes
        if (writes_w) warp.bulk(writes_w, CM::kCoalesced);  // depth commits
      });
  simt::scatter_into(dev, ws.out, num_groups,
                     out, [](std::size_t c) { return c * 64; });
  std::uint64_t probes = 0;
  for (std::size_t w = 0; w < num_groups; ++w) probes += ws.warp_probes[w];
  return probes;
}

/// Every batched primitive drives the same advance configuration:
/// commutative lane updates need no per-edge claim (exact dedup lives in
/// the filter), and strategy/LB knobs pass straight through — except the
/// LB node/edge crossover, which scales down with the batch width: the
/// paper's 4096 was tuned for single-query frontiers, but a batched
/// frontier item carries up to `num_lanes` queries of work, so the
/// per-item scan of edge-chunking amortizes at ~B-times smaller
/// frontiers (and node chunks containing hubs serialize a whole CTA).
AdvanceConfig batch_advance_config(const QueryOptions& opts,
                                   std::uint32_t num_lanes) {
  AdvanceConfig acfg;
  acfg.strategy = opts.strategy;
  acfg.idempotent = true;
  acfg.lb_node_edge_threshold =
      std::max<std::uint32_t>(simt::CostModel::kCtaSize,
                              opts.lb_node_edge_threshold / num_lanes);
  return acfg;
}

/// Shared push-mode round body: advance with the batch functor, charge the
/// lane-word traffic the scalar per-edge cost does not model, claim-filter
/// the output so each vertex survives exactly once. Returns edges visited.
template <typename F, typename P>
std::uint64_t push_round(simt::Device& dev, const Csr& g, const Frontier& in,
                         Frontier& out, Frontier& filtered, P& p,
                         const AdvanceConfig& acfg, const FilterConfig& fcfg,
                         AdvanceWorkspace& aws, FilterWorkspace& fws,
                         bool frontier_prepared = false) {
  out.clear();
  const AdvanceStats a = advance_push<F>(dev, g, in.items(), out.items(), p,
                                         acfg, aws, frontier_prepared);
  dev.charge_pass("batch_lane_words", a.edges_processed * p.wpv,
                  simt::CostModel::kScattered, /*fused=*/true);
  filter_vertices<LaneClaimFunctor<P>>(dev, out.items(), filtered.items(), p,
                                       fcfg, fws);
  return a.edges_processed;
}

/// Push-side lane sweep, shared by every discovery-style loop: for each
/// vertex of the freshly deduped frontier, fold the new lane bits into
/// `visited` and (when `depth` is non-null) commit their level. Exactly
/// one writer per row — the filter's claim guarantees uniqueness.
void lane_sweep(simt::Device& dev, const std::vector<std::uint32_t>& fresh,
                LaneMatrix& next, LaneMatrix& visited, std::uint32_t* depth,
                std::uint32_t num_lanes, std::uint32_t next_depth,
                simt::VecBackend vb) {
  const std::uint32_t wpv = next.words_per_vertex();
  dev.for_each("batch_lane_sweep", fresh.size(),
               [&](simt::Lane& ln, std::size_t i) {
                 const VertexId v = fresh[i];
                 std::uint64_t* nxt = next.row(v);
                 std::uint64_t* vis = visited.row(v);
                 const std::size_t base =
                     static_cast<std::size_t>(v) * num_lanes;
                 ln.load_coalesced();     // queue read
                 ln.load_scattered(wpv);  // mask row update
                 std::uint64_t lane_writes = 0;
                 for (std::uint32_t w = 0; w < wpv; ++w) {
                   const std::uint64_t bits = nxt[w];
                   if (!bits) continue;
                   vis[w] |= bits;
                   if (depth == nullptr) continue;
                   // Masked depth commit — single writer per row (the
                   // filter's claim), so full-width stores are safe in
                   // parallel mode too.
                   simt::masked_store_u32(vb, depth + base + w * kLanesPerWord,
                                          bits, next_depth);
                   lane_writes += static_cast<std::uint64_t>(
                       __builtin_popcountll(bits));
                 }
                 ln.charge(lane_writes * simt::CostModel::kCoalesced);
               });
}

/// Scales the single-query auto-delta (`sssp_auto_delta`) for a B-wide
/// batch: 0 (schedule off) below kMinPriorityVertices or when the
/// heuristic itself declines, else the per-lane band width the batched
/// near/far schedule uses.
std::uint32_t batch_scale_delta(std::uint32_t auto_delta,
                                VertexId num_vertices, std::uint32_t b) {
  // Batch-aware sizing on top of the shared single-query heuristic: the
  // fixed cost of a priority level (launches, split and wake sweeps) is
  // shared by all B lanes, so a batch affords ~B/4-times finer bands —
  // and finer bands are what cut the per-lane relaxation volume. Capped
  // at the single-query delta for narrow batches. Tiny graphs stay
  // unsplit: the whole traversal is a handful of launch-bound rounds, so
  // per-level overhead can never amortize (the batch analog of the
  // heuristic's low-degree gate).
  if (num_vertices < kMinPriorityVertices || auto_delta == 0) return 0;
  return std::min(auto_delta, std::max(1u, auto_delta * 4 / b));
}

}  // namespace

std::uint32_t BatchEnactor::seed(const Csr& g,
                                 std::span<const VertexId> sources) {
  const auto b = static_cast<std::uint32_t>(sources.size());
  GRX_CHECK_MSG(b >= 1, "batch needs at least one source");
  GRX_CHECK_MSG(b <= kMaxLanes, "batch exceeds kMaxLanes");
  for (const VertexId s : sources)
    GRX_CHECK_MSG(s < g.num_vertices(), "batch source out of range");
  lanes_.init(g.num_vertices(), b);
  mark_.assign(g.num_vertices(), kUnclaimed);
  for (std::uint32_t q = 0; q < b; ++q) lanes_.cur.set(sources[q], q);
  // Union frontier: each distinct source once, ascending (deterministic).
  auto& items = in_.items();
  items.assign(sources.begin(), sources.end());
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return b;
}

std::uint64_t BatchEnactor::traverse_lanes(const Csr& g,
                                           const QueryOptions& opts,
                                           std::uint32_t* depth,
                                           std::uint32_t num_lanes) {
  const std::uint32_t wpv = lanes_.cur.words_per_vertex();
  const simt::VecBackend vb = simt::resolve_backend(opts.backend.vec);

  BatchBfsProblem p;
  p.cur = &lanes_.cur;
  p.next = &lanes_.next;
  p.visited = &visited_;
  p.mark = &mark_;
  p.num_lanes = num_lanes;
  p.wpv = wpv;
  p.serial = omp_get_max_threads() == 1;

  const AdvanceConfig acfg = batch_advance_config(opts, num_lanes);
  const FilterConfig fcfg;  // exact dedup lives in the claim functor

  // Pull skip bitmap: every vertex starts live; pull rounds prune bits as
  // vertices saturate (see batch_pull_step). assign() reuses capacity —
  // no steady-state allocation across enacts of the same graph.
  const std::size_t live_words =
      (static_cast<std::size_t>(g.num_vertices()) + 63) / 64;
  pull_live_.assign(live_words, ~0ull);
  if (const auto rem = g.num_vertices() % 64; rem != 0)
    pull_live_[live_words - 1] = (1ull << rem) - 1;

  std::uint64_t edges = 0;
  DirectionState dir;
  while (!in_.empty()) {
    // Cooperative stop point (deadline / cancel / fault hook), between
    // lane-matrix rounds — the batch analog of run_program's checkpoint.
    check_cancel(static_cast<std::uint32_t>(log_.size()));
    GRX_CHECK(log_.size() < kMaxIterations);
    bool prepared = false;
    const bool pull =
        opts.direction == Direction::kPull ||
        (opts.direction == Direction::kOptimal &&
         detail::choose_pull(dev_, g, in_.items(), opts.pull_alpha,
                             opts.pull_beta, dir, advance_ws_, prepared));
    std::uint64_t iter_edges;
    const std::uint32_t next_depth = p.iteration + 1;
    if (pull) {
      // Pull emits a duplicate-free frontier in vertex order (no claim
      // filter needed) and commits depth/visited inline.
      iter_edges = batch_pull_step(dev_, g, lanes_.cur, lanes_.next,
                                   visited_, depth, next_depth, in_.items(),
                                   filtered_.items(), advance_ws_,
                                   pull_live_.data(), vb);
    } else {
      iter_edges = push_round<BatchBfsFunctor>(dev_, g, in_, out_, filtered_,
                                               p, acfg, fcfg, advance_ws_,
                                               filter_ws_, prepared);
      lane_sweep(dev_, filtered_.items(), lanes_.next, visited_, depth,
                 num_lanes, next_depth, vb);
    }
    edges += iter_edges;
    finish_round(p, iter_edges, pull);
  }
  return edges;
}

BatchBfsResult BatchEnactor::bfs(const Csr& g,
                                 std::span<const VertexId> sources,
                                 const QueryOptions& opts) {
  BatchBfsResult res;
  bfs(g, sources, opts, res);
  return res;
}

void BatchEnactor::bfs(const Csr& g, std::span<const VertexId> sources,
                       const QueryOptions& opts, BatchBfsResult& res) {
  Timer wall;
  begin_enact(opts);
  const std::uint32_t b = seed(g, sources);
  visited_.reset(g.num_vertices(), b);

  res.num_lanes = b;
  res.backend = simt::resolve_backend(opts.backend.vec);
  res.depth.assign(static_cast<std::size_t>(g.num_vertices()) * b,
                   kInfinity);
  for (std::uint32_t q = 0; q < b; ++q) {
    visited_.set(sources[q], q);
    res.depth[static_cast<std::size_t>(sources[q]) * b + q] = 0;
  }

  const std::uint64_t edges =
      traverse_lanes(g, opts, res.depth.data(), b);
  finish_into(res.summary, edges, wall.elapsed_ms());
}

BatchSsspResult BatchEnactor::sssp(const Csr& g,
                                   std::span<const VertexId> sources,
                                   const QueryOptions& opts) {
  BatchSsspResult res;
  sssp(g, sources, opts, res);
  return res;
}

void BatchEnactor::sssp(const Csr& g, std::span<const VertexId> sources,
                        const QueryOptions& opts, BatchSsspResult& res) {
  GRX_CHECK_MSG(g.has_weights(), "batched SSSP requires edge weights");
  Timer wall;
  begin_enact(opts);
  const std::uint32_t b = seed(g, sources);
  const std::uint32_t wpv = lanes_.cur.words_per_vertex();

  std::uint32_t delta = opts.delta;
  if (opts.use_priority_queue && delta == 0)
    delta = batch_scale_delta(sssp_auto_delta(g), g.num_vertices(), b);
  if (!opts.use_priority_queue) delta = 0;
  const simt::VecBackend vb = simt::resolve_backend(opts.backend.vec);
  pq_.begin(g.num_vertices(), b, delta, vb);

  res.num_lanes = b;
  res.backend = vb;
  res.delta = delta;
  res.lane_stats.clear();
  res.dist.assign(static_cast<std::size_t>(g.num_vertices()) * b, kInfinity);
  for (std::uint32_t q = 0; q < b; ++q)
    res.dist[static_cast<std::size_t>(sources[q]) * b + q] = 0;
  if (pq_.enabled()) {
    // Enqueue-time labels (see BatchSsspProblem::labels): seeded for the
    // sources, thereafter written by the split/wake kernels.
    snap_.assign(static_cast<std::size_t>(g.num_vertices()) * b, kInfinity);
    for (std::uint32_t q = 0; q < b; ++q)
      snap_[static_cast<std::size_t>(sources[q]) * b + q] = 0;
  }

  const std::size_t threads =
      static_cast<std::size_t>(omp_get_max_threads());
  relax_pairs_.assign(threads * BatchSsspProblem::kPairStride, 0);

  BatchSsspProblem p;
  p.g = &g;
  p.cur = &lanes_.cur;
  p.next = &lanes_.next;
  p.dist = res.dist.data();
  p.labels = pq_.enabled() ? snap_.data() : res.dist.data();
  p.mark = &mark_;
  p.pairs = relax_pairs_.data();
  p.num_lanes = b;
  p.wpv = wpv;
  p.serial = omp_get_max_threads() == 1;
  p.vb = vb;

  const AdvanceConfig acfg = batch_advance_config(opts, b);
  const FilterConfig fcfg;

  // Price the per-(edge, active-lane) relaxation volume — the dist row
  // reads and atomicMins a real MS-SSSP kernel performs per set lane bit,
  // which the flat per-edge word charge does not see. This is the term
  // the near/far schedule exists to shrink.
  const auto charge_relax_pairs = [&] {
    std::uint64_t round_pairs = 0;
    for (std::size_t t = 0; t < threads; ++t) {
      round_pairs += relax_pairs_[t * BatchSsspProblem::kPairStride];
      relax_pairs_[t * BatchSsspProblem::kPairStride] = 0;
    }
    dev_.charge_pass("batch_lane_relax", round_pairs,
                     simt::CostModel::kCoalesced + simt::CostModel::kAtomic,
                     /*fused=*/true);
  };

  std::uint64_t edges = 0;
  while (!in_.empty()) {
    check_cancel(static_cast<std::uint32_t>(log_.size()));
    GRX_CHECK(log_.size() < kMaxIterations);
    if (!pq_.enabled()) {
      const std::uint64_t iter_edges = push_round<BatchRelaxFunctor>(
          dev_, g, in_, out_, filtered_, p, acfg, fcfg, advance_ws_,
          filter_ws_);
      edges += iter_edges;
      charge_relax_pairs();
      finish_round(p, iter_edges, /*used_pull=*/false);
      continue;
    }
    // Per-lane near/far schedule: relax the near frontier, then one fused
    // claim + split pass sends each improved lane bit near (stays in
    // `next`) or far (banked) against its lane's cutoff; rotate, then wake
    // any drained lane's far bits straight into the new frontier so it
    // rejoins the next round.
    out_.clear();
    const AdvanceStats a = advance_push<BatchRelaxFunctor>(
        dev_, g, in_.items(), out_.items(), p, acfg, advance_ws_);
    dev_.charge_pass("batch_lane_words", a.edges_processed * p.wpv,
                     simt::CostModel::kScattered, /*fused=*/true);
    edges += a.edges_processed;
    charge_relax_pairs();
    pq_.claim_split(dev_, out_.items(), lanes_.next, res.dist.data(),
                    snap_.data(), mark_, p.iteration, p.serial,
                    filtered_.items());
    finish_round(p, a.edges_processed, /*used_pull=*/false);
    pq_.advance_drained(dev_, lanes_.cur, res.dist.data(), snap_.data(),
                        in_.items());
    // A wake against a stale-low tracked minimum can be unproductive;
    // with the frontier empty that must not end the enactment while far
    // work is banked (the batched analog of PriorityFrontier's
    // advance_level loop). Each unproductive pass re-tallies exact
    // minimums, so this converges.
    while (in_.empty() && !pq_.far_empty())
      pq_.advance_drained(dev_, lanes_.cur, res.dist.data(), snap_.data(),
                          in_.items());
  }

  if (pq_.enabled()) res.lane_stats = pq_.take_lane_stats();
  finish_into(res.summary, edges, wall.elapsed_ms());
}

BatchReachabilityResult BatchEnactor::reachability(
    const Csr& g, std::span<const VertexId> sources,
    const QueryOptions& opts) {
  BatchReachabilityResult res;
  reachability(g, sources, opts, res);
  return res;
}

void BatchEnactor::reachability(const Csr& g,
                                std::span<const VertexId> sources,
                                const QueryOptions& opts,
                                BatchReachabilityResult& res) {
  Timer wall;
  begin_enact(opts);
  const std::uint32_t b = seed(g, sources);
  visited_.reset(g.num_vertices(), b);
  for (std::uint32_t q = 0; q < b; ++q) visited_.set(sources[q], q);

  // Same traversal as bfs(), no depth matrix: visited IS the result.
  const std::uint64_t edges = traverse_lanes(g, opts, /*depth=*/nullptr, b);

  res.num_lanes = b;
  res.backend = simt::resolve_backend(opts.backend.vec);
  res.visited.reset(g.num_vertices(), b);
  res.visited.swap(visited_);
  finish_into(res.summary, edges, wall.elapsed_ms());
}

BatchBcForwardResult BatchEnactor::bc_forward(
    const Csr& g, std::span<const VertexId> sources,
    const QueryOptions& opts) {
  BatchBcForwardResult res;
  bc_forward(g, sources, opts, res);
  return res;
}

void BatchEnactor::bc_forward(const Csr& g,
                              std::span<const VertexId> sources,
                              const QueryOptions& opts,
                              BatchBcForwardResult& res) {
  Timer wall;
  begin_enact(opts);
  const std::uint32_t b = seed(g, sources);
  const std::uint32_t wpv = lanes_.cur.words_per_vertex();
  visited_.reset(g.num_vertices(), b);
  const simt::VecBackend vb = simt::resolve_backend(opts.backend.vec);

  res.num_lanes = b;
  res.backend = vb;
  res.depth.assign(static_cast<std::size_t>(g.num_vertices()) * b,
                   kInfinity);
  res.sigma.assign(static_cast<std::size_t>(g.num_vertices()) * b, 0.0);
  for (std::uint32_t q = 0; q < b; ++q) {
    visited_.set(sources[q], q);
    res.depth[static_cast<std::size_t>(sources[q]) * b + q] = 0;
    res.sigma[static_cast<std::size_t>(sources[q]) * b + q] = 1.0;
  }

  BatchBcProblem p;
  p.cur = &lanes_.cur;
  p.next = &lanes_.next;
  p.visited = &visited_;
  p.sigma = res.sigma.data();
  p.mark = &mark_;
  p.num_lanes = b;
  p.wpv = wpv;
  p.serial = omp_get_max_threads() == 1;

  const AdvanceConfig acfg = batch_advance_config(opts, b);
  const FilterConfig fcfg;

  std::uint64_t edges = 0;
  while (!in_.empty()) {
    check_cancel(static_cast<std::uint32_t>(log_.size()));
    GRX_CHECK(log_.size() < kMaxIterations);
    const std::uint64_t iter_edges = push_round<BatchBcForwardFunctor>(
        dev_, g, in_, out_, filtered_, p, acfg, fcfg, advance_ws_,
        filter_ws_);
    edges += iter_edges;
    lane_sweep(dev_, filtered_.items(), lanes_.next, visited_,
               res.depth.data(), b, p.iteration + 1, vb);
    finish_round(p, iter_edges, /*used_pull=*/false);
  }

  finish_into(res.summary, edges, wall.elapsed_ms());
}

}  // namespace grx
