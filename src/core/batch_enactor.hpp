// BatchEnactor: the multi-source (MS-query) traversal engine.
//
// Runs B simultaneous queries — BFS distances, SSSP, the BC forward pass,
// or plain reachability — over one shared CSR. Per-query frontier
// membership is a bit-packed lane per vertex (`BatchFrontier`, 64 queries
// per word), so one neighbor expansion serves the whole batch: the active
// vertex list each iteration is the *union* of the B per-query frontiers,
// and each edge visit updates up to 64 queries with a handful of word ops.
//
// The engine reuses the single-query operator stack unchanged: the lane
// logic lives entirely in batch functors handed to the same `advance` /
// `filter_vertices` templates (and thus the same workload-mapping
// strategies and the same count -> scan -> scatter output assembler), so
// the zero-steady-state-allocation and deterministic-assembly guarantees
// of the single-query pipeline carry over. See docs/architecture.md for
// where this slots into the operator data flow and docs/operators.md for
// the lane-functor contract.
//
// Determinism: batched BFS / BC-forward / reachability results are
// byte-identical across OMP thread counts and equal, lane for lane, to B
// independent single-query runs — lane updates are commutative (OR,
// equal-value depth stores, atomicMin) and frontier membership is decided
// by monotone per-word races whose outcome is order-independent. Batched
// SSSP is exact per lane AND schedule-deterministic: relaxations read
// enqueue-time labels, so per-round improvement sets, iteration counts,
// and the per-lane PriorityQueueStats are byte-identical across thread
// counts and advance strategies. tests/test_determinism.cpp asserts all
// of it.
//
// BFS and reachability support direction-optimal traversal (opt-in via
// QueryOptions::direction, symmetric CSR required): a lane-parallel
// bottom-up (pull) step — every vertex with undiscovered lanes probes its
// incoming neighbors and stops once all pending lanes found a parent —
// takes over when the union frontier saturates, exactly as Beamer's
// switch does for one query. Limits: SSSP and the BC forward pass are
// push-only (per-lane relaxation / sigma accumulation admit no early-exit
// pull form).
//
// Batched SSSP runs a *per-lane* near/far priority schedule
// (LanePriorityFrontier, core/priority_queue.hpp): every lane defers its
// above-cutoff relaxations into a far bit bank and advances its priority
// level independently — a lane that drains its near pile re-splits the
// same iteration instead of stalling behind the batch. Disable via
// QueryOptions::use_priority_queue for plain Bellman-Ford rounds over the
// union frontier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/batch_frontier.hpp"
#include "core/enactor.hpp"
#include "core/priority_queue.hpp"
#include "graph/csr.hpp"
#include "simt/vec.hpp"

namespace grx {

/// Dense per-(vertex, lane) value matrix layout shared by the batched
/// results: element (v, q) lives at v * num_lanes + q, so one vertex's B
/// values are contiguous (the layout the lane-sweep kernel writes).
struct BatchBfsResult {
  std::uint32_t num_lanes = 0;
  /// The lane-kernel backend the enact actually ran (kAuto resolved) —
  /// observability only, results are backend-independent.
  simt::VecBackend backend = simt::VecBackend::kScalar;
  std::vector<std::uint32_t> depth;  ///< |V| x B, kInfinity where unreached
  EnactSummary summary;

  std::uint32_t depth_at(VertexId v, std::uint32_t lane) const {
    return depth[static_cast<std::size_t>(v) * num_lanes + lane];
  }

  /// Demux hook: copies lane `lane`'s |V| depths into `out` (capacity
  /// reused). The per-lane values equal a single-query BFS from that
  /// lane's source, so a coalescing server (grx::Server) can hand each
  /// fused query back its own result byte-identical to a solo enact.
  void extract_lane(std::uint32_t lane, std::vector<std::uint32_t>& out) const {
    GRX_CHECK(lane < num_lanes);
    const std::size_t n = depth.size() / num_lanes;
    out.resize(n);
    for (std::size_t v = 0; v < n; ++v)
      out[v] = depth[v * num_lanes + lane];
  }
};

struct BatchSsspResult {
  std::uint32_t num_lanes = 0;
  /// Resolved lane-kernel backend this enact ran (observability only).
  simt::VecBackend backend = simt::VecBackend::kScalar;
  std::vector<std::uint32_t> dist;  ///< |V| x B, kInfinity where unreachable
  /// Near/far schedule counters, one entry per lane (empty when the
  /// priority schedule was disabled): level advances, near/far pile
  /// entries. Deterministic across thread counts and advance strategies.
  std::vector<PriorityQueueStats> lane_stats;
  /// The delta the schedule ran with (0 == plain Bellman-Ford rounds).
  std::uint32_t delta = 0;
  EnactSummary summary;

  std::uint32_t dist_at(VertexId v, std::uint32_t lane) const {
    return dist[static_cast<std::size_t>(v) * num_lanes + lane];
  }

  /// Demux hook: lane `lane`'s |V| distances into `out` (capacity reused);
  /// equal to a single-query SSSP from that lane's source.
  void extract_lane(std::uint32_t lane, std::vector<std::uint32_t>& out) const {
    GRX_CHECK(lane < num_lanes);
    const std::size_t n = dist.size() / num_lanes;
    out.resize(n);
    for (std::size_t v = 0; v < n; ++v)
      out[v] = dist[v * num_lanes + lane];
  }
};

/// Reachability keeps only the visited lane masks — 1 bit per (vertex,
/// query) pair, the cheapest batched result shape.
struct BatchReachabilityResult {
  std::uint32_t num_lanes = 0;
  /// Resolved lane-kernel backend this enact ran (observability only).
  simt::VecBackend backend = simt::VecBackend::kScalar;
  LaneMatrix visited;  ///< bit (v, q) set iff v reachable from sources[q]
  EnactSummary summary;

  bool reachable(VertexId v, std::uint32_t lane) const {
    return visited.test(v, lane);
  }

  /// Demux hook: lane `lane`'s reachability flags (1 = reachable) into
  /// `out`, one byte per vertex — the unpacked form a per-query caller
  /// consumes. Equals `bfs depth != kInfinity` from that lane's source.
  void extract_lane(std::uint32_t lane, std::vector<std::uint8_t>& out) const {
    GRX_CHECK(lane < num_lanes);
    const VertexId n = visited.num_vertices();
    out.resize(n);
    for (VertexId v = 0; v < n; ++v)
      out[v] = visited.test(v, lane) ? 1 : 0;
  }
};

/// Forward (Brandes sigma-accumulation) pass of betweenness centrality for
/// B sources at once; feeds the per-source backward sweeps of
/// bc_accumulate_batched (primitives/bc.hpp).
struct BatchBcForwardResult {
  std::uint32_t num_lanes = 0;
  /// Resolved lane-kernel backend this enact ran (observability only).
  simt::VecBackend backend = simt::VecBackend::kScalar;
  std::vector<std::uint32_t> depth;  ///< |V| x B BFS levels
  std::vector<double> sigma;         ///< |V| x B shortest-path counts
  EnactSummary summary;

  std::uint32_t depth_at(VertexId v, std::uint32_t lane) const {
    return depth[static_cast<std::size_t>(v) * num_lanes + lane];
  }
  double sigma_at(VertexId v, std::uint32_t lane) const {
    return sigma[static_cast<std::size_t>(v) * num_lanes + lane];
  }

  /// Demux hook: lane `lane`'s BFS levels and shortest-path counts into
  /// caller buffers (capacity reused). Sigma counts are integer-valued
  /// sums, so they are byte-identical to a solo Brandes forward pass.
  void extract_lane(std::uint32_t lane, std::vector<std::uint32_t>& depth_out,
                    std::vector<double>& sigma_out) const {
    GRX_CHECK(lane < num_lanes);
    const std::size_t n = depth.size() / num_lanes;
    depth_out.resize(n);
    sigma_out.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      depth_out[v] = depth[v * num_lanes + lane];
      sigma_out[v] = sigma[v * num_lanes + lane];
    }
  }
};

/// The batched enactor. One instance owns the lane masks and the pooled
/// operator workspaces (via EnactorBase); repeated enactments on the same
/// graph shape reuse every buffer — a serving loop (examples/
/// query_server.cpp) allocates only while the first batch warms the pools.
/// Every kind reads strategy, lb_node_edge_threshold and backend; BFS and
/// reachability also direction and pull_alpha/beta; SSSP
/// use_priority_queue and delta. `idempotent` is implied by the
/// commutative lane updates (no per-edge atomic claim is charged — exact
/// vertex-level dedup happens in the filter's claim, as in single-query
/// SSSP).
class BatchEnactor : public EnactorBase {
 public:
  explicit BatchEnactor(simt::Device& dev) : EnactorBase(dev) {}

  /// Hard cap on B: 64 words of lane masks per vertex. Batches this large
  /// are better split — per-vertex state grows linearly with B while the
  /// edge-scan amortization saturates once frontiers overlap.
  static constexpr std::uint32_t kMaxLanes = 64 * kLanesPerWord;

  /// B-source BFS: depth_at(v, q) is the hop distance from sources[q].
  /// sources.size() == B; duplicate sources are allowed (lanes stay
  /// independent).
  BatchBfsResult bfs(const Csr& g, std::span<const VertexId> sources,
                     const QueryOptions& opts = {});

  /// B-source SSSP (weighted), by default under the per-lane near/far
  /// priority schedule; plain Bellman-Ford rounds over the union frontier
  /// when disabled. The graph must carry edge weights.
  BatchSsspResult sssp(const Csr& g, std::span<const VertexId> sources,
                       const QueryOptions& opts = {});

  /// B-source reachability: visited lane masks only, no distance writes.
  BatchReachabilityResult reachability(const Csr& g,
                                       std::span<const VertexId> sources,
                                       const QueryOptions& opts = {});

  /// B-source Brandes forward pass: per-lane depth + sigma.
  BatchBcForwardResult bc_forward(const Csr& g,
                                  std::span<const VertexId> sources,
                                  const QueryOptions& opts = {});

  // In-place variants: result matrices are assigned in place, so a caller
  // that reuses the result object across batches (the Engine's serving
  // path) pays no per-enact result allocations — the batch analog of the
  // primitive enactors' pooled-result contract. The by-value methods above
  // are thin wrappers over these.
  void bfs(const Csr& g, std::span<const VertexId> sources,
           const QueryOptions& opts, BatchBfsResult& res);
  void sssp(const Csr& g, std::span<const VertexId> sources,
            const QueryOptions& opts, BatchSsspResult& res);
  void reachability(const Csr& g, std::span<const VertexId> sources,
                    const QueryOptions& opts, BatchReachabilityResult& res);
  void bc_forward(const Csr& g, std::span<const VertexId> sources,
                  const QueryOptions& opts, BatchBcForwardResult& res);

 private:
  /// Seeds lane state: cur bit + initial value per source lane, and the
  /// initial union frontier (unique sources, ascending). Returns B.
  std::uint32_t seed(const Csr& g, std::span<const VertexId> sources);

  /// Shared BFS-shaped BSP loop (direction-optimal discovery over lane
  /// masks) behind bfs() and reachability(): when `depth` is non-null,
  /// newly discovered (vertex, lane) cells get their level written.
  /// Returns total edges visited / probes.
  std::uint64_t traverse_lanes(const Csr& g, const QueryOptions& opts,
                               std::uint32_t* depth, std::uint32_t num_lanes);

  /// Shared per-iteration tail of every batched BSP loop: log the round,
  /// rotate the lane masks (incremental clear of the retiring frontier's
  /// rows), promote the fresh frontier, bump the claim tag.
  template <typename P>
  void finish_round(P& p, std::uint64_t iter_edges, bool used_pull) {
    record({0, in_.size(), filtered_.size(), iter_edges, used_pull});
    lanes_.rotate(in_.items());
    in_.swap(filtered_);
    p.iteration++;
  }

  BatchFrontier lanes_;               ///< cur/next lane masks
  LaneMatrix visited_;                ///< BFS/reach/BC discovery masks
  std::vector<std::uint32_t> mark_;   ///< filter claim tags (exact dedup)
  LanePriorityFrontier pq_;           ///< per-lane near/far schedule (SSSP)
  std::vector<std::uint32_t> snap_;   ///< enqueue-time labels (|V| x B)
  std::vector<std::uint64_t> relax_pairs_;  ///< per-thread relax tallies
  std::vector<std::uint64_t> pull_live_;  ///< pull skip bitmap (|V| bits)
};

}  // namespace grx
