// Single-source shortest path (Sections 4.1 and 5.2).
//
// Per round: stamp every frontier vertex's enqueue-time label, then relax
// the frontier's edges in one of two directions (Beamer's switch on
// pull_alpha / pull_beta, Section 4.5):
//
//  * push — advance relaxes the frontier's out-edges with an atomicMin
//           and a dedup filter keeps each improved vertex once.
//  * pull — every vertex folds min(label[u] + w(u -> v)) over its weighted
//           in-edges from frontier members u and, when that beats its
//           distance, writes dist and pred with plain stores: one writer
//           per vertex, no atomics, output already unique and in vertex
//           order.
//
// An optional two-level near/far priority frontier (delta-stepping,
// Davidson et al. — see core/priority_queue.hpp) defers long-distance
// work. Relaxing from labels makes each round's improvement set a pure
// function of round-start state, so dist, the queue stats and the round
// count are the same whichever direction a round takes.
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "core/priority_queue.hpp"
#include "graph/csr.hpp"

namespace grx {

struct SsspResult {
  std::vector<std::uint32_t> dist;  ///< kInfinity where unreachable
  std::vector<VertexId> pred;
  /// Near/far schedule counters; all-zero when the queue was disabled
  /// (use_priority_queue == false, or auto-delta declined to split).
  PriorityQueueStats pq_stats;
  EnactSummary summary;
};

/// Per-graph persistent SSSP state (the Problem): distance labels, the
/// deterministic enqueue-time label snapshot, predecessors, and the
/// filter's claim marks — pooled across enactments.
struct SsspProblem {
  const Csr* g = nullptr;
  std::vector<std::uint32_t> dist;
  /// Enqueue-time labels: the distance each frontier vertex carried when
  /// it was enqueued, stamped once per iteration. Relaxing from the label
  /// instead of the live distance makes every round's improvement set a
  /// pure function of round-start state — frontier schedules and
  /// PriorityQueueStats are byte-identical across host thread counts
  /// (Davidson's worklist-with-labels discipline). A vertex re-improved
  /// mid-round is re-enqueued and relaxes again with the fresher label.
  std::vector<std::uint32_t> labels;
  /// Predecessors. Push rounds store any improving parent (the last writer
  /// wins); pull rounds store the argmin in-neighbor, the first in in-edge
  /// order among equal candidates.
  std::vector<VertexId> pred;
  /// Iteration tag per vertex: filter keeps the first occurrence of a
  /// vertex per iteration (the paper's output_queue_id dedup).
  std::vector<std::uint32_t> mark;
  std::uint32_t iteration = 0;
};

/// Persistent SSSP enactor: pooled Problem plus the near/far priority
/// frontier. Steady-state repeated queries (via grx::Engine or a held
/// enactor) allocate nothing when the result object is reused.
class SsspEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// SSSP from `source`. `gT` holds g's weighted in-edges (g's transpose,
  /// or g itself when it is symmetric with equal weights both ways), read
  /// by the pull rounds; an unweighted `gT` for a weighted `g` is rejected
  /// (CheckError), since pulling over it would relax hop counts.
  void enact(const Csr& g, const Csr& gT, VertexId source,
             const QueryOptions& opts, SsspResult& out);

 private:
  SsspProblem problem_;
  PriorityFrontier pq_;  ///< near/far schedule state, pooled
};

/// The delta sizing shared by single-query and batched SSSP: mean edge
/// weight (the paper's weights are uniform in [1, 64], mean 32.5) scaled by
/// average degree — the standard delta-stepping bucket width. Returns 0 on
/// low-degree, high-diameter graphs (avg degree < 8), where extra priority
/// levels only add launches and the pile is best left unsplit (the queue is
/// an *optional* optimization in the paper, Section 5.2).
std::uint32_t sssp_auto_delta(const Csr& g);

}  // namespace grx
