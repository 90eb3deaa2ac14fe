// Betweenness centrality (Section 5.3), Brandes's two-phase formulation:
//
//  * forward  — a direction-optimizing BFS accumulating shortest-path
//               counts (sigma). Push rounds advance from the frontier with
//               exact integer sigma adds; pull rounds (Beamer's switch on
//               pull_alpha / pull_beta, Section 4.5) run neighbor_reduce
//               over the in-edges of a shrinking list of unvisited
//               vertices, each summing sigma over its parents at the
//               current depth — one writer per vertex, no atomics.
//  * backward — per level, deepest first, a neighbor_reduce over the
//               out-edges of the level's vertices folds the children's
//               dependencies (Section 7's gather-reduce in place of atomic
//               adds), followed by a fused compute committing the level.
//
// Level lists are bucketed from `depth` in vertex order, so every fold
// order depends only on the graph and the source. Integer path counts add
// exactly in doubles below 2^53, so while every sigma stays below that,
// scores, sigma and depth are byte-identical across host thread counts and
// push/pull schedules; past it (deep meshes) the push adds round in
// schedule order.
#pragma once

#include <span>

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "core/priority_queue.hpp"
#include "graph/csr.hpp"

namespace grx {

struct BatchBcForwardResult;  // core/batch_enactor.hpp
class BatchEnactor;

struct BcResult {
  std::vector<double> bc_values;   ///< per-vertex centrality (one source)
  std::vector<double> sigma;       ///< shortest-path counts
  std::vector<std::uint32_t> depth;
  EnactSummary summary;
};

/// Per-graph persistent BC state (the Problem): depth/sigma labels and the
/// backward sweep's per-vertex child term, pooled across enactments.
struct BcProblem {
  std::vector<std::uint32_t> depth;
  std::vector<double> sigma;
  /// (1 + delta[w]) / sigma[w] once w's level is folded, 0 before: the
  /// term a parent gathers from child w in the backward sweep.
  std::vector<double> coef;
  std::uint32_t iteration = 0;
};

/// Persistent BC enactor: pooled Problem, pull candidate list, level
/// buckets and gather output, shared by the single-source and the
/// source-batched backward paths. Steady-state repeated queries allocate
/// nothing with a reused result.
class BcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Single-source BC from `source`; `gT` is g's transpose (g itself when
  /// symmetric), read by the forward pass's pull rounds.
  void enact(const Csr& g, const Csr& gT, VertexId source,
             const QueryOptions& opts, BcResult& out);

  /// Backward half of source-batched BC: buckets lane `lane`'s levels from
  /// the batched forward result and runs the same backward sweep as
  /// enact(), folding dependencies into `acc`. Results match the
  /// single-source pass because the batched forward produces the identical
  /// depth/sigma per lane.
  void backward_accumulate(const Csr& g, const BatchBcForwardResult& fwd,
                           std::uint32_t lane, const QueryOptions& opts,
                           std::vector<double>& acc);

 private:
  /// Buckets problem_.depth into level lists (vertex order within a
  /// level) for levels [0, num_levels).
  void bucket_levels(std::uint32_t num_levels);
  /// Backward sweep over the bucketed levels, adding each vertex's
  /// dependency into `scores`. Returns the edges gathered.
  std::uint64_t backward(const Csr& g, const QueryOptions& opts,
                         std::uint32_t first_round,
                         std::vector<double>& scores);

  BcProblem problem_;
  /// Pull rounds' candidates: the unvisited vertices with in-edges, in
  /// vertex order; collected when a pull begins, shrunk by every pull
  /// round.
  Frontier candidates_{FrontierKind::kVertex};
  Frontier candidates_next_{FrontierKind::kVertex};
  /// neighbor_reduce output, aligned with the gathered frontier.
  std::vector<double> gathered_;
  /// Staging for the pull rounds' in-order candidate splits.
  SplitWorkspace split_ws_;
  /// Level buckets: level L holds level_order_[level_start_[L] ..
  /// level_start_[L + 1]), unreached vertices follow the last level;
  /// level_counts_ is the per-(chunk, bucket) count table the bucketing
  /// scans.
  std::vector<std::uint32_t> level_order_;
  std::vector<std::uint64_t> level_start_;
  std::vector<std::uint64_t> level_counts_;
  std::uint32_t num_levels_ = 0;
  Frontier level_{FrontierKind::kVertex};
};

// The composite BC workloads behind Engine::bc_batched and
// Engine::bc_sampled, parameterized on caller-owned enactors and scratch
// so the pooled state stays with the Engine. `out` is assigned in place.

/// Source-batched accumulation: one lane-packed forward pass
/// (BatchEnactor::bc_forward) into `fwd` computes
/// depth + sigma for all `sources` at once, then per-source backward
/// sweeps fold dependencies into `out`. Byte-identical to summing
/// single-source BC over the sources in order while every path count
/// stays below 2^53.
void bc_accumulate_batched(BatchEnactor& batch, BcEnactor& back,
                           const Csr& g, std::span<const VertexId> sources,
                           const QueryOptions& opts, BatchBcForwardResult& fwd,
                           std::vector<double>& out);

/// Sampled accumulation over `num_sources` deterministic sources drawn
/// from `seed`; `scratch` holds the per-source result between folds.
void bc_accumulate_sampled(BcEnactor& bc, const Csr& g, const Csr& gT,
                           std::uint32_t num_sources, std::uint64_t seed,
                           const QueryOptions& opts, BcResult& scratch,
                           std::vector<double>& out);

}  // namespace grx
