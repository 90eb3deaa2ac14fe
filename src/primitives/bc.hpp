// Betweenness centrality (Section 5.3), Brandes's two-phase formulation:
// a forward BFS accumulating shortest-path counts (sigma), then a backward
// sweep over the stored per-level frontiers accumulating dependencies
// (delta) — both expressed as Gunrock advance steps with fused compute.
#pragma once

#include <span>

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "graph/csr.hpp"
#include "util/bitset.hpp"

namespace grx {

struct BatchBcForwardResult;  // core/batch_enactor.hpp
class BatchEnactor;

struct BcOptions {
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
};

struct BcResult {
  std::vector<double> bc_values;   ///< per-vertex centrality (one source)
  std::vector<double> sigma;       ///< shortest-path counts
  std::vector<std::uint32_t> depth;
  EnactSummary summary;
};

/// Per-graph persistent BC state (the Problem): depth/sigma/delta labels
/// and the discovery bitset, pooled across enactments.
struct BcProblem {
  std::vector<std::uint32_t> depth;
  std::vector<double> sigma;
  std::vector<double> delta;
  AtomicBitset visited;
  std::uint32_t iteration = 0;
};

/// Persistent BC enactor: pooled forward Problem, per-level frontier
/// store, and the backward-sweep scratch shared with the source-batched
/// path. Steady-state repeated queries allocate nothing with a reused
/// result.
class BcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, VertexId source, const BcOptions& opts,
             BcResult& out);

  /// Backward half of source-batched BC: reconstructs lane `lane`'s
  /// per-level frontiers from the batched forward result (vertices bucketed
  /// by depth) and runs the standard backward sweep, folding dependencies
  /// into `acc`. Results match the single-source backward pass because the
  /// batched forward produces the identical depth/sigma per lane.
  void backward_accumulate(const Csr& g, const BatchBcForwardResult& fwd,
                           std::uint32_t lane, VertexId source,
                           const BcOptions& opts, std::vector<double>& acc);

 private:
  BcProblem problem_;
  /// Forward levels, one frontier snapshot per BFS depth; slots (and their
  /// capacity) are reused across enactments — num_levels_ tracks use.
  std::vector<std::vector<std::uint32_t>> levels_;
  std::uint32_t num_levels_ = 0;
  // Batched-backward scratch: problem slices, level buckets, the level
  // frontier — pooled so across the B lanes of a batch only the first
  // call allocates.
  BcProblem bwd_problem_;
  std::vector<std::vector<std::uint32_t>> bwd_levels_;
  Frontier bwd_level_{FrontierKind::kVertex};
};

// The composite BC workloads behind Engine::bc_batched and
// Engine::bc_sampled, parameterized on caller-owned enactors and scratch
// so the pooled state stays with the Engine. `out` is assigned in place.

/// Source-batched accumulation: one lane-packed forward pass
/// (BatchEnactor::bc_forward) into `fwd` computes depth + sigma for all
/// `sources` at once, then per-source backward sweeps fold dependencies
/// into `out`. Same result as summing single-source BC over the sources
/// (up to floating-point association in the backward deltas).
void bc_accumulate_batched(BatchEnactor& batch, BcEnactor& back,
                           const Csr& g, std::span<const VertexId> sources,
                           const BcOptions& opts, BatchBcForwardResult& fwd,
                           std::vector<double>& out);

/// Sampled accumulation over `num_sources` deterministic sources drawn
/// from `seed`; `scratch` holds the per-source result between folds.
void bc_accumulate_sampled(BcEnactor& bc, const Csr& g,
                           std::uint32_t num_sources, std::uint64_t seed,
                           const BcOptions& opts, BcResult& scratch,
                           std::vector<double>& out);

}  // namespace grx
