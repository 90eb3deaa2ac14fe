#include "primitives/bc.hpp"

#include "core/batch_enactor.hpp"
#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Forward phase: BFS discovery + sigma accumulation fused into one
/// advance (the kernel-fusion story of Section 4.3: the "compute" runs
/// inside the traversal kernel).
struct ForwardFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId, BcProblem& p) {
    const bool claimed = p.visited.test_and_set(dst);
    if (claimed) simt::atomic_store(p.depth[dst], p.iteration + 1);
    // Every edge into the next level contributes its sigma, discovery edge
    // or not (Brandes: sigma(dst) = sum over parents of sigma(parent)).
    // A dst showing kInfinity here was claimed concurrently this iteration
    // (its depth store may not be visible yet), so it also counts.
    const std::uint32_t dd = simt::atomic_load(p.depth[dst]);
    if (dd == p.iteration + 1 || dd == kInfinity)
      simt::atomic_add(p.sigma[dst], simt::atomic_load(p.sigma[src]));
    return claimed;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BcProblem&) {}
  static bool cond_vertex(VertexId, BcProblem&) { return true; }
  static void apply_vertex(VertexId, BcProblem&) {}
};

/// Backward phase: for v at level L and neighbor u at level L+1,
/// delta(v) += sigma(v)/sigma(u) * (1 + delta(u)).
struct BackwardFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId, BcProblem& p) {
    if (p.depth[dst] != p.iteration + 1) return false;
    const double su = p.sigma[dst];
    if (su <= 0.0) return false;
    simt::atomic_add(p.delta[src],
                     p.sigma[src] / su * (1.0 + p.delta[dst]));
    return false;  // backward pass emits no new frontier
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BcProblem&) {}
};

/// The forward sweep as an operator program; each step snapshots its input
/// frontier into the per-level store for the backward pass.
struct BcForwardProgram {
  BcProblem& p;
  const BcOptions& opts;
  VertexId source;
  std::vector<std::vector<std::uint32_t>>& levels;
  std::uint32_t& num_levels;
  AdvanceConfig acfg;
  FilterConfig fcfg;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    p.depth.assign(g.num_vertices(), kInfinity);
    p.sigma.assign(g.num_vertices(), 0.0);
    p.delta.assign(g.num_vertices(), 0.0);
    p.visited.assign_zero(g.num_vertices());
    p.iteration = 0;
    p.depth[source] = 0;
    p.sigma[source] = 1.0;
    p.visited.test_and_set(source);

    acfg.strategy = opts.strategy;
    acfg.idempotent = false;
    num_levels = 0;

    c.frontier().assign_single(source);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    if (levels.size() <= num_levels) levels.emplace_back();
    levels[num_levels].assign(c.frontier().items().begin(),
                              c.frontier().items().end());
    ++num_levels;
    const AdvanceStats a = c.advance<ForwardFunctor>(p, acfg);
    c.filter<ForwardFunctor>(p, fcfg);
    const IterationStats s{0, c.frontier().size(), c.staged().size(),
                           a.edges_processed, false};
    c.promote();
    p.iteration++;
    return s;
  }
};

}  // namespace

void BcEnactor::enact(const Csr& g, VertexId source, const BcOptions& opts,
                      BcResult& out) {
  GRX_CHECK_MSG(source < g.num_vertices(), "BC source out of range");
  Timer wall;
  begin_enact();

  BcForwardProgram prog{problem_, opts, source, levels_, num_levels_,
                        {},       {}};
  std::uint64_t edges = run_program(g, prog);

  // Backward sweep over stored levels, deepest first.
  BcProblem& p = problem_;
  out.bc_values.assign(g.num_vertices(), 0.0);
  AdvanceConfig bcfg;
  bcfg.strategy = opts.strategy;
  bcfg.idempotent = false;
  bcfg.collect_outputs = false;
  const auto fwd_rounds = static_cast<std::uint32_t>(log_.size());
  for (std::uint32_t li = num_levels_; li-- > 0;) {
    // The backward sweep honors the same cooperative stop contract as the
    // forward program; rounds keep counting up past the forward phase.
    check_cancel(fwd_rounds + (num_levels_ - 1 - li));
    p.iteration = li;
    bwd_level_.items().assign(levels_[li].begin(), levels_[li].end());
    const AdvanceStats a = advance<BackwardFunctor>(dev_, g, bwd_level_,
                                                    out_, p, bcfg,
                                                    advance_ws_);
    edges += a.edges_processed;
    // Fold this level's dependencies into the BC scores (fused compute).
    compute(dev_, bwd_level_, p, [&](std::uint32_t v, BcProblem& prob) {
      if (v != source) out.bc_values[v] += prob.delta[v];
    });
  }

  out.sigma = p.sigma;
  out.depth = p.depth;
  finish_into(out.summary, edges, wall.elapsed_ms());
}

void BcEnactor::backward_accumulate(const Csr& g,
                                    const BatchBcForwardResult& fwd,
                                    std::uint32_t lane, VertexId source,
                                    const BcOptions& opts,
                                    std::vector<double>& acc) {
  begin_enact();
  const std::uint32_t b = fwd.num_lanes;
  // All scratch (problem slices, level buckets, the level frontier) is
  // pooled in the enactor: across the B lanes of a batch only the first
  // call allocates.
  BcProblem& p = bwd_problem_;
  p.depth.resize(g.num_vertices());
  p.sigma.resize(g.num_vertices());
  p.delta.assign(g.num_vertices(), 0.0);
  std::uint32_t max_level = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t i = static_cast<std::size_t>(v) * b + lane;
    p.depth[v] = fwd.depth[i];
    p.sigma[v] = fwd.sigma[i];
    if (p.depth[v] != kInfinity) max_level = std::max(max_level, p.depth[v]);
  }
  if (bwd_levels_.size() < max_level + 1) bwd_levels_.resize(max_level + 1);
  for (std::uint32_t li = 0; li <= max_level; ++li) bwd_levels_[li].clear();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (p.depth[v] != kInfinity) bwd_levels_[p.depth[v]].push_back(v);

  AdvanceConfig bcfg;
  bcfg.strategy = opts.strategy;
  bcfg.idempotent = false;
  bcfg.collect_outputs = false;
  for (std::uint32_t li = max_level + 1; li-- > 0;) {
    check_cancel(max_level - li);
    p.iteration = li;
    bwd_level_.items().assign(bwd_levels_[li].begin(),
                              bwd_levels_[li].end());
    advance<BackwardFunctor>(dev_, g, bwd_level_, out_, p, bcfg,
                             advance_ws_);
    compute(dev_, bwd_level_, p, [&](std::uint32_t v, BcProblem& prob) {
      if (v != source) acc[v] += prob.delta[v];
    });
  }
}

void bc_accumulate_batched(BatchEnactor& batch, BcEnactor& back,
                           const Csr& g, std::span<const VertexId> sources,
                           const BcOptions& opts, BatchBcForwardResult& fwd,
                           std::vector<double>& out) {
  out.assign(g.num_vertices(), 0.0);
  if (sources.empty()) return;
  BatchOptions bopts;
  bopts.strategy = opts.strategy;
  batch.bc_forward(g, sources, bopts, fwd);
  for (std::uint32_t q = 0; q < fwd.num_lanes; ++q)
    back.backward_accumulate(g, fwd, q, sources[q], opts, out);
}

void bc_accumulate_sampled(BcEnactor& bc, const Csr& g,
                           std::uint32_t num_sources, std::uint64_t seed,
                           const BcOptions& opts, BcResult& scratch,
                           std::vector<double>& out) {
  out.assign(g.num_vertices(), 0.0);
  Rng rng(seed);
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    const auto src = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    bc.enact(g, src, opts, scratch);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      out[v] += scratch.bc_values[v];
  }
}

}  // namespace grx
