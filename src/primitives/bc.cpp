#include "primitives/bc.hpp"

#include <algorithm>
#include <ranges>

#include "core/batch_enactor.hpp"
#include "core/compute.hpp"
#include "core/neighbor_reduce.hpp"
#include "core/program.hpp"
#include "simt/primitives.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

/// Push round of the forward pass: discovery + sigma accumulation fused
/// into one advance (the kernel fusion of Section 4.3). The depth CAS
/// claims each vertex exactly once; every edge into the next level adds
/// its parent's sigma (Brandes: sigma(dst) = sum over parents of
/// sigma(parent)). Path counts are integers, so the adds commute exactly.
struct ForwardFunctor {
  static bool cond_edge(VertexId src, VertexId dst, EdgeId, BcProblem& p) {
    const std::uint32_t next = p.iteration + 1;
    std::uint32_t d = simt::atomic_load(p.depth[dst]);
    bool claimed = false;
    if (d == kInfinity) {
      d = simt::atomic_cas(p.depth[dst], kInfinity, next);
      claimed = d == kInfinity;
      if (claimed) d = next;
    }
    if (d == next) simt::atomic_add(p.sigma[dst], p.sigma[src]);
    return claimed;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, BcProblem&) {}
};

constexpr auto plus = [](double a, double b) { return a + b; };

/// The forward sweep as an operator program. Each round takes Beamer's
/// direction decision (detail::choose_pull), as the kOptimal advance does.
/// A pull round cannot stop at a vertex's first parent (sigma needs them
/// all), so it reads every in-edge of its candidates; it still wins well
/// before it reads fewer edges than the push, whose edges each pay a claim
/// and a contended CAS-add.
struct BcForwardProgram {
  BcProblem& p;
  const Csr& gT;
  const QueryOptions& opts;
  VertexId source;
  Frontier& candidates;
  Frontier& candidates_next;
  std::vector<double>& gathered;
  SplitWorkspace& split_ws;
  AdvanceConfig acfg;
  DirectionState dir;

  void init(OpContext& c) {
    const auto n = c.graph().num_vertices();
    p.depth.assign(n, kInfinity);
    p.sigma.assign(n, 0.0);
    p.iteration = 0;
    p.depth[source] = 0;
    p.sigma[source] = 1.0;
    acfg.strategy = opts.strategy;
    acfg.idempotent = false;
    c.frontier().assign_single(source);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    AdvanceWorkspace& ws = c.advance_workspace();
    const std::size_t size = c.frontier().size();
    const bool was_pulling = dir.pulling;
    bool prepared = false;
    const bool pulling =
        detail::choose_pull(c.dev(), g, c.frontier().items(),
                            opts.pull_alpha, opts.pull_beta, dir, ws,
                            prepared);
    if (pulling && !was_pulling) collect_candidates(c);
    const std::uint64_t edges = pulling ? pull(c) : push(c, prepared);
    p.iteration++;
    return {0, size, c.frontier().size(), edges, pulling};
  }

  /// Lists the unvisited vertices with in-edges, in vertex order: nothing
  /// else can ever join a level.
  void collect_candidates(OpContext& c) {
    split_near_far(
        c.dev(), std::views::iota(0u, c.graph().num_vertices()),
        candidates.items(), nullptr,
        [&](std::size_t, std::uint32_t v) {
          return p.depth[v] == kInfinity && gT.degree(v) > 0;
        },
        split_ws, nullptr, "bc_pull_candidates");
  }

  std::uint64_t push(OpContext& c, bool prepared) {
    const AdvanceStats a = advance_push<ForwardFunctor>(
        c.dev(), c.graph(), c.frontier().items(), c.advance_out().items(), p,
        acfg, c.advance_workspace(), prepared);
    // Each vertex is claimed once, so the output is the next frontier.
    c.frontier().swap(c.advance_out());
    return a.edges_processed;
  }

  /// Every candidate sums sigma over its in-edges; those with a parent in
  /// the current level join the next one. One writer per vertex. The
  /// candidates were collected when the pull began, and each pull round
  /// keeps them to exactly the unvisited ones.
  std::uint64_t pull(OpContext& c) {
    simt::Device& dev = c.dev();
    if (candidates.empty()) {
      c.frontier().clear();
      return 0;
    }
    // gathered[i] = sum of sigma[u] over the in-edges (u -> v_i). Only
    // parents in the current level contribute: an in-neighbor at a
    // shallower level would have put v_i in the current level, and sigma
    // is 0 on unvisited vertices.
    const std::uint32_t level = p.iteration;
    const std::uint64_t edges = neighbor_reduce<double>(
        dev, gT, candidates, gathered, p, 0.0,
        [](VertexId, VertexId u, EdgeId, BcProblem& q) { return q.sigma[u]; },
        plus, acfg, c.advance_workspace());
    candidates_next.clear();
    split_near_far(
        dev, candidates.items(), c.staged().items(),
        &candidates_next.items(),
        [&](std::size_t i, std::uint32_t v) {
          // Branch-free commit: a candidate without a parent here keeps
          // depth kInfinity and sigma 0.
          const bool found = gathered[i] != 0.0;
          p.depth[v] = found ? level + 1 : kInfinity;
          p.sigma[v] = gathered[i];
          return found;
        },
        split_ws, nullptr, "bc_pull_commit");
    // The commit's depth + sigma writes, one coalesced store per item.
    dev.charge_pass("bc_pull_commit", candidates.size(),
                    simt::CostModel::kCoalesced, /*fused=*/true);
    candidates.swap(candidates_next);
    c.promote();
    return edges;
  }
};

}  // namespace

void BcEnactor::bucket_levels(std::uint32_t num_levels) {
  const std::vector<std::uint32_t>& depth = problem_.depth;
  const std::size_t n = depth.size();
  num_levels_ = num_levels;
  // Count per (chunk, bucket), scan bucket-major, scatter per chunk.
  // Unreached vertices fill one extra bucket after the levels, which keeps
  // both passes branch-free. Chunks are fixed-size vertex ranges, never
  // per thread, so the order is the same at every thread count; the table
  // holds at most n cells, so a deep graph buckets in one chunk.
  const std::uint32_t buckets = num_levels + 1;
  const auto bucket = [&](std::size_t v) {
    return std::min(depth[v], num_levels);
  };
  constexpr std::size_t kChunk = 1024;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min((n + kChunk - 1) / kChunk, n / buckets));
  const std::size_t per = (n + chunks - 1) / chunks;
  level_counts_.assign(chunks * buckets, 0);
  simt::Device::parallel_chunks(chunks, [&](std::size_t c) {
    std::uint64_t* count = level_counts_.data() + c * buckets;
    for (std::size_t v = c * per; v < std::min(n, (c + 1) * per); ++v)
      ++count[bucket(v)];
  });
  level_start_.resize(static_cast<std::size_t>(buckets) + 1);
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    level_start_[b] = total;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint64_t& cell = level_counts_[c * buckets + b];
      const std::uint64_t k = cell;
      cell = total;
      total += k;
    }
  }
  level_start_[buckets] = total;
  level_order_.resize(n);
  simt::Device::parallel_chunks(chunks, [&](std::size_t c) {
    std::uint64_t* pos = level_counts_.data() + c * buckets;
    for (std::size_t v = c * per; v < std::min(n, (c + 1) * per); ++v)
      level_order_[pos[bucket(v)]++] = static_cast<std::uint32_t>(v);
  });
  dev_.charge_pass("bc_levels", n, 2 * simt::CostModel::kCoalesced);
}

std::uint64_t BcEnactor::backward(const Csr& g, const QueryOptions& opts,
                                  std::uint32_t first_round,
                                  std::vector<double>& scores) {
  BcProblem& p = problem_;
  p.coef.assign(g.num_vertices(), 0.0);
  AdvanceConfig cfg;
  cfg.strategy = opts.strategy;
  std::uint64_t edges = 0;
  // Deepest level first. Level 0 holds only the source, whose dependency
  // is not scored.
  for (std::uint32_t li = num_levels_; li-- > 1;) {
    // The sweep honors the forward program's cooperative stop contract;
    // rounds keep counting up past the forward phase.
    check_cancel(first_round + (num_levels_ - 1 - li));
    level_.items().assign(level_order_.begin() + level_start_[li],
                          level_order_.begin() + level_start_[li + 1]);
    // gathered[i] = sum of coef[w] over the out-edges (v_i -> w). Only the
    // children at li + 1 contribute: no out-neighbor lies deeper, and the
    // levels at or above li are not folded yet, so their coef is 0.
    edges += neighbor_reduce<double>(
        dev_, g, level_, gathered_, p, 0.0,
        [](VertexId, VertexId w, EdgeId, BcProblem& q) { return q.coef[w]; },
        plus, cfg, advance_ws_);
    compute_indexed(dev_, level_, p,
                    [&](std::size_t i, std::uint32_t v, BcProblem& q) {
                      const double delta = q.sigma[v] * gathered_[i];
                      q.coef[v] = (1.0 + delta) / q.sigma[v];
                      scores[v] += delta;
                    });
  }
  return edges;
}

void BcEnactor::enact(const Csr& g, const Csr& gT, VertexId source,
                      const QueryOptions& opts, BcResult& out) {
  GRX_CHECK_MSG(source < g.num_vertices(), "BC source out of range");
  GRX_CHECK(gT.num_vertices() == g.num_vertices());
  Timer wall;
  begin_enact(opts);
  BcForwardProgram prog{problem_,    gT,          opts,      source,
                        candidates_, candidates_next_, gathered_, split_ws_};
  std::uint64_t edges = run_program(g, prog);
  // One level per forward round: the last round found the frontier empty.
  bucket_levels(problem_.iteration);
  out.bc_values.assign(g.num_vertices(), 0.0);
  edges += backward(g, opts, static_cast<std::uint32_t>(log_.size()),
                    out.bc_values);
  out.sigma = problem_.sigma;
  out.depth = problem_.depth;
  finish_into(out.summary, edges, wall.elapsed_ms());
}

void BcEnactor::backward_accumulate(const Csr& g,
                                    const BatchBcForwardResult& fwd,
                                    std::uint32_t lane,
                                    const QueryOptions& opts,
                                    std::vector<double>& acc) {
  begin_enact(opts);
  const std::uint32_t b = fwd.num_lanes;
  BcProblem& p = problem_;
  p.depth.resize(g.num_vertices());
  p.sigma.resize(g.num_vertices());
  std::uint32_t num_levels = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::size_t i = static_cast<std::size_t>(v) * b + lane;
    p.depth[v] = fwd.depth[i];
    p.sigma[v] = fwd.sigma[i];
    if (p.depth[v] != kInfinity)
      num_levels = std::max(num_levels, p.depth[v] + 1);
  }
  bucket_levels(num_levels);
  backward(g, opts, 0, acc);
}

void bc_accumulate_batched(BatchEnactor& batch, BcEnactor& back,
                           const Csr& g, std::span<const VertexId> sources,
                           const QueryOptions& opts, BatchBcForwardResult& fwd,
                           std::vector<double>& out) {
  out.assign(g.num_vertices(), 0.0);
  if (sources.empty()) return;
  batch.bc_forward(g, sources, opts, fwd);
  for (std::uint32_t q = 0; q < fwd.num_lanes; ++q)
    back.backward_accumulate(g, fwd, q, opts, out);
}

void bc_accumulate_sampled(BcEnactor& bc, const Csr& g, const Csr& gT,
                           std::uint32_t num_sources, std::uint64_t seed,
                           const QueryOptions& opts, BcResult& scratch,
                           std::vector<double>& out) {
  out.assign(g.num_vertices(), 0.0);
  Rng rng(seed);
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    const auto src = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    bc.enact(g, gT, src, opts, scratch);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      out[v] += scratch.bc_values[v];
  }
}

}  // namespace grx
