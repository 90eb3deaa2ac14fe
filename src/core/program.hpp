// The declarative operator-program layer (Section 4's programming model as
// an internal contract): a primitive is a *program* — Problem-init, a
// sequence of advance / filter / compute / neighbor-reduce steps, and a
// convergence predicate — and one generic iteration loop in EnactorBase
// drives every program. The loop owns what the twelve bespoke enactor
// loops used to duplicate: enactment bracketing (workspace generation
// bumps, sticky-direction reset), the max-iteration safety net, and
// per-iteration logging. Direction switching stays inside the advance
// operator (AdvanceWorkspace's sticky push/pull state), which begin_enact
// resets on the driver's behalf.
//
// Program concept:
//
//   struct MyProgram {
//     void init(OpContext& c);            // Problem-init + initial frontier
//     bool converged(OpContext& c);       // checked before every step; may
//                                         // refill the frontier (SSSP's
//                                         // priority-level advance)
//     IterationStats step(OpContext& c);  // one BSP iteration; the returned
//                                         // stats are recorded verbatim
//   };
//
// Programs run against an OpContext: handles to the enactor's pooled
// frontiers and operator workspaces plus the standard step wirings, so a
// program never constructs (and so never allocates) operator state of its
// own — the Problem/Enactor pooling discipline is structural, not per-
// primitive effort.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/advance.hpp"
#include "core/compute.hpp"
#include "core/enactor.hpp"
#include "core/filter.hpp"
#include "core/neighbor_reduce.hpp"
#include "graph/csr.hpp"
#include "util/timer.hpp"

namespace grx {

/// The pooled operator state a program runs against, with the standard
/// frontier wirings: advance reads `frontier()` into `advance_out()`,
/// filters stage into `staged()`, `promote()` rotates staging into the next
/// input frontier. All handles reference enactor-owned pooled storage.
class OpContext {
 public:
  OpContext(simt::Device& dev, const Csr& g, Frontier& in, Frontier& out,
            Frontier& filtered, AdvanceWorkspace& advance_ws,
            FilterWorkspace& filter_ws)
      : dev_(dev),
        g_(g),
        in_(in),
        out_(out),
        filtered_(filtered),
        advance_ws_(advance_ws),
        filter_ws_(filter_ws) {}

  simt::Device& dev() { return dev_; }
  const Csr& graph() const { return g_; }
  Frontier& frontier() { return in_; }       ///< current input frontier
  Frontier& advance_out() { return out_; }   ///< raw advance output
  Frontier& staged() { return filtered_; }   ///< post-filter staging
  AdvanceWorkspace& advance_workspace() { return advance_ws_; }
  FilterWorkspace& filter_workspace() { return filter_ws_; }

  /// Advance step: frontier() -> advance_out().
  template <typename F, typename P>
  AdvanceStats advance(P& prob, const AdvanceConfig& cfg) {
    return grx::advance<F>(dev_, g_, in_, out_, prob, cfg, advance_ws_);
  }

  /// Filter step over the advance output: advance_out() -> staged().
  template <typename F, typename P>
  FilterStats filter(P& prob, const FilterConfig& cfg = {}) {
    return filter_vertices<F>(dev_, out_.items(), filtered_.items(), prob,
                              cfg, filter_ws_);
  }

  /// Filter step over the *input* frontier: frontier() -> staged(). The
  /// shape of primitives whose advance emits no output frontier (PageRank)
  /// or that prune the active set between compute rounds (MIS, coloring).
  template <typename F, typename P>
  FilterStats filter_frontier(P& prob, const FilterConfig& cfg = {}) {
    return filter_vertices<F>(dev_, in_.items(), filtered_.items(), prob,
                              cfg, filter_ws_);
  }

  /// Vertex filter over explicit pooled vectors (CC's pointer jumping runs
  /// a private vertex frontier inside each hook round).
  template <typename F, typename P>
  FilterStats filter_into(const std::vector<std::uint32_t>& from,
                          std::vector<std::uint32_t>& to, P& prob,
                          const FilterConfig& cfg = {}) {
    return filter_vertices<F>(dev_, from, to, prob, cfg, filter_ws_);
  }

  /// Edge filter over explicit pooled vectors (CC hooking and MST rounds
  /// traverse edge frontiers; the problem supplies endpoint lookup).
  template <typename F, typename P>
  FilterStats filter_edges_into(const std::vector<std::uint32_t>& from,
                                std::vector<std::uint32_t>& to, P& prob) {
    return grx::filter_edges<F>(dev_, from, to, prob, filter_ws_);
  }

  /// Rotate staging into the next input frontier.
  void promote() { in_.swap(filtered_); }

  /// Compute step over the current frontier.
  template <typename P, typename Fn>
  void compute(P& prob, Fn&& fn) {
    grx::compute(dev_, in_, prob, std::forward<Fn>(fn));
  }

  /// Compute step over the current frontier with each item's position,
  /// for steps that consume a per-item operator output (neighbor_reduce).
  template <typename P, typename Fn>
  void compute_indexed(P& prob, Fn&& fn) {
    grx::compute_indexed(dev_, in_, prob, std::forward<Fn>(fn));
  }

  /// Compute step over all ids in [0, n).
  template <typename P, typename Fn>
  void compute_all(std::uint32_t n, P& prob, Fn&& fn) {
    grx::compute_all(dev_, n, prob, std::forward<Fn>(fn));
  }

  /// Gather-reduce over the current frontier's neighborhoods in `g`
  /// (defaults to the program's graph; HITS/SALSA/PageRank gather over a
  /// transpose). `out` is caller-pooled; the degree gather, scan and chunk
  /// starts of the edge-chunked mapping live in the advance workspace.
  /// `cfg` supplies the mapping strategy and the LB node/edge threshold.
  /// Returns the edges swept.
  template <typename T, typename P, typename MapFn, typename ReduceFn>
  std::uint64_t neighbor_reduce(const Csr& g, std::vector<T>& out, P& prob,
                                T init, MapFn&& map, ReduceFn&& reduce,
                                const AdvanceConfig& cfg = {}) {
    return grx::neighbor_reduce<T>(dev_, g, in_, out, prob, init,
                                   std::forward<MapFn>(map),
                                   std::forward<ReduceFn>(reduce), cfg,
                                   advance_ws_);
  }
  template <typename T, typename P, typename MapFn, typename ReduceFn>
  std::uint64_t neighbor_reduce(std::vector<T>& out, P& prob, T init,
                                MapFn&& map, ReduceFn&& reduce) {
    return neighbor_reduce<T>(g_, out, prob, init, std::forward<MapFn>(map),
                              std::forward<ReduceFn>(reduce));
  }

  /// Plans the whole-vertex-range gather over `g` (once per enact): the
  /// mapping `cfg` picks for the frontier [0, n) and its chunk starts, into
  /// the caller-pooled `plan`.
  void plan_whole_gather(const Csr& g, WholeGatherPlan& plan,
                         const AdvanceConfig& cfg = {}) {
    grx::plan_whole_gather(dev_, g, cfg, plan);
  }

  /// Gather-reduce over every vertex of `g`, out[v] for vertex v, with the
  /// plan built for `g`: neighbor_reduce over an iota frontier, byte for
  /// byte, for programs whose frontier is every vertex (PageRank before its
  /// first prune, HITS, SALSA). Returns the edges swept.
  template <typename T, typename P, typename MapFn, typename ReduceFn>
  std::uint64_t neighbor_reduce_all(const Csr& g, const WholeGatherPlan& plan,
                                    std::vector<T>& out, P& prob, T init,
                                    MapFn&& map, ReduceFn&& reduce) {
    return grx::neighbor_reduce_all<T>(dev_, g, plan, out, prob, init,
                                       std::forward<MapFn>(map),
                                       std::forward<ReduceFn>(reduce),
                                       advance_ws_);
  }

 private:
  simt::Device& dev_;
  const Csr& g_;
  Frontier& in_;
  Frontier& out_;
  Frontier& filtered_;
  AdvanceWorkspace& advance_ws_;
  FilterWorkspace& filter_ws_;
};

/// The operator-program contract the generic driver enforces.
template <typename Prog>
concept Program = requires(Prog p, OpContext& c) {
  p.init(c);
  { p.converged(c) } -> std::convertible_to<bool>;
  { p.step(c) } -> std::convertible_to<IterationStats>;
};

template <typename Prog>
std::uint64_t EnactorBase::run_program(const Csr& g, Prog& prog) {
  static_assert(Program<Prog>, "type does not satisfy the Program concept");
  OpContext ctx(dev_, g, in_, out_, filtered_, advance_ws_, filter_ws_);
  prog.init(ctx);
  std::uint64_t edges = 0;
  while (!prog.converged(ctx)) {
    // Cooperative stop point: an expired deadline or a cancel request
    // ends the enactment here, between BSP rounds, with a typed error —
    // pooled state needs no teardown (the next begin_enact resets it).
    check_cancel(static_cast<std::uint32_t>(log_.size()));
    GRX_CHECK_MSG(log_.size() < kMaxIterations,
                  "program exceeded the max-iteration safety net");
    const IterationStats s = prog.step(ctx);
    edges += s.edges_processed;
    record(s);
  }
  return edges;
}

template <typename Prog>
void EnactorBase::enact_program(const Csr& g, Prog& prog,
                                const QueryOptions& opts, EnactSummary& out) {
  Timer wall;
  begin_enact(opts);
  const std::uint64_t edges = run_program(g, prog);
  finish_into(out, edges, wall.elapsed_ms());
}

}  // namespace grx
