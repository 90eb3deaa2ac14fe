// grx::Engine — the persistent per-graph query façade (the public face of
// the paper's Problem/Enactor split, Section 4).
//
// One Engine owns every primitive's Problem state for one graph: pooled
// frontiers, advance/filter workspaces, label/distance/score buffers, the
// SSSP priority frontier, and the batch engine's lane matrices. Construct
// it once, then serve repeated queries:
//
//   simt::Device dev;
//   grx::Engine engine(dev, graph);
//   grx::BfsResult hops;
//   grx::BatchSsspResult routes;
//   for (;;) {                       // the ROADMAP's serving loop
//     engine.bfs(user_src, hops);            // zero steady-state allocs
//     engine.batch_sssp(wave, routes);       // 64 queries, one edge scan
//   }
//
// Every query has two forms: in-place (`engine.bfs(src, out, opts)`),
// which assigns results into a caller-reused object and performs *zero*
// heap allocations once warm, and by-value (`auto r = engine.bfs(src)`),
// which allocates only the returned result buffers. All single-source and
// batched queries share one QueryOptions surface and report the same
// EnactSummary. The Engine is the only query surface: a one-off query is
// a temporary Engine (`grx::Engine(dev, g).bfs(src)`), which charges the
// device exactly what the same query on a warm Engine does.
//
// Contract details: docs/api.md.
#pragma once

#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_enactor.hpp"
#include "core/options.hpp"
#include "graph/csr.hpp"
#include "verify/sched.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/cc.hpp"
#include "primitives/coloring.hpp"
#include "primitives/hits.hpp"
#include "primitives/mis.hpp"
#include "primitives/mst.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/salsa.hpp"
#include "primitives/sssp.hpp"

namespace grx {

class Engine {
 public:
  /// Binds the engine to `dev` and `g` (both captured by reference and
  /// must outlive the engine). HITS/SALSA treat `g` as its own transpose —
  /// valid only for symmetric (undirected) graphs, which the first such
  /// query verifies once (GRX_CHECK; cached, allocation-free on sorted
  /// neighbor lists). Directed graphs must use the transpose-supplying
  /// constructor for them. PageRank and BC's pull rounds gather over `g`
  /// when it is symmetric and otherwise over a transpose the engine builds
  /// once per binding; SSSP's pull rounds need *weighted* in-edges, so they
  /// read `g` only when its weights are symmetric too and otherwise that
  /// same engine-built transpose (it copies weights).
  Engine(simt::Device& dev, const Csr& g)
      : Engine(dev, g, g) {
    transpose_explicit_ = false;
  }

  /// As above with an explicit transpose for the primitives that gather
  /// over reverse edges (PageRank, BC, SSSP, HITS, SALSA). SSSP uses it
  /// only when it carries weights or `g` carries none; an unweighted
  /// transpose of a weighted `g` would make SSSP's pull rounds relax hop
  /// counts, so SSSP then resolves its in-edges as the single-graph
  /// constructor does.
  Engine(simt::Device& dev, const Csr& g, const Csr& transpose)
      : dev_(&dev),
        g_(&g),
        gT_(&transpose),
        bfs_(dev),
        sssp_(dev),
        bc_(dev),
        cc_(dev),
        pr_(dev),
        coloring_(dev),
        mis_(dev),
        mst_(dev),
        hits_(dev),
        salsa_(dev),
        batch_(dev) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const Csr& graph() const { return *g_; }
  const Csr& transpose() const { return *gT_; }
  simt::Device& device() { return *dev_; }

  /// Rebinds the engine to a different graph — the streaming-graph seam:
  /// a server worker points its pooled engine at a newer DynamicGraph
  /// snapshot without rebuilding enactors. Pooled state is retained
  /// (buffers re-size per enact, so only a grown edge count allocates);
  /// the symmetry caches and any engine-built transpose are dropped, the
  /// next CC rebuilds its hook list in place, and HITS/SALSA again treat
  /// the graph as its own transpose until rebind(g, transpose) supplies
  /// one. Requires no query in flight (throws CheckError otherwise). The
  /// new graph is captured by reference and must stay alive across
  /// subsequent queries — for snapshots, hold the SnapshotView for the
  /// duration.
  void rebind(const Csr& g) {
    rebind(g, g);
    transpose_explicit_ = false;
  }
  void rebind(const Csr& g, const Csr& transpose) {
    GRX_CHECK_MSG(!busy(), "Engine::rebind while a query is in flight");
    g_ = &g;
    gT_ = &transpose;
    transpose_explicit_ = true;
    symmetry_ = Symmetry::kUnknown;
    weight_symmetry_ = Symmetry::kUnknown;
    owned_transpose_.reset();
    cc_hooks_built_ = false;
  }

  /// True while a query is executing on this engine. An Engine is
  /// exclusive: its pooled Problem state admits exactly one in-flight
  /// query, and every query entry point trips a reentry guard (throws
  /// CheckError) if a second thread enters concurrently — misuse fails
  /// loudly instead of silently corrupting pooled buffers. Concurrency
  /// belongs one layer up: grx::Server holds one Engine per worker.
  bool busy() const {
    // mo: acquire — pairs with the acq_rel RMWs in EnactScope; a caller
    // that sees the engine idle also sees the pooled state the previous
    // query wrote before its scope released.
    return verify::sched_load(active_, std::memory_order_acquire) != 0;
  }

  // --- single-source traversal queries --------------------------------------

  void bfs(VertexId source, BfsResult& out, const QueryOptions& opts = {});
  BfsResult bfs(VertexId source, const QueryOptions& opts = {});

  void sssp(VertexId source, SsspResult& out, const QueryOptions& opts = {});
  SsspResult sssp(VertexId source, const QueryOptions& opts = {});

  void bc(VertexId source, BcResult& out, const QueryOptions& opts = {});
  BcResult bc(VertexId source, const QueryOptions& opts = {});

  // --- whole-graph analytics -------------------------------------------------

  void cc(CcResult& out, const QueryOptions& opts = {});
  CcResult cc(const QueryOptions& opts = {});

  void pagerank(PagerankResult& out, const QueryOptions& opts = {});
  PagerankResult pagerank(const QueryOptions& opts = {});

  void coloring(ColoringResult& out, const QueryOptions& opts = {});
  ColoringResult coloring(const QueryOptions& opts = {});

  void mis(MisResult& out, const QueryOptions& opts = {});
  MisResult mis(const QueryOptions& opts = {});

  void mst(MstResult& out, const QueryOptions& opts = {});
  MstResult mst(const QueryOptions& opts = {});

  void hits(HitsResult& out, const QueryOptions& opts = {});
  HitsResult hits(const QueryOptions& opts = {});

  void salsa(SalsaResult& out, const QueryOptions& opts = {});
  SalsaResult salsa(const QueryOptions& opts = {});

  // --- batched multi-source queries (64 lanes per word, shared edge scans) ---

  void batch_bfs(std::span<const VertexId> sources, BatchBfsResult& out,
                 const QueryOptions& opts = {});
  BatchBfsResult batch_bfs(std::span<const VertexId> sources,
                           const QueryOptions& opts = {});

  void batch_sssp(std::span<const VertexId> sources, BatchSsspResult& out,
                  const QueryOptions& opts = {});
  BatchSsspResult batch_sssp(std::span<const VertexId> sources,
                             const QueryOptions& opts = {});

  void batch_reachability(std::span<const VertexId> sources,
                          BatchReachabilityResult& out,
                          const QueryOptions& opts = {});
  BatchReachabilityResult batch_reachability(
      std::span<const VertexId> sources, const QueryOptions& opts = {});

  void batch_bc_forward(std::span<const VertexId> sources,
                        BatchBcForwardResult& out,
                        const QueryOptions& opts = {});
  BatchBcForwardResult batch_bc_forward(std::span<const VertexId> sources,
                                        const QueryOptions& opts = {});

  /// Source-batched accumulated BC (lane-packed forward + per-source
  /// backward sweeps); byte-identical to summing bc() over `sources` in
  /// order while every path count stays below 2^53 (exact double adds).
  void bc_batched(std::span<const VertexId> sources, std::vector<double>& out,
                  const QueryOptions& opts = {});
  std::vector<double> bc_batched(std::span<const VertexId> sources,
                                 const QueryOptions& opts = {});

  /// Accumulated BC over `num_sources` deterministic sample sources.
  void bc_sampled(std::uint32_t num_sources, std::uint64_t seed,
                  std::vector<double>& out, const QueryOptions& opts = {});
  std::vector<double> bc_sampled(std::uint32_t num_sources,
                                 std::uint64_t seed,
                                 const QueryOptions& opts = {});

 private:
  /// Guards hits()/salsa() under the single-graph constructor: a directed
  /// graph used as its own transpose would silently produce wrong scores,
  /// so the first such query checks structural symmetry once.
  void require_transpose();

  /// is_symmetric(graph()), computed at the first query that needs it and
  /// cached until rebind.
  bool graph_symmetric();

  /// has_symmetric_weights(graph()), computed at the first query that
  /// needs it and cached until rebind.
  bool weights_symmetric();

  /// The reverse edges PageRank and BC gather over: the explicit
  /// transpose, else `g` itself when symmetric, else owned_transpose().
  const Csr& in_edges();

  /// The weighted reverse edges SSSP's pull rounds fold over: the explicit
  /// transpose when it carries weights (or `g` carries none), else `g`
  /// when its weights are symmetric, else owned_transpose().
  const Csr& weighted_in_edges();

  /// transpose(graph()) with weights, built at the first query that needs
  /// it and shared by in_edges() and weighted_in_edges() until rebind.
  const Csr& owned_transpose();

  /// build_cc_hook_list(graph()), built at the first CC after a bind and
  /// kept until rebind; the next build reuses its storage.
  const CcHookList& cc_hook_list();

  /// RAII reentry guard taken by every query entry point: one atomic RMW
  /// per query (noise next to an enactment), always on — concurrent entry
  /// is a programming error whose symptom without the guard would be
  /// corrupted pooled Problem state far from the cause.
  class EnactScope {
   public:
    explicit EnactScope(const Engine& e) : e_(e) {
      // mo: acq_rel — the guard doubles as the hand-off edge between
      // consecutive queries on one engine: release publishes this
      // query's writes to pooled state, acquire observes the previous
      // query's.
      const auto prev =
          verify::sched_fetch_add(e_.active_, 1, std::memory_order_acq_rel);
      if (prev != 0) {
        // mo: acq_rel — undo of the guard increment, same edge.
        verify::sched_fetch_sub(e_.active_, 1, std::memory_order_acq_rel);
        GRX_CHECK_MSG(prev == 0,
                      "concurrent enact on one grx::Engine: an Engine "
                      "serves one query at a time — give each thread its "
                      "own Engine (see grx::Server)");
      }
    }
    ~EnactScope() {
      // mo: acq_rel — releases this query's pooled-state writes to the
      // next EnactScope / busy() observer.
      verify::sched_fetch_sub(e_.active_, 1, std::memory_order_acq_rel);
    }
    EnactScope(const EnactScope&) = delete;
    EnactScope& operator=(const EnactScope&) = delete;

   private:
    const Engine& e_;
  };

  mutable std::atomic<std::uint32_t> active_{0};

  simt::Device* dev_;
  const Csr* g_;
  const Csr* gT_;
  bool transpose_explicit_ = true;
  enum class Symmetry : std::uint8_t { kUnknown, kYes, kNo };
  Symmetry symmetry_ = Symmetry::kUnknown;
  Symmetry weight_symmetry_ = Symmetry::kUnknown;
  std::optional<Csr> owned_transpose_;  ///< see owned_transpose()
  CcHookList cc_hooks_;                 ///< see cc_hook_list()
  bool cc_hooks_built_ = false;

  // One persistent enactor per primitive: each owns its Problem buffers
  // and shares the operator-workspace pooling of EnactorBase.
  BfsEnactor bfs_;
  SsspEnactor sssp_;
  BcEnactor bc_;
  CcEnactor cc_;
  PrEnactor pr_;
  ColoringEnactor coloring_;
  MisEnactor mis_;
  MstEnactor mst_;
  HitsEnactor hits_;
  SalsaEnactor salsa_;
  BatchEnactor batch_;

  // Pooled intermediates for the composite BC paths.
  BatchBcForwardResult bc_fwd_;
  BcResult bc_tmp_;
};

}  // namespace grx
