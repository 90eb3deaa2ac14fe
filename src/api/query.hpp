// The unified query-option surface of the grx::Engine façade.
//
// Every primitive keeps its own narrow options struct (BfsOptions,
// SsspOptions, ...) for direct enactor users; QueryOptions is the superset
// the Engine accepts so callers can hold one options object across
// heterogeneous queries (a serving loop does not branch on primitive kind
// to configure a request). The to_*() converters produce exactly what each
// enactor consumes; fields a primitive does not consume are ignored by it,
// and defaults match the per-primitive defaults exactly, so `engine.bfs(src)`
// runs BFS with `BfsOptions{}`.
#pragma once

#include <cstdint>

#include "core/advance.hpp"
#include "core/batch_enactor.hpp"
#include "core/cancel.hpp"
#include "primitives/bc.hpp"
#include "primitives/bfs.hpp"
#include "primitives/hits.hpp"
#include "primitives/pagerank.hpp"
#include "primitives/salsa.hpp"
#include "primitives/sssp.hpp"

namespace grx {

struct QueryOptions {
  // --- shared traversal knobs (all advance-based primitives) ---
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  /// BFS / reachability traversal direction; kPull/kOptimal require a
  /// symmetric CSR (see BfsOptions / BatchOptions).
  Direction direction = Direction::kPush;
  std::uint32_t lb_node_edge_threshold = 4096;
  double pull_alpha = 14.0;
  double pull_beta = 24.0;

  // --- BFS ---
  bool idempotent = true;
  bool record_predecessors = true;

  // --- SSSP (single-source and batched) ---
  bool use_priority_queue = true;
  std::uint32_t delta = 0;  ///< 0 = auto (sssp_auto_delta)

  // --- batched kernels ---
  /// Vector backend for the batched lane-word kernels (simt/vec.hpp):
  /// kAuto picks the best CPU-supported path at enact time; kScalar forces
  /// the reference loops. Results are byte-identical across backends.
  BackendOptions backend;

  // --- PageRank ---
  double damping = 0.85;
  double epsilon = 1e-6;
  std::uint32_t max_iterations = 50;

  // --- HITS / SALSA ---
  std::uint32_t iterations = 30;

  // --- MIS / coloring ---
  std::uint64_t seed = 2016;

  // --- serving-layer result cache (server queries only) ---
  /// Per-query opt-in to the server's epoch-keyed result cache
  /// (ServerOptions::cache; api/result_cache.hpp). With caching enabled
  /// on the server, `true` lets this query be served from — and its
  /// result published to — the cache, and lets it share one enact with
  /// identical in-flight queries (singleflight). `false` forces a
  /// dedicated computation and keeps the result out of the cache.
  /// Ignored by direct Engine queries and by a server whose cache is
  /// disabled. Never part of the fuse-compat key: it does not change
  /// result bytes, so differing `cache` flags may still fuse.
  bool cache = true;

  // --- robustness (all queries) ---
  /// Cooperative stop handle: the Engine arms the enactor with this token
  /// before every query, and the iteration loops check it between BSP
  /// rounds — a cancel() or an expired deadline stops the enactment with
  /// CancelledError / DeadlineExceededError, leaving the engine warm and
  /// immediately reusable. Inert by default (one branch per round).
  /// Server callers set deadlines on QueryRequest instead; the server
  /// overwrites this field with its own per-enact token (docs/api.md,
  /// "Failure semantics").
  CancelToken cancel;

  BfsOptions to_bfs() const {
    BfsOptions o;
    o.strategy = strategy;
    o.direction = direction;
    o.idempotent = idempotent;
    o.record_predecessors = record_predecessors;
    o.lb_node_edge_threshold = lb_node_edge_threshold;
    o.pull_alpha = pull_alpha;
    o.pull_beta = pull_beta;
    return o;
  }

  SsspOptions to_sssp() const {
    SsspOptions o;
    o.strategy = strategy;
    o.use_priority_queue = use_priority_queue;
    o.delta = delta;
    o.pull_alpha = pull_alpha;
    o.pull_beta = pull_beta;
    return o;
  }

  BcOptions to_bc() const {
    BcOptions o;
    o.strategy = strategy;
    o.pull_alpha = pull_alpha;
    o.pull_beta = pull_beta;
    return o;
  }

  PagerankOptions to_pagerank() const {
    PagerankOptions o;
    o.strategy = strategy;
    o.damping = damping;
    o.epsilon = epsilon;
    o.max_iterations = max_iterations;
    return o;
  }

  HitsOptions to_hits() const {
    HitsOptions o;
    o.iterations = iterations;
    return o;
  }

  SalsaOptions to_salsa() const {
    SalsaOptions o;
    o.iterations = iterations;
    return o;
  }

  BatchOptions to_batch() const {
    BatchOptions o;
    o.strategy = strategy;
    o.direction = direction;
    o.lb_node_edge_threshold = lb_node_edge_threshold;
    o.pull_alpha = pull_alpha;
    o.pull_beta = pull_beta;
    o.use_priority_queue = use_priority_queue;
    o.delta = delta;
    o.backend = backend;
    return o;
  }
};

}  // namespace grx
