// QueryOptions — the one options type from grx::Engine down to every
// enactor.
//
// Every primitive's enact() takes this struct and reads the fields it
// consumes; the rest it ignores. One type means a new traversal knob is
// declared once, with its default, and reaches the Engine, the batched
// engine, and the serving layer without converters. Callers hold one
// options object across heterogeneous queries (a serving loop does not
// branch on primitive kind to configure a request).
#pragma once

#include <cstdint>

#include "core/advance.hpp"
#include "core/cancel.hpp"
#include "simt/vec.hpp"

namespace grx {

struct QueryOptions {
  // --- shared traversal knobs (advance- and gather-based primitives) ---
  /// Workload mapping of the advance / gather (paper Section 4.4).
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  /// BFS / reachability traversal direction. kOptimal switches between the
  /// push advance and the bottom-up (pull) step by Beamer's heuristic
  /// (for a batch, on union-frontier edge volume). kPull/kOptimal REQUIRE
  /// a symmetric (undirected) CSR: the pull step probes the graph's own
  /// rows as incoming edges, which is why the default is the
  /// direction-agnostic kPush. SSSP and BC pick their direction from
  /// pull_alpha / pull_beta alone; batched SSSP and the batched BC forward
  /// pass are push-only.
  Direction direction = Direction::kPush;
  /// Below this frontier size LB balances over nodes, above it over edges.
  std::uint32_t lb_node_edge_threshold = 4096;
  /// Direction switch (Beamer): pull once the frontier's edge volume
  /// exceeds |E|/pull_alpha, back to push when the frontier shrinks below
  /// |V|/pull_beta.
  double pull_alpha = 14.0;
  double pull_beta = 24.0;

  // --- BFS ---
  /// Idempotent advance: plain reads/writes, duplicates tolerated,
  /// filter-side heuristic dedup. Non-idempotent uses an atomic claim.
  bool idempotent = true;
  /// Record predecessor (parent) ids alongside depths.
  bool record_predecessors = true;

  // --- SSSP (single-source and batched) ---
  /// Enable the near/far priority schedule. 0 delta means "auto": the
  /// shared sssp_auto_delta sizing (mean weight x avg degree; 0 on
  /// low-degree graphs, leaving the schedule off).
  bool use_priority_queue = true;
  std::uint32_t delta = 0;

  // --- batched kernels ---
  /// Vector backend for the batched lane-word kernels (simt/vec.hpp):
  /// kAuto picks the best CPU-supported path at enact time; kScalar forces
  /// the reference loops. Results are byte-identical across backends.
  BackendOptions backend;

  // --- PageRank ---
  double damping = 0.85;
  /// Per-vertex convergence threshold for frontier pruning. 0 disables
  /// pruning (every vertex iterates to max_iterations — the mode used for
  /// oracle comparison and per-iteration timing, as in Table 3 where "all
  /// PageRank times are normalized to one iteration").
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
  /// Cooperative stop handle: every enact() arms its enactor with this
  /// token, and the iteration loops check it between BSP rounds — a
  /// cancel() or an expired deadline stops the enactment with
  /// CancelledError / DeadlineExceededError, leaving the enactor warm and
  /// immediately reusable. Inert by default (one branch per round).
  /// Server callers set deadlines on QueryRequest instead; the server
  /// overwrites this field with its own per-enact token (docs/api.md,
  /// "Failure semantics").
  CancelToken cancel;
};

}  // namespace grx
