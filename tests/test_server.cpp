// The grx::Server contract (docs/api.md, "The query server"):
//
//  1. Oracle parity under concurrency — any number of client threads
//     submitting any mix of queries get results byte-identical to a
//     serial, single-thread Engine serving the same requests, coalescer
//     on or off: worker interleaving and lane demux never alter bytes.
//     (FP-valued PageRank requires pinning the workers' OpenMP width to
//     one, which the parity tests do via omp_threads_per_worker.)
//  2. Coalescing is a throughput lever, not a semantic: fused queries
//     (batch_lanes > 1) return exactly what solo enacts would, per lane.
//  3. Shutdown is graceful — stop() (or destruction) drains every
//     accepted query; tickets outlive the server; a stopped server
//     rejects new work loudly.
//  4. The Engine reentry guard fires on concurrent misuse (CheckError),
//     instead of letting two threads corrupt pooled Problem state.
//
// This suite (with test_engine) is the one CI runs under ThreadSanitizer:
// every cross-thread handoff below — MPMC queue, coalesce window, ticket
// fulfillment, stop/join — must be TSan-clean.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/faults.hpp"
#include "api/server.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

using testing::ThreadRestorer;

/// The shared serving graph (same shape as test_engine's) — the hoisted
/// power-law fixture from test_common.hpp.
const Csr& serving_graph() { return testing::power_law_serving_graph(10); }

/// What a serial single-thread Engine answers for `req` — the oracle
/// every concurrently-served result must equal byte-for-byte.
QueryResult oracle_result(Engine& eng, const QueryRequest& req) {
  QueryResult r;
  r.kind = req.kind;
  switch (req.kind) {
    case QueryKind::kBfs:
      r.depth = eng.bfs(req.source, req.opts).depth;
      break;
    case QueryKind::kSssp:
      r.dist = eng.sssp(req.source, req.opts).dist;
      break;
    case QueryKind::kReachability: {
      const std::vector<std::uint32_t> depth =
          eng.bfs(req.source, req.opts).depth;
      r.reachable.resize(depth.size());
      for (std::size_t v = 0; v < depth.size(); ++v)
        r.reachable[v] = depth[v] != kInfinity ? 1 : 0;
      break;
    }
    case QueryKind::kBcForward: {
      const BcResult bc = eng.bc(req.source, req.opts);
      r.depth = bc.depth;
      r.sigma = bc.sigma;
      break;
    }
    case QueryKind::kCc:
      r.component = eng.cc(req.opts).component;
      break;
    case QueryKind::kPagerank:
      r.rank = eng.pagerank(req.opts).rank;
      break;
  }
  return r;
}

/// Byte-exact comparison of the fields `kind` fills (sigma/rank included:
/// sigma is integer-valued, rank is single-thread-deterministic here).
void expect_equal(const QueryResult& got, const QueryResult& want,
                  const std::string& ctx) {
  ASSERT_EQ(got.kind, want.kind) << ctx;
  EXPECT_EQ(got.depth, want.depth) << ctx;
  EXPECT_EQ(got.dist, want.dist) << ctx;
  EXPECT_EQ(got.reachable, want.reachable) << ctx;
  EXPECT_EQ(got.sigma, want.sigma) << ctx;
  EXPECT_EQ(got.component, want.component) << ctx;
  EXPECT_EQ(got.rank, want.rank) << ctx;
}

/// A seeded mixed workload over every query kind with varied (sometimes
/// fuse-incompatible) options, so the coalescer's compat key and the
/// demux both get exercised.
std::vector<QueryRequest> mixed_requests(const Csr& g, std::size_t count,
                                         std::uint64_t seed) {
  constexpr QueryKind kKinds[] = {QueryKind::kBfs,          QueryKind::kSssp,
                                  QueryKind::kReachability, QueryKind::kBcForward,
                                  QueryKind::kCc,           QueryKind::kPagerank};
  Rng rng(seed);
  std::vector<QueryRequest> reqs;
  reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    QueryRequest req;
    req.kind = kKinds[i % std::size(kKinds)];
    req.source = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    if (req.kind == QueryKind::kBfs || req.kind == QueryKind::kReachability)
      req.opts.direction = i % 2 ? Direction::kOptimal : Direction::kPush;
    if (req.kind == QueryKind::kSssp) {
      req.opts.delta = i % 3 == 0 ? 16 : 0;
      req.opts.use_priority_queue = i % 3 != 2;
    }
    reqs.push_back(req);
  }
  return reqs;
}

// --- 1 + 2: oracle parity under concurrency, coalescer on ------------------

TEST(ServerOracle, ConcurrentMixedClientsMatchSerialEngine) {
  const Csr& g = serving_graph();
  const std::vector<QueryRequest> reqs = mixed_requests(g, 48, 99);

  // Serial oracle: one engine, one thread, request order.
  std::vector<QueryResult> want;
  {
    ThreadRestorer tr;
    omp_set_num_threads(1);
    simt::Device dev;
    Engine eng(dev, g);
    for (const QueryRequest& req : reqs) want.push_back(oracle_result(eng, req));
  }

  ServerOptions so;
  so.num_workers = 3;
  so.omp_threads_per_worker = 1;  // byte-exact FP (PageRank) vs the oracle
  so.coalesce_window_us = 1000;
  Server server(g, so);

  // 6 client threads submit interleaved stripes of the request list.
  constexpr std::size_t kClients = 6;
  std::vector<QueryTicket> tickets(reqs.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < reqs.size(); i += kClients)
        tickets[i] = server.submit(reqs[i]);
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    expect_equal(tickets[i].get(), want[i], "request " + std::to_string(i));
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, reqs.size());
  EXPECT_GE(stats.enacts, 1u);
}

TEST(ServerCoalescer, FusedBatchesDemuxToSoloBytes) {
  const Csr& g = serving_graph();
  // One worker + a generous window: the submission burst below lands in
  // the queue while the worker holds its first partial batch, so fusion
  // is effectively guaranteed (and asserted).
  ServerOptions so;
  so.num_workers = 1;
  so.omp_threads_per_worker = 1;
  so.coalesce_window_us = 100000;  // 100 ms
  so.max_batch = 64;
  Server server(g, so);

  Rng rng(7);
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 96; ++i) {
    QueryRequest req;
    req.kind = i % 2 ? QueryKind::kSssp : QueryKind::kBfs;
    // Duplicate sources are legal and must demux independently.
    req.source = static_cast<VertexId>(
        rng.next_below(std::min<VertexId>(g.num_vertices(), 40)));
    reqs.push_back(req);
  }
  std::vector<QueryTicket> tickets;
  for (const QueryRequest& req : reqs) tickets.push_back(server.submit(req));

  std::vector<QueryResult> got;
  for (QueryTicket& t : tickets) got.push_back(t.get());
  server.stop();

  // Fusion actually happened, and widely.
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.max_lanes, 2u);
  EXPECT_GT(stats.coalesced_queries, 0u);
  EXPECT_LT(stats.enacts, reqs.size());

  ThreadRestorer tr;
  omp_set_num_threads(1);
  simt::Device dev;
  Engine eng(dev, g);
  bool saw_fused = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    saw_fused |= got[i].batch_lanes > 1;
    expect_equal(got[i], oracle_result(eng, reqs[i]),
                 "request " + std::to_string(i));
  }
  EXPECT_TRUE(saw_fused);
}

TEST(ServerCoalescer, IncompatibleOptionsNeverFuseWrongConfig) {
  // Same primitive, different delta: results must match each request's
  // own configuration (distances are delta-invariant, but the near/far
  // schedule is exercised vs not — bytes must still match the oracle).
  const Csr& g = serving_graph();
  ServerOptions so;
  so.num_workers = 2;
  so.omp_threads_per_worker = 1;
  so.coalesce_window_us = 5000;
  Server server(g, so);

  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 24; ++i) {
    QueryRequest req;
    req.kind = QueryKind::kSssp;
    req.source = static_cast<VertexId>(i * 7 % g.num_vertices());
    req.opts.delta = i % 2 ? 16 : 0;
    req.opts.use_priority_queue = i % 2 != 0;
    reqs.push_back(req);
  }
  std::vector<QueryTicket> tickets;
  for (const QueryRequest& req : reqs) tickets.push_back(server.submit(req));

  ThreadRestorer tr;
  omp_set_num_threads(1);
  simt::Device dev;
  Engine eng(dev, g);
  for (std::size_t i = 0; i < reqs.size(); ++i)
    expect_equal(tickets[i].get(), oracle_result(eng, reqs[i]),
                 "request " + std::to_string(i));
}

// --- 3: shutdown -------------------------------------------------------------

TEST(ServerShutdown, StopDrainsInflightQueries) {
  const Csr& g = serving_graph();
  ServerOptions so;
  so.num_workers = 2;
  Server server(g, so);
  std::vector<QueryTicket> tickets;
  std::vector<VertexId> sources;
  for (VertexId s = 0; s < 40; ++s) {
    sources.push_back(s % g.num_vertices());
    tickets.push_back(server.submit_bfs(sources.back()));
  }
  server.stop();  // rejects new work, serves everything accepted, joins

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].ready()) << "ticket " << i << " abandoned by stop";
    const QueryResult r = tickets[i].get();
    EXPECT_FALSE(r.depth.empty()) << i;
    EXPECT_EQ(r.depth[sources[i]], 0u) << i;
  }
  EXPECT_EQ(server.stats().queries_served, tickets.size());
}

TEST(ServerShutdown, TicketsOutliveTheServer) {
  const Csr& g = serving_graph();
  std::vector<QueryTicket> tickets;
  {
    ServerOptions so;
    so.num_workers = 2;
    Server server(g, so);
    for (VertexId s = 0; s < 16; ++s)
      tickets.push_back(server.submit_bfs(s));
  }  // destructor: graceful stop + drain
  for (VertexId s = 0; s < 16; ++s) {
    const QueryResult r = tickets[s].get();
    EXPECT_EQ(r.depth[s], 0u);
  }
}

TEST(ServerShutdown, ConcurrentStopIsSafe) {
  // stop() races stop() (and the destructor): the joins are serialized
  // internally, so both callers return cleanly with all queries served.
  const Csr& g = serving_graph();
  ServerOptions so;
  so.num_workers = 2;
  Server server(g, so);
  std::vector<QueryTicket> tickets;
  for (VertexId s = 0; s < 8; ++s) tickets.push_back(server.submit_bfs(s));
  std::thread other([&] { server.stop(); });
  server.stop();
  other.join();
  for (QueryTicket& t : tickets) EXPECT_FALSE(t.get().depth.empty());
}

TEST(ServerShutdown, ZeroQueriesThenDestroy) {
  const Csr& g = serving_graph();
  { Server server(g); }  // construct, never submit, destroy: no hang
  Server twice(g);
  twice.stop();
  twice.stop();  // stop is idempotent
  SUCCEED();
}

TEST(ServerShutdown, SubmitAfterStopThrows) {
  const Csr& g = serving_graph();
  Server server(g);
  server.stop();
  EXPECT_THROW(server.submit_bfs(0), CheckError);
}

// --- misuse fails loudly ------------------------------------------------------

TEST(ServerMisuse, InvalidSubmissionsThrowInTheSubmittingThread) {
  const Csr& g = serving_graph();
  Server server(g);
  EXPECT_THROW(server.submit_bfs(g.num_vertices()), CheckError);

  // A genuinely weightless CSR (build_csr always stores weights, so one
  // is assembled by hand): SSSP must be rejected at submit, in the
  // submitting thread, not discovered by a worker.
  const Csr unweighted(3, {0, 1, 3, 4}, {1, 0, 2, 1});
  ASSERT_FALSE(unweighted.has_weights());
  Server plain(unweighted);
  EXPECT_THROW(plain.submit_sssp(0), CheckError);
  (void)plain.submit_bfs(0).get();  // BFS on an unweighted graph is fine
}

TEST(ServerMisuse, TicketIsOneShot) {
  const Csr& g = serving_graph();
  Server server(g);
  QueryTicket t = server.submit_bfs(1);
  (void)t.get();
  EXPECT_FALSE(t.valid());
  EXPECT_THROW(t.get(), CheckError);
  EXPECT_FALSE(QueryTicket{}.ready());
}

// --- 4: the Engine reentry guard ---------------------------------------------

TEST(EngineGuard, ConcurrentEnactOnOneEngineFailsLoudly) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  (void)eng.bfs(0);  // sequential reuse never trips the guard

  // A deliberately long query occupies the engine; once busy() is
  // observed, a query from this thread must hit the guard. If the long
  // query finished first (slow machine scheduling), no harm was done —
  // the guard saw a free engine — so retry with the next attempt.
  QueryOptions slow;
  slow.epsilon = 0.0;  // never converges early
  slow.max_iterations = 4000;
  bool fired = false;
  for (int attempt = 0; attempt < 5 && !fired; ++attempt) {
    std::thread occupant([&] {
      PagerankResult r;
      eng.pagerank(r, slow);
    });
    Timer deadline;
    while (!eng.busy() && deadline.elapsed_ms() < 2000.0)
      std::this_thread::yield();
    if (eng.busy()) {
      try {
        (void)eng.bfs(0);
      } catch (const CheckError&) {
        fired = true;
      }
    }
    occupant.join();
  }
  EXPECT_TRUE(fired) << "two overlapping enacts never tripped the guard";

  // The guard threw before touching any state: the engine still serves.
  const BfsResult after = eng.bfs(0);
  EXPECT_EQ(after.depth[0], 0u);
}

// --- the result cache (docs/api.md, "The result cache") ----------------------

/// Cache-on server options for the deterministic cases below: one worker
/// (so publish always precedes the next dequeue) and solo OpenMP.
ServerOptions cached_options(std::uint32_t workers = 1) {
  ServerOptions so;
  so.num_workers = workers;
  so.omp_threads_per_worker = 1;
  so.cache.enabled = true;
  return so;
}

/// Spin until `n` enacts have STARTED (the stat bumps after the cache
/// consult registers in-flight keys but before the engine runs), bounded
/// so a wedged server fails the test instead of hanging it.
void wait_for_enacts(const Server& s, std::uint64_t n) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.stats().enacts < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "worker never picked up the query";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServerCache, HitServesIdenticalBytesWithoutAnEnact) {
  const Csr& g = serving_graph();
  ServerOptions so = cached_options();
  so.max_batch = 1;
  Server server(g, so);

  const QueryRequest req{QueryKind::kBfs, 5, {}};
  const QueryResult miss = server.submit(req).get();
  EXPECT_FALSE(miss.cached);
  EXPECT_EQ(miss.batch_lanes, 1u);

  const QueryResult hit = server.submit(req).get();
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.batch_lanes, 0u) << "a hit must not enact";

  simt::Device dev;
  Engine oracle(dev, g);
  const QueryResult want = oracle_result(oracle, req);
  expect_equal(miss, want, "miss");
  expect_equal(hit, want, "hit");

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.enacts, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.dedup_attached, 0u);
  EXPECT_EQ(s.cache_entries, 1u);
  EXPECT_EQ(s.queries_served, 2u) << "hits count under served";
}

TEST(ServerCache, KeySeparatesSourceKindAndFuseOptions) {
  Server server(serving_graph(), cached_options());
  (void)server.submit_bfs(3).get();
  EXPECT_FALSE(server.submit_bfs(4).get().cached) << "different source";
  EXPECT_FALSE(server.submit_sssp(3).get().cached) << "different kind";
  QueryOptions scalar;
  scalar.backend.vec = simt::VecBackend::kScalar;
  EXPECT_FALSE(server.submit_bfs(3, scalar).get().cached)
      << "different fuse-compat options";
  EXPECT_TRUE(server.submit_bfs(3).get().cached) << "exact key repeats hit";
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_entries, 4u);
}

/// The number of fields of aggregate `T`: the largest N for which
/// `T{f1, ..., fN}` is well-formed with convert-to-anything initializers.
struct AnyField {
  template <typename T>
  operator T() const;  // declared only: used in unevaluated contexts
};
template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; })
    return field_count<T, Fields..., AnyField>();
  else
    return sizeof...(Fields);
}

/// One QueryOptions field moved off its default. The list names every
/// field but `cache` (the opt-out itself, covered above): a new field
/// fails the static_assert below until it gets a row here.
struct FieldMutation {
  const char* field;
  void (*apply)(QueryOptions&);
};
constexpr FieldMutation kFieldMutations[] = {
    {"strategy",
     [](QueryOptions& o) { o.strategy = AdvanceStrategy::kLoadBalanced; }},
    {"direction", [](QueryOptions& o) { o.direction = Direction::kOptimal; }},
    {"lb_node_edge_threshold",
     [](QueryOptions& o) { o.lb_node_edge_threshold = 0; }},
    {"pull_alpha", [](QueryOptions& o) { o.pull_alpha = 2.0; }},
    {"pull_beta", [](QueryOptions& o) { o.pull_beta = 4.0; }},
    {"idempotent", [](QueryOptions& o) { o.idempotent = false; }},
    {"record_predecessors",
     [](QueryOptions& o) { o.record_predecessors = false; }},
    {"use_priority_queue",
     [](QueryOptions& o) { o.use_priority_queue = false; }},
    {"delta", [](QueryOptions& o) { o.delta = 8; }},
    {"backend",
     [](QueryOptions& o) { o.backend.vec = simt::VecBackend::kScalar; }},
    {"damping", [](QueryOptions& o) { o.damping = 0.5; }},
    {"epsilon", [](QueryOptions& o) { o.epsilon = 1e-3; }},
    {"max_iterations", [](QueryOptions& o) { o.max_iterations = 5; }},
    {"iterations", [](QueryOptions& o) { o.iterations = 3; }},
    {"seed", [](QueryOptions& o) { o.seed = 7; }},
    {"cancel", [](QueryOptions& o) { o.cancel = CancelToken::make(); }},
};
static_assert(std::size(kFieldMutations) + 1 == field_count<QueryOptions>(),
              "every QueryOptions field needs a row in kFieldMutations");

TEST(ServerCache, KeyCoversEveryOptionThatChangesBytes) {
  // For each served kind and each option moved off its default, one at a
  // time: either the serving key changes (the query misses the default
  // query's cache entry), or a dedicated computation with the moved option
  // returns the default bytes. A consumed option missing from the key
  // would make the cache serve another configuration's bytes silently.
  // Every served result is also checked against a direct Engine query
  // with the same options, which does not go through the key at all.
  const Csr& g = serving_graph();
  ServerOptions so = cached_options();
  so.max_batch = 1;
  Server server(g, so);
  simt::Device dev;
  Engine direct(dev, g);
  constexpr VertexId kSource = 5;
  std::uint32_t keyed = 0;
  for (const QueryKind kind :
       {QueryKind::kBfs, QueryKind::kSssp, QueryKind::kReachability,
        QueryKind::kBcForward, QueryKind::kCc, QueryKind::kPagerank}) {
    QueryRequest def;
    def.kind = kind;
    def.source = kSource;
    const QueryResult base = server.submit(def).get();
    for (const FieldMutation& m : kFieldMutations) {
      const std::string ctx = std::string("kind ") +
                              std::to_string(static_cast<int>(kind)) + " " +
                              m.field;
      QueryRequest req = def;
      m.apply(req.opts);
      const QueryResult served = server.submit(req).get();
      expect_equal(served, oracle_result(direct, req), ctx + " vs Engine");
      if (!served.cached) {
        ++keyed;  // the key changed: the default entry was not served
        continue;
      }
      req.opts.cache = false;  // same key: recompute with the moved option
      expect_equal(server.submit(req).get(), base, ctx);
    }
  }
  // Sanity: the key does react to options (4 coalescable kinds x the 8
  // batched-traversal fields, plus PageRank's strategy/damping/epsilon/
  // max_iterations).
  EXPECT_EQ(keyed, 4u * 8u + 4u);
}

TEST(ServerCache, PerQueryOptOutNeverHitsNorPublishes) {
  ServerOptions so = cached_options();
  so.max_batch = 1;
  Server server(serving_graph(), so);
  QueryOptions nocache;
  nocache.cache = false;

  (void)server.submit_bfs(2, nocache).get();
  EXPECT_FALSE(server.submit_bfs(2, nocache).get().cached)
      << "opted-out results must not publish";
  // An entry published by an opted-in query is invisible to an opted-out
  // one too: opting out forces a dedicated enact, both directions.
  (void)server.submit_bfs(2).get();
  EXPECT_FALSE(server.submit_bfs(2, nocache).get().cached);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.enacts, 4u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 1u) << "only the opted-in query probes";
  EXPECT_EQ(s.cache_entries, 1u);
}

TEST(ServerCache, EpochPublishInvalidatesPriorEntries) {
  // A 0->1->2->3 chain; epoch 1 inserts the shortcut 0->3, so a stale
  // epoch-0 hit would be byte-detectable (depth[3]: 3 vs 1).
  const Csr chain(4, {0, 1, 2, 3, 3}, {1, 2, 3}, {1, 1, 1});
  DynamicGraph dyn(chain, DynamicGraphOptions{});
  ServerOptions so = cached_options();
  so.max_batch = 1;
  Server server(dyn, so);

  const QueryResult r0 = server.submit_bfs(0).get();
  EXPECT_EQ(r0.epoch, 0u);
  EXPECT_EQ(r0.depth[3], 3u);
  EXPECT_TRUE(server.submit_bfs(0).get().cached) << "hot at epoch 0";

  const std::vector<EdgeUpdate> shortcut{EdgeUpdate::insert_edge(0, 3, 1)};
  ASSERT_EQ(server.apply_updates(shortcut), 1u);
  const QueryResult r1 = server.submit_bfs(0).get();
  EXPECT_FALSE(r1.cached) << "prior-epoch entry must be unreachable";
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(r1.depth[3], 1u) << "the epoch-1 edge must be visible";
  EXPECT_TRUE(server.submit_bfs(0).get().cached) << "hot again at epoch 1";

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_GE(s.cache_evictions, 1u) << "the publish sweep frees old epochs";
  EXPECT_EQ(s.cache_entries, 1u);
}

TEST(ServerCoalescer, InBatchDuplicatesCollapseToOneLane) {
  // Cache OFF: the batch-build collapse alone must keep duplicate
  // (source, fuse-key) members out of extra lanes, with the demuxed
  // result fanned to every ticket byte-identically.
  const Csr& g = serving_graph();
  ServerOptions so;
  so.num_workers = 1;
  so.omp_threads_per_worker = 1;
  so.coalesce_window_us = 200000;  // one wide window catches the burst
  Server server(g, so);

  std::vector<QueryTicket> dups;
  for (int i = 0; i < 3; ++i) dups.push_back(server.submit_bfs(7));
  QueryTicket other = server.submit_bfs(9);

  simt::Device dev;
  Engine eng(dev, g);
  const QueryResult want7 = oracle_result(eng, {QueryKind::kBfs, 7, {}});
  const QueryResult want9 = oracle_result(eng, {QueryKind::kBfs, 9, {}});
  for (QueryTicket& t : dups) {
    const QueryResult r = t.get();
    EXPECT_EQ(r.batch_lanes, 2u) << "duplicates must share one lane";
    EXPECT_FALSE(r.cached);
    expect_equal(r, want7, "duplicate member");
  }
  expect_equal(other.get(), want9, "distinct member");

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.enacts, 1u);
  EXPECT_EQ(s.max_lanes, 2u) << "4 members, 2 lanes";
  EXPECT_EQ(s.dedup_attached, 2u);
  EXPECT_EQ(s.queries_served, 4u);
}

TEST(ServerCache, SingleflightAttachedCancelLeavesOthersServed) {
  // Wedge the owner's enact with a stall, attach two duplicates to its
  // in-flight key, cancel ONE of them: the cancel must resolve alone,
  // the other waiter and the owner still get the value.
  ServerOptions so = cached_options(2);
  so.coalesce_window_us = 0;  // drain-only batches
  auto plan = std::make_shared<FaultPlan>();
  plan->script = {{FaultKind::kStall, 0, 400000}};
  so.faults = plan;
  Server server(serving_graph(), so);

  QueryTicket owner = server.submit_bfs(11);
  wait_for_enacts(server, 1);  // key registered, worker 1 wedged mid-enact

  QueryRequest dup{QueryKind::kBfs, 11, {}};
  dup.cancel = CancelToken::make();
  QueryTicket attached_cancel = server.submit(dup);
  QueryTicket attached_live = server.submit_bfs(11);

  // Worker 2 parks both on the wedged key; observe it, then cancel one.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().dedup_attached < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "duplicates never attached to the in-flight key";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dup.cancel.cancel();

  const QueryResult ro = owner.get();
  EXPECT_FALSE(ro.cached);
  ASSERT_TRUE(attached_cancel.wait_for(std::chrono::seconds(5)));
  EXPECT_EQ(attached_cancel.outcome(), QueryOutcome::kCancelled);
  EXPECT_THROW(attached_cancel.get(), CancelledError);
  const QueryResult rl = attached_live.get();
  EXPECT_TRUE(rl.cached);
  EXPECT_EQ(rl.batch_lanes, 0u);
  EXPECT_EQ(rl.depth, ro.depth) << "fan-out bytes == owner bytes";

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.queries_served, 2u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.dedup_attached, 2u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.queries_submitted,
            s.queries_served + s.cancelled);  // identity, no other terms
}

}  // namespace
}  // namespace grx
