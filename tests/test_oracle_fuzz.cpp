// Cross-primitive oracle/fuzz harness: seeded randomized graphs across the
// topology classes plus deliberately degenerate shapes (disconnected
// pieces, self-loops, duplicate parallel edges, zero-degree vertices, a
// single-vertex graph), with single-query AND batched BFS/SSSP checked
// cell-for-cell against the serial baselines (src/baselines/serial) —
// every lane of every batch. The engines under test share no code with
// the oracles, so any disagreement localizes a real traversal bug.
//
// Everything is seed-stable (util/rng.hpp): a failure reproduces
// bit-for-bit from the case name printed by the assertion message.
#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/server.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace grx {
namespace {

struct FuzzCase {
  std::string name;
  Csr g;
  bool symmetric = false;  ///< pull / direction-optimal traversal legal
};

/// Uniform random weights on the edge list (not the CSR), so degenerate
/// builds that keep parallel edges give each copy its own weight.
EdgeList weighted(EdgeList el, Rng& rng) {
  for (Edge& e : el.edges)
    e.weight = static_cast<Weight>(rng.next_in(1, 64));
  return el;
}

/// Random graph with forced self-loops, duplicate parallel edges (kept:
/// dedup off), and a tail of zero-degree vertices; built directed so the
/// exact hostile shape reaches the engines unnormalized.
FuzzCase degenerate_case(std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 13);
  EdgeList el;
  const VertexId core = 240;
  el.num_vertices = core + 24;  // 24 trailing zero-degree vertices
  for (std::uint32_t i = 0; i < 700; ++i)
    el.edges.push_back(Edge{static_cast<VertexId>(rng.next_below(core)),
                            static_cast<VertexId>(rng.next_below(core)), 1});
  for (std::uint32_t i = 0; i < 24; ++i)  // self-loops (never improve)
    el.edges.push_back(
        Edge{static_cast<VertexId>(rng.next_below(core)),
             static_cast<VertexId>(rng.next_below(core)), 1});
  for (std::uint32_t i = 0; i < 24; ++i) {
    const VertexId v = static_cast<VertexId>(rng.next_below(core));
    el.edges.push_back(Edge{v, v, 1});
  }
  // Duplicate a slice of edges verbatim; weights assigned afterwards so
  // the copies become *parallel edges of different weights*.
  for (std::uint32_t i = 0; i < 60; ++i) el.edges.push_back(el.edges[i]);
  el = weighted(std::move(el), rng);
  BuildOptions bo;
  bo.remove_self_loops = false;
  bo.dedup = false;
  return {"degenerate/" + std::to_string(seed), build_csr(el, bo), false};
}

FuzzCase disconnected_case(std::uint64_t seed) {
  Rng rng(seed ^ 0xd15c0u);
  // Sparse Erdos-Renyi: many components and isolated vertices. Symmetrized
  // so the batch pull path can run on it too.
  EdgeList el = weighted(erdos_renyi(700, 420, seed), rng);
  BuildOptions bo;
  bo.symmetrize = true;
  return {"disconnected/" + std::to_string(seed), build_csr(el, bo), true};
}

FuzzCase power_law_case(std::uint64_t seed) {
  Rng rng(seed ^ 0x9e37u);
  EdgeList el = weighted(rmat(8, 8, seed), rng);
  BuildOptions bo;
  bo.symmetrize = true;
  return {"power-law/" + std::to_string(seed), build_csr(el, bo), true};
}

FuzzCase grid_case(std::uint64_t seed) {
  Rng rng(seed ^ 0x6216du);
  EdgeList el = weighted(road_grid(24, 18, 0.25, 0.02, seed), rng);
  BuildOptions bo;
  bo.symmetrize = true;
  return {"grid/" + std::to_string(seed), build_csr(el, bo), true};
}

FuzzCase single_vertex_case() {
  EdgeList el;
  el.num_vertices = 1;
  return {"single-vertex", build_csr(el, BuildOptions{}), true};
}

std::vector<FuzzCase> fuzz_cases(std::uint64_t seed) {
  std::vector<FuzzCase> cases;
  cases.push_back(power_law_case(seed));
  cases.push_back(grid_case(seed));
  cases.push_back(disconnected_case(seed));
  cases.push_back(degenerate_case(seed));
  if (seed == 1) cases.push_back(single_vertex_case());
  return cases;
}

constexpr std::uint64_t kSeeds[] = {1, 7, 23};

/// Sources scattered over the graph, with a duplicate pair and (when the
/// graph is big enough) a likely-isolated / fringe vertex included.
std::vector<VertexId> fuzz_sources(const Csr& g, std::uint32_t count) {
  std::vector<VertexId> src = grx::scattered_sources(
      g.num_vertices(), std::min<std::uint32_t>(count, g.num_vertices()));
  if (src.size() >= 2) {
    src[src.size() - 1] = src[0];              // duplicate source
    src[src.size() / 2] = g.num_vertices() - 1;  // fringe (often degree 0)
  }
  return src;
}

// --- single-query sweeps -----------------------------------------------------

TEST(OracleFuzz, SingleQueryBfsMatchesSerial) {
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      simt::Device dev;
      for (const VertexId s : fuzz_sources(c.g, 4)) {
        const auto oracle = serial::bfs(c.g, s);
        QueryOptions opts;
        opts.record_predecessors = false;
        const BfsResult push = Engine(dev, c.g).bfs(s, opts);
        ASSERT_EQ(push.depth, oracle) << c.name << " src " << s << " push";
        if (c.symmetric) {
          opts.direction = Direction::kOptimal;
          opts.idempotent = true;
          const BfsResult opt = Engine(dev, c.g).bfs(s, opts);
          ASSERT_EQ(opt.depth, oracle) << c.name << " src " << s << " opt";
        }
      }
    }
  }
}

TEST(OracleFuzz, SingleQuerySsspMatchesDijkstra) {
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      simt::Device dev;
      for (const VertexId s : fuzz_sources(c.g, 3)) {
        const auto oracle = serial::dijkstra(c.g, s);
        // Auto-delta, forced near/far, and plain Bellman-Ford frontier
        // must all land on the oracle distances.
        QueryOptions auto_pq;
        QueryOptions forced;
        forced.delta = 16;
        QueryOptions off;
        off.use_priority_queue = false;
        for (const QueryOptions& o : {auto_pq, forced, off}) {
          const SsspResult r = Engine(dev, c.g).sssp(s, o);
          ASSERT_EQ(r.dist, oracle)
              << c.name << " src " << s << " delta " << o.delta
              << (o.use_priority_queue ? " pq" : " plain");
        }
      }
    }
  }
}

TEST(OracleFuzz, SerialBaselinesAgreeWithEachOther) {
  // Oracle sanity: Dijkstra vs Bellman-Ford on the hostile shapes. If the
  // oracles themselves disagreed, every assertion above would be suspect.
  for (const std::uint64_t seed : kSeeds) {
    const FuzzCase c = degenerate_case(seed);
    for (const VertexId s : fuzz_sources(c.g, 2))
      ASSERT_EQ(serial::dijkstra(c.g, s), serial::bellman_ford(c.g, s))
          << c.name << " src " << s;
  }
}

// --- batched sweeps ----------------------------------------------------------

TEST(OracleFuzz, BatchedBfsMatchesSerialEveryLane) {
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      const auto sources = fuzz_sources(c.g, 9);
      simt::Device dev;
      std::vector<BatchBfsResult> runs;
      // Backend axis: the auto-resolved vector path and the forced-scalar
      // reference must both land on the oracle (and hence on each other).
      for (const simt::VecBackend vb :
           {simt::VecBackend::kAuto, simt::VecBackend::kScalar}) {
        QueryOptions bopts;
        bopts.backend.vec = vb;
        runs.push_back(Engine(dev, c.g).batch_bfs(sources, bopts));  // push
        if (c.symmetric) {
          bopts.direction = Direction::kOptimal;
          runs.push_back(Engine(dev, c.g).batch_bfs(sources, bopts));
        }
      }
      for (std::uint32_t q = 0; q < sources.size(); ++q) {
        const auto oracle = serial::bfs(c.g, sources[q]);
        for (const BatchBfsResult& run : runs)
          for (VertexId v = 0; v < c.g.num_vertices(); ++v)
            ASSERT_EQ(run.depth_at(v, q), oracle[v])
                << c.name << " lane " << q << " vertex " << v;
      }
    }
  }
}

TEST(OracleFuzz, BatchedSsspMatchesDijkstraEveryLane) {
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      const auto sources = fuzz_sources(c.g, 9);
      simt::Device dev;
      QueryOptions auto_pq;           // auto sizing (off on tiny graphs)
      QueryOptions forced;            // per-lane schedule exercised
      forced.delta = 16;
      QueryOptions off;               // Bellman-Ford baseline path
      off.use_priority_queue = false;
      // Scalar-forced near/far arm: the vector and reference lane kernels
      // sweep the same hostile shapes.
      QueryOptions forced_scalar = forced;
      forced_scalar.backend.vec = simt::VecBackend::kScalar;
      for (const QueryOptions& o : {auto_pq, forced, off, forced_scalar}) {
        const BatchSsspResult run = Engine(dev, c.g).batch_sssp(sources, o);
        for (std::uint32_t q = 0; q < sources.size(); ++q) {
          const auto oracle = serial::dijkstra(c.g, sources[q]);
          for (VertexId v = 0; v < c.g.num_vertices(); ++v)
            ASSERT_EQ(run.dist_at(v, q), oracle[v])
                << c.name << " lane " << q << " vertex " << v << " delta "
                << run.delta << " backend " << to_string(run.backend);
        }
      }
    }
  }
}

// --- concurrent serving sweep ------------------------------------------------

TEST(OracleFuzz, ConcurrentServerMatchesSerialOracles) {
  // A random BFS/SSSP mix submitted from 4 client threads to a grx::Server
  // over every fuzz topology — coalescer on, so hostile shapes (self-loops,
  // parallel edges of distinct weights, zero-degree fringes, disconnected
  // pieces) flow through queue, lane fusion, and demux under real thread
  // interleaving. Every served vector must equal the serial baselines,
  // exactly as in the single-threaded sweeps above. Seed-stable: clients
  // draw their query streams from per-thread seeded Rngs.
  const std::uint64_t seed = 11;
  for (const FuzzCase& c : fuzz_cases(seed)) {
    ServerOptions so;
    so.num_workers = 2;
    so.coalesce_window_us = 500;
    Server server(c.g, so);

    constexpr std::uint32_t kThreads = 4, kPerThread = 4;
    struct Issued {
      QueryRequest req;
      QueryTicket ticket;
    };
    std::vector<std::vector<Issued>> issued(kThreads);
    std::vector<std::thread> clients;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(seed * 131 + t);
        for (std::uint32_t i = 0; i < kPerThread; ++i) {
          QueryRequest req;
          req.kind = rng.next_below(2) ? QueryKind::kSssp : QueryKind::kBfs;
          req.source =
              static_cast<VertexId>(rng.next_below(c.g.num_vertices()));
          issued[t].push_back({req, server.submit(req)});
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (std::uint32_t t = 0; t < kThreads; ++t)
      for (Issued& q : issued[t]) {
        const QueryResult r = q.ticket.get();
        if (q.req.kind == QueryKind::kBfs)
          ASSERT_EQ(r.depth, serial::bfs(c.g, q.req.source))
              << c.name << " client " << t << " src " << q.req.source;
        else
          ASSERT_EQ(r.dist, serial::dijkstra(c.g, q.req.source))
              << c.name << " client " << t << " src " << q.req.source;
      }
  }
}

TEST(OracleFuzz, FaultSweepEveryTicketResolvesAndSurvivorsStayExact) {
  // The robustness closure of the sweep above: a seeded random FaultPlan
  // (allocation failures, foreign throws, stalls, forced cancels, worker
  // crashes) runs against every hostile topology while clients mix tight
  // deadlines and mid-flight cancellations into the stream. Invariants,
  // regardless of which faults land where:
  //   1. liveness — every ticket resolves (value or typed QueryError);
  //   2. exactness — every SURVIVING query byte-matches the serial
  //      oracles (a fault may kill a query, never corrupt another);
  //   3. accounting — submitted == served + shed + cancelled
  //      + deadline_exceeded + worker_failures after the drain.
  // CI runs this under ASan and TSan: the failure paths must also be
  // leak- and race-free.
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      auto plan = std::make_shared<FaultPlan>();
      plan->seed = seed * 1000003u;
      plan->p_alloc = 0.08;
      plan->p_throw = 0.08;
      plan->p_stall = 0.10;
      plan->p_cancel = 0.12;
      plan->p_crash = 0.08;
      plan->stall_us = 500;
      ServerOptions so;
      so.num_workers = 2;
      so.coalesce_window_us = 200;
      so.max_queue = 8;
      so.admission = AdmissionPolicy::kBlock;  // back-pressure, no rejects
      so.faults = plan;
      Server server(c.g, so);

      constexpr std::uint32_t kThreads = 3, kPerThread = 6;
      struct Issued {
        QueryRequest req;
        QueryTicket ticket;
        CancelToken handle;
      };
      std::vector<std::vector<Issued>> issued(kThreads);
      std::vector<std::thread> clients;
      for (std::uint32_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
          Rng rng(seed * 977 + t);
          for (std::uint32_t i = 0; i < kPerThread; ++i) {
            QueryRequest req;
            const std::uint64_t k = rng.next_below(3);
            req.kind = k == 0   ? QueryKind::kBfs
                       : k == 1 ? QueryKind::kSssp
                                : QueryKind::kReachability;
            req.source =
                static_cast<VertexId>(rng.next_below(c.g.num_vertices()));
            if (rng.next_below(4) == 0) req.deadline_us = 2000;  // tight
            CancelToken handle;
            if (rng.next_below(4) == 0) {
              handle = CancelToken::make();
              req.cancel = handle;
            }
            Issued q{req, server.submit(req), handle};
            // Half the client tokens trip right after submission, racing
            // admission, the coalesce window, and the enact itself.
            if (q.handle.valid() && rng.next_bool(0.5)) q.handle.cancel();
            issued[t].push_back(std::move(q));
          }
        });
      }
      for (std::thread& th : clients) th.join();

      for (std::uint32_t t = 0; t < kThreads; ++t)
        for (Issued& q : issued[t]) {
          ASSERT_TRUE(q.ticket.wait_for(std::chrono::seconds(30)))
              << c.name << " ticket never resolved";
          try {
            const QueryResult r = q.ticket.get();
            const auto depth = serial::bfs(c.g, q.req.source);
            if (q.req.kind == QueryKind::kBfs) {
              ASSERT_EQ(r.depth, depth)
                  << c.name << " survivor bfs src " << q.req.source;
            } else if (q.req.kind == QueryKind::kSssp) {
              ASSERT_EQ(r.dist, serial::dijkstra(c.g, q.req.source))
                  << c.name << " survivor sssp src " << q.req.source;
            } else {
              ASSERT_EQ(r.reachable.size(), depth.size());
              for (VertexId v = 0; v < c.g.num_vertices(); ++v)
                ASSERT_EQ(r.reachable[v] != 0, depth[v] != kInfinity)
                    << c.name << " survivor reach src " << q.req.source
                    << " v " << v;
            }
          } catch (const QueryError&) {
            // Cancelled / DeadlineExceeded / WorkerFailed: typed, expected.
          }
        }

      server.stop();
      const ServerStats s = server.stats();
      EXPECT_EQ(s.queries_submitted, kThreads * kPerThread) << c.name;
      EXPECT_EQ(s.queries_submitted,
                s.queries_served + s.shed + s.cancelled + s.deadline_exceeded +
                    s.worker_failures)
          << c.name << " accounting identity broken";
    }
  }
}

TEST(OracleFuzz, ConcurrentMutationEveryEpochMatchesItsOracle) {
  // The streaming-graph closure of the serving sweep: a seeded writer
  // thread pushes random insert/delete batches through Server::
  // apply_updates while 4 client threads fire a BFS/SSSP/reachability mix
  // at the same server, over every hostile topology. The writer also
  // replays each batch into an independent edge-map model and records the
  // from-scratch CSR for every epoch it publishes. Invariants:
  //   1. liveness — every ticket resolves (no faults: with a value);
  //   2. per-epoch exactness — each result byte-matches the serial oracle
  //      evaluated on the recorded graph for the epoch the query PINNED
  //      (r.epoch), not the newest one — a query racing the writer is
  //      exact for its snapshot or it is wrong;
  //   3. reclamation — after stop() + collect(), exactly the head snapshot
  //      is live and every other generation was freed (leak counter); no
  //      snapshot was reclaimed while pinned (ASan/TSan would flag the
  //      dangling read in CI, where this test runs under both).
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      if (c.g.num_vertices() < 2) continue;  // nothing to mutate
      DynamicGraphOptions dopt;
      dopt.symmetric = c.symmetric;
      dopt.compact_every = 3;  // compactions land mid-stream
      DynamicGraph dyn(c.g, dopt);

      ServerOptions so;
      so.num_workers = 2;
      so.coalesce_window_us = 300;
      Server server(dyn, so);

      constexpr Epoch kBatches = 12;
      constexpr std::uint32_t kThreads = 4, kPerThread = 6;

      // Per-epoch oracle graphs, filled by the writer as it publishes.
      // Clients only carry epochs out via tickets; verification reads this
      // after every thread has joined.
      std::vector<Csr> epoch_graphs(kBatches + 1);
      {
        SnapshotView v0 = dyn.snapshot();
        epoch_graphs[0] = v0.csr();
      }

      std::thread writer([&] {
        // Independent replay model: (src, dst) -> weight, mirroring the
        // DynamicGraph update semantics (upsert / delete / optional
        // symmetric mirroring) on top of the canonical epoch-0 snapshot.
        std::map<std::pair<VertexId, VertexId>, Weight> adj;
        const Csr& g0 = epoch_graphs[0];
        for (VertexId v = 0; v < g0.num_vertices(); ++v)
          for (EdgeId e = g0.row_start(v); e < g0.row_end(v); ++e)
            adj[{v, g0.col_index(e)}] = g0.weight(e);
        const auto apply_dir = [&](VertexId s, VertexId d, Weight w,
                                   bool ins) {
          if (ins)
            adj[{s, d}] = w;
          else
            adj.erase({s, d});
        };

        Rng rng(seed * 6151 + 2016);
        const VertexId n = c.g.num_vertices();
        for (Epoch k = 1; k <= kBatches; ++k) {
          std::vector<EdgeUpdate> batch;
          for (std::uint32_t i = 0; i < 12; ++i) {
            if (rng.next_bool(0.55) || adj.empty()) {
              batch.push_back(EdgeUpdate::insert_edge(
                  static_cast<VertexId>(rng.next_below(n)),
                  static_cast<VertexId>(rng.next_below(n)),
                  static_cast<Weight>(rng.next_in(1, 64))));
            } else {
              auto it = adj.begin();
              std::advance(it,
                           static_cast<long>(rng.next_below(adj.size())));
              batch.push_back(
                  EdgeUpdate::remove_edge(it->first.first, it->first.second));
            }
          }
          ASSERT_EQ(server.apply_updates(batch), k) << c.name;
          for (const EdgeUpdate& u : batch) {
            apply_dir(u.src, u.dst, u.weight, u.insert);
            if (dopt.symmetric && u.src != u.dst)
              apply_dir(u.dst, u.src, u.weight, u.insert);
          }
          // Record this epoch's from-scratch CSR (map order == CSR order).
          std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
          std::vector<VertexId> cols;
          std::vector<Weight> weights;
          for (const auto& [edge, w] : adj) {
            offsets[edge.first + 1]++;
            cols.push_back(edge.second);
            weights.push_back(w);
          }
          for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
          epoch_graphs[k] =
              Csr(n, std::move(offsets), std::move(cols), std::move(weights));
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      });

      struct Issued {
        QueryRequest req;
        QueryTicket ticket;
      };
      std::vector<std::vector<Issued>> issued(kThreads);
      std::vector<std::thread> clients;
      for (std::uint32_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
          Rng rng(seed * 443 + t);
          for (std::uint32_t i = 0; i < kPerThread; ++i) {
            QueryRequest req;
            const std::uint64_t k = rng.next_below(3);
            req.kind = k == 0   ? QueryKind::kBfs
                       : k == 1 ? QueryKind::kSssp
                                : QueryKind::kReachability;
            req.source =
                static_cast<VertexId>(rng.next_below(c.g.num_vertices()));
            issued[t].push_back({req, server.submit(req)});
            std::this_thread::sleep_for(std::chrono::microseconds(150));
          }
        });
      }
      for (std::thread& th : clients) th.join();
      writer.join();

      for (std::uint32_t t = 0; t < kThreads; ++t)
        for (Issued& q : issued[t]) {
          ASSERT_TRUE(q.ticket.wait_for(std::chrono::seconds(30)))
              << c.name << " ticket never resolved";
          const QueryResult r = q.ticket.get();
          ASSERT_LE(r.epoch, kBatches) << c.name;
          const Csr& at_epoch = epoch_graphs[r.epoch];
          const auto depth = serial::bfs(at_epoch, q.req.source);
          if (q.req.kind == QueryKind::kBfs) {
            ASSERT_EQ(r.depth, depth) << c.name << " epoch " << r.epoch
                                      << " src " << q.req.source;
          } else if (q.req.kind == QueryKind::kSssp) {
            ASSERT_EQ(r.dist, serial::dijkstra(at_epoch, q.req.source))
                << c.name << " epoch " << r.epoch << " src " << q.req.source;
          } else {
            ASSERT_EQ(r.reachable.size(), depth.size()) << c.name;
            for (VertexId v = 0; v < at_epoch.num_vertices(); ++v)
              ASSERT_EQ(r.reachable[v] != 0, depth[v] != kInfinity)
                  << c.name << " epoch " << r.epoch << " src "
                  << q.req.source << " v " << v;
          }
        }

      server.stop();
      const ServerStats s = server.stats();
      EXPECT_EQ(s.queries_submitted, kThreads * kPerThread) << c.name;
      EXPECT_EQ(s.queries_submitted, s.queries_served)
          << c.name << " a faultless run must serve everything";
      EXPECT_EQ(s.update_batches, kBatches) << c.name;
      EXPECT_EQ(s.graph_epoch, kBatches) << c.name;

      // Leak/teardown counters: with all pins released, one collect leaves
      // exactly the head snapshot alive.
      dyn.collect();
      const DynamicGraphStats d = dyn.stats();
      EXPECT_EQ(d.snapshots_created, kBatches + 1) << c.name;
      EXPECT_EQ(d.live_snapshots, 1u) << c.name;
      EXPECT_EQ(d.snapshots_freed, d.snapshots_created - 1) << c.name;
    }
  }
}

TEST(OracleFuzz, ConcurrentMutationWithCacheEveryEpochMatchesItsOracle) {
  // The result-cache closure of the mutation sweep: the same writer /
  // client shape as above, but the server's epoch-keyed cache is ON and
  // every client draws its sources from a 4-entry hot pool, so
  // submit-side hits, dequeue-side hits, and singleflight attaches all
  // fire while the graph mutates underneath. The contract is unchanged
  // and absolute: EVERY result — hit, attached, or owner-computed —
  // byte-matches the serial oracle on the graph of the epoch it reports
  // (the key carries the epoch, so a cache can never serve stale bytes;
  // the apply_updates sweep merely frees the unreachable entries).
  // Classification is also total: a faultless cache-on run resolves each
  // query as exactly one of hit / dedup-attached / miss-owner.
  for (const std::uint64_t seed : kSeeds) {
    for (const FuzzCase& c : fuzz_cases(seed)) {
      if (c.g.num_vertices() < 2) continue;
      DynamicGraphOptions dopt;
      dopt.symmetric = c.symmetric;
      dopt.compact_every = 3;
      DynamicGraph dyn(c.g, dopt);

      ServerOptions so;
      so.num_workers = 2;
      so.coalesce_window_us = 300;
      so.cache.enabled = true;
      Server server(dyn, so);

      constexpr Epoch kBatches = 12;
      constexpr std::uint32_t kThreads = 4, kPerThread = 6;

      std::vector<Csr> epoch_graphs(kBatches + 1);
      {
        SnapshotView v0 = dyn.snapshot();
        epoch_graphs[0] = v0.csr();
      }

      // The hot-source pool every client draws from: small enough that
      // duplicate keys collide across threads and epochs by design.
      std::vector<VertexId> pool;
      {
        Rng prng(seed ^ 0xcac4eu);
        for (int i = 0; i < 4; ++i)
          pool.push_back(
              static_cast<VertexId>(prng.next_below(c.g.num_vertices())));
      }

      std::thread writer([&] {
        std::map<std::pair<VertexId, VertexId>, Weight> adj;
        const Csr& g0 = epoch_graphs[0];
        for (VertexId v = 0; v < g0.num_vertices(); ++v)
          for (EdgeId e = g0.row_start(v); e < g0.row_end(v); ++e)
            adj[{v, g0.col_index(e)}] = g0.weight(e);
        const auto apply_dir = [&](VertexId s, VertexId d, Weight w,
                                   bool ins) {
          if (ins)
            adj[{s, d}] = w;
          else
            adj.erase({s, d});
        };

        Rng rng(seed * 7573 + 2024);
        const VertexId n = c.g.num_vertices();
        for (Epoch k = 1; k <= kBatches; ++k) {
          std::vector<EdgeUpdate> batch;
          for (std::uint32_t i = 0; i < 12; ++i) {
            if (rng.next_bool(0.55) || adj.empty()) {
              batch.push_back(EdgeUpdate::insert_edge(
                  static_cast<VertexId>(rng.next_below(n)),
                  static_cast<VertexId>(rng.next_below(n)),
                  static_cast<Weight>(rng.next_in(1, 64))));
            } else {
              auto it = adj.begin();
              std::advance(it,
                           static_cast<long>(rng.next_below(adj.size())));
              batch.push_back(
                  EdgeUpdate::remove_edge(it->first.first, it->first.second));
            }
          }
          ASSERT_EQ(server.apply_updates(batch), k) << c.name;
          for (const EdgeUpdate& u : batch) {
            apply_dir(u.src, u.dst, u.weight, u.insert);
            if (dopt.symmetric && u.src != u.dst)
              apply_dir(u.dst, u.src, u.weight, u.insert);
          }
          std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
          std::vector<VertexId> cols;
          std::vector<Weight> weights;
          for (const auto& [edge, w] : adj) {
            offsets[edge.first + 1]++;
            cols.push_back(edge.second);
            weights.push_back(w);
          }
          for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
          epoch_graphs[k] =
              Csr(n, std::move(offsets), std::move(cols), std::move(weights));
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      });

      struct Issued {
        QueryRequest req;
        QueryTicket ticket;
      };
      std::vector<std::vector<Issued>> issued(kThreads);
      std::vector<std::thread> clients;
      for (std::uint32_t t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
          Rng rng(seed * 911 + t);
          for (std::uint32_t i = 0; i < kPerThread; ++i) {
            QueryRequest req;
            const std::uint64_t k = rng.next_below(3);
            req.kind = k == 0   ? QueryKind::kBfs
                       : k == 1 ? QueryKind::kSssp
                                : QueryKind::kReachability;
            req.source = pool[rng.next_below(pool.size())];
            issued[t].push_back({req, server.submit(req)});
            std::this_thread::sleep_for(std::chrono::microseconds(150));
          }
        });
      }
      for (std::thread& th : clients) th.join();
      writer.join();

      for (std::uint32_t t = 0; t < kThreads; ++t)
        for (Issued& q : issued[t]) {
          ASSERT_TRUE(q.ticket.wait_for(std::chrono::seconds(30)))
              << c.name << " ticket never resolved";
          const QueryResult r = q.ticket.get();
          ASSERT_LE(r.epoch, kBatches) << c.name;
          const Csr& at_epoch = epoch_graphs[r.epoch];
          const auto depth = serial::bfs(at_epoch, q.req.source);
          if (q.req.kind == QueryKind::kBfs) {
            ASSERT_EQ(r.depth, depth)
                << c.name << " epoch " << r.epoch << " src " << q.req.source
                << (r.cached ? " (cached)" : "");
          } else if (q.req.kind == QueryKind::kSssp) {
            ASSERT_EQ(r.dist, serial::dijkstra(at_epoch, q.req.source))
                << c.name << " epoch " << r.epoch << " src " << q.req.source
                << (r.cached ? " (cached)" : "");
          } else {
            ASSERT_EQ(r.reachable.size(), depth.size()) << c.name;
            for (VertexId v = 0; v < at_epoch.num_vertices(); ++v)
              ASSERT_EQ(r.reachable[v] != 0, depth[v] != kInfinity)
                  << c.name << " epoch " << r.epoch << " src "
                  << q.req.source << " v " << v;
          }
        }

      server.stop();
      const ServerStats s = server.stats();
      EXPECT_EQ(s.queries_submitted, kThreads * kPerThread) << c.name;
      EXPECT_EQ(s.queries_submitted, s.queries_served)
          << c.name << " a faultless run must serve everything";
      EXPECT_EQ(s.cache_hits + s.dedup_attached + s.cache_misses,
                s.queries_submitted)
          << c.name << " every query is classified exactly once";
      EXPECT_LE(s.cache_hits, s.queries_served) << c.name;
      EXPECT_EQ(s.update_batches, kBatches) << c.name;
      EXPECT_EQ(s.graph_epoch, kBatches) << c.name;

      // Reclamation is unchanged by the cache: published entries are
      // value snapshots, never pins, so one collect still leaves exactly
      // the head snapshot alive.
      dyn.collect();
      const DynamicGraphStats d = dyn.stats();
      EXPECT_EQ(d.live_snapshots, 1u) << c.name;
      EXPECT_EQ(d.snapshots_freed, d.snapshots_created - 1) << c.name;
    }
  }
}

TEST(OracleFuzz, MultiWordBatchMatchesSerialEveryLane) {
  // B > 64 exercises multi-word lane masks through the full stack: packed
  // frontier, claim+split, far bank, and wake all handle words_per_vertex
  // == 2 with the schedule forced on.
  const FuzzCase c = power_law_case(5);
  const auto sources = fuzz_sources(c.g, 67);
  simt::Device dev;
  QueryOptions forced;
  forced.delta = 12;
  const BatchSsspResult sssp = Engine(dev, c.g).batch_sssp(sources, forced);
  ASSERT_EQ(sssp.delta, 12u);
  ASSERT_EQ(sssp.lane_stats.size(), sources.size());
  const BatchBfsResult bfs = Engine(dev, c.g).batch_bfs(sources);
  // Multi-word backend parity: the forced-scalar run must be byte-equal —
  // distances, per-lane schedule stats, and probe-fed edge counts alike.
  QueryOptions forced_scalar = forced;
  forced_scalar.backend.vec = simt::VecBackend::kScalar;
  const BatchSsspResult sc =
      Engine(dev, c.g).batch_sssp(sources, forced_scalar);
  EXPECT_EQ(sc.dist, sssp.dist);
  EXPECT_EQ(sc.lane_stats, sssp.lane_stats);
  EXPECT_EQ(sc.summary.edges_processed, sssp.summary.edges_processed);
  for (std::uint32_t q = 0; q < sources.size(); ++q) {
    const auto dij = serial::dijkstra(c.g, sources[q]);
    const auto lvl = serial::bfs(c.g, sources[q]);
    for (VertexId v = 0; v < c.g.num_vertices(); ++v) {
      ASSERT_EQ(sssp.dist_at(v, q), dij[v]) << "lane " << q << " v " << v;
      ASSERT_EQ(bfs.depth_at(v, q), lvl[v]) << "lane " << q << " v " << v;
    }
  }
}

}  // namespace
}  // namespace grx
