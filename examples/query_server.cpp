// Query server: concurrent clients served by grx::Server.
//
//   $ ./query_server [--scale=12] [--clients=16] [--queries=16]
//                    [--workers=0] [--window-us=200]
//
// The ROADMAP north star is a system serving traversal queries from many
// concurrent users over one shared graph. This demo is that system in
// miniature: C client threads each fire a stream of mixed queries (BFS
// "degrees of separation", SSSP "cheapest route", reachability "can I get
// there at all") at one grx::Server and block on each ticket — the
// closed-loop shape of a real request handler. Inside the server, a
// worker pool of private Engines drains the submission queue, and the
// adaptive coalescer fuses same-primitive queries that arrive together
// into single lane-matrix enacts (up to 64 queries per edge scan),
// demuxing each lane back to its ticket.
//
// The same workload is then replayed with the coalescer off: identical
// results (byte-for-byte — coalescing is a throughput lever, not a
// semantic), very different throughput. See bench/bench_server.cpp for
// the measured QPS/latency envelope and docs/api.md for the contract.
#include <cstdio>
#include <thread>
#include <vector>

#include "api/server.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  const Cli cli(argc, argv);
  const auto scale = static_cast<std::uint32_t>(cli.get_int("scale", 12));
  const auto clients = static_cast<std::uint32_t>(cli.get_int("clients", 16));
  const auto queries = static_cast<std::uint32_t>(cli.get_int("queries", 16));
  const auto workers = static_cast<std::uint32_t>(cli.get_int("workers", 0));
  const auto window_us =
      static_cast<std::uint32_t>(cli.get_int("window-us", 200));

  // The shared "social graph" all users query.
  BuildOptions bo;
  bo.symmetrize = true;
  const Csr g =
      with_random_weights(build_csr(rmat(scale, 16, 2016), bo), /*seed=*/7);
  std::printf("shared graph: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));
  std::printf("%u client threads x %u queries each, mixed BFS/SSSP/"
              "reachability\n\n",
              clients, queries);

  // One client thread's life: pick a random query kind and source, submit,
  // block on the ticket, tally a checksum so the work is observably real.
  const auto client_loop = [&](Server& server, std::uint32_t id,
                               std::uint64_t& checksum) {
    Rng rng(42 + id);
    std::uint64_t sum = 0;
    for (std::uint32_t q = 0; q < queries; ++q) {
      const auto src = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      QueryRequest req;
      req.source = src;
      switch (rng.next_below(3)) {
        case 0: req.kind = QueryKind::kBfs; break;
        case 1: req.kind = QueryKind::kSssp; break;
        default: req.kind = QueryKind::kReachability; break;
      }
      const QueryResult r = server.submit(req).get();
      switch (req.kind) {
        case QueryKind::kBfs:
          for (std::uint32_t d : r.depth) sum += d != kInfinity ? d : 0;
          break;
        case QueryKind::kSssp:
          for (std::uint32_t d : r.dist) sum += d != kInfinity ? d : 0;
          break;
        default:
          for (std::uint8_t f : r.reachable) sum += f;
          break;
      }
    }
    checksum = sum;
  };

  const auto serve = [&](const char* label, std::uint32_t max_batch) {
    ServerOptions so;
    so.num_workers = workers;
    so.max_batch = max_batch;
    so.coalesce_window_us = window_us;
    Server server(g, so);
    std::vector<std::uint64_t> checksums(clients, 0);
    std::vector<std::thread> pool;
    Timer wall;
    for (std::uint32_t c = 0; c < clients; ++c)
      pool.emplace_back(
          [&, c] { client_loop(server, c, checksums[c]); });
    for (std::thread& t : pool) t.join();
    const double ms = wall.elapsed_ms();
    server.stop();
    const ServerStats stats = server.stats();
    std::uint64_t checksum = 0;
    for (std::uint64_t c : checksums) checksum ^= c;

    const auto total = static_cast<double>(stats.queries_served);
    std::printf("%s\n", label);
    std::printf("  %llu queries in %.1f ms  (%.0f queries/sec, %u workers)\n",
                static_cast<unsigned long long>(stats.queries_served), ms,
                total / (ms / 1e3), server.num_workers());
    std::printf("  %llu enacts, %.1f queries/enact; %llu fused "
                "(widest batch: %u lanes)\n",
                static_cast<unsigned long long>(stats.enacts),
                total / static_cast<double>(stats.enacts),
                static_cast<unsigned long long>(stats.coalesced_queries),
                stats.max_lanes);
    std::printf("  result checksum: %llx\n\n",
                static_cast<unsigned long long>(checksum));
    return ms;
  };

  const double fused_ms = serve("coalescer ON (adaptive batching):", 64);
  const double plain_ms = serve("coalescer OFF (one enact per query):", 1);
  std::printf("coalescing speedup on this workload: %.2fx\n",
              plain_ms / fused_ms);
  std::printf("(checksums above must match: fusing never changes bytes)\n");
  return 0;
}
