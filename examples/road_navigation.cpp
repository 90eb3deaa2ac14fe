// Road navigation: SSSP with the two-level near/far priority queue on a
// road-network-like mesh — the workload where delta-stepping shines.
//
//   $ ./road_navigation [--width=256] [--height=192]
//
// Computes shortest travel costs from a depot corner, reconstructs a route
// to the far corner from the predecessor tree, and compares the near/far
// priority queue against the plain Bellman-Ford-style frontier.
#include <cstdio>

#include "api/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  const Cli cli(argc, argv);
  const auto width = static_cast<std::uint32_t>(cli.get_int("width", 256));
  const auto height = static_cast<std::uint32_t>(cli.get_int("height", 192));

  EdgeList roads = road_grid(width, height, /*delete=*/0.18,
                             /*diagonal=*/0.01, /*seed=*/42);
  // Travel times 1..64 (minutes), symmetric.
  Rng rng(7);
  for (Edge& e : roads.edges)
    e.weight = static_cast<Weight>(1 + rng.next_below(64));
  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(roads, opts);

  const VertexId depot = 0;
  const VertexId far_corner = g.num_vertices() - 1;
  std::printf("road network: %u intersections, %llu road segments\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges() / 2));

  simt::Device dev;
  Engine engine(dev, g);
  QueryOptions with_pq;
  with_pq.use_priority_queue = true;
  with_pq.delta = 64;  // force delta-stepping to expose the trade-off
  const SsspResult fast = engine.sssp(depot, with_pq);

  QueryOptions without_pq;
  without_pq.use_priority_queue = false;
  const SsspResult plain = engine.sssp(depot, without_pq);

  if (fast.dist[far_corner] == kInfinity) {
    std::printf("far corner unreachable (deletions cut it off)\n");
    return 0;
  }
  std::printf("depot -> far corner: %u minutes\n", fast.dist[far_corner]);

  // Reconstruct the route from the predecessor tree.
  std::vector<VertexId> route;
  for (VertexId v = far_corner; v != depot; v = fast.pred[v])
    route.push_back(v);
  route.push_back(depot);
  std::printf("route has %zu hops; first segments from depot:", route.size());
  const std::size_t show = std::min<std::size_t>(6, route.size());
  for (std::size_t i = 0; i < show; ++i)
    std::printf(" %u", route[route.size() - 1 - i]);
  std::printf(" ...\n");

  std::printf(
      "near/far priority queue: %llu edge relaxations, %.3f ms simulated\n",
      static_cast<unsigned long long>(fast.summary.edges_processed),
      fast.summary.device_time_ms);
  std::printf(
      "plain frontier          : %llu edge relaxations, %.3f ms simulated\n",
      static_cast<unsigned long long>(plain.summary.edges_processed),
      plain.summary.device_time_ms);
  std::printf("delta-stepping saved %.1f%% of the relaxation work\n",
              100.0 * (1.0 - static_cast<double>(
                                 fast.summary.edges_processed) /
                                 static_cast<double>(
                                     plain.summary.edges_processed)));
  std::printf(
      "note: on high-diameter meshes the near/far queue trades work for\n"
      "extra priority levels; whether that wins on wall-clock depends on\n"
      "kernel-launch latency vs per-edge cost (the paper's rgg SSSP row\n"
      "shows the same latency-bound regime).\n");
  return 0;
}
