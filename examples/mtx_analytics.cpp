// Matrix Market analytics: the paper's artifact workflow ("we currently
// only support matrix market format files as input") — load an .mtx file,
// preprocess it the way the paper does (undirected, deduplicated, random
// [1,64] weights), and run the full primitive suite with a one-line
// summary per primitive.
//
//   $ ./mtx_analytics graph.mtx [--source=0]
//
// With no argument, generates a small R-MAT graph, writes it as .mtx to a
// temporary file, and analyzes that — so the example is runnable out of
// the box and doubles as an IO round-trip demo.
#include <cstdio>
#include <fstream>

#include "api/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/mm_io.hpp"
#include "graph/stats.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  const Cli cli(argc, argv);

  std::string path;
  if (!cli.positional().empty()) {
    path = cli.positional().front();
  } else {
    path = "/tmp/grx_example_graph.mtx";
    std::ofstream out(path);
    write_matrix_market(out, rmat(12, 8, /*seed=*/4242));
    std::printf("no input given; wrote a generated graph to %s\n",
                path.c_str());
  }

  EdgeList el = read_matrix_market_file(path);
  BuildOptions opts;
  opts.symmetrize = true;
  Csr g = build_csr(el, opts);
  g = with_random_weights(g, /*seed=*/2016);

  const GraphStats stats = compute_stats(g);
  std::printf("%s: %u vertices, %llu edges, max degree %u, "
              "pseudo-diameter %u (%s)\n",
              path.c_str(), stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              stats.max_degree, stats.pseudo_diameter,
              classify(stats).c_str());

  const auto source =
      static_cast<VertexId>(cli.get_int("source", 0) %
                            std::max(1u, g.num_vertices()));
  simt::Device dev;
  Engine engine(dev, g);

  QueryOptions bfs_opts;
  bfs_opts.direction = Direction::kOptimal;
  const BfsResult bfs = engine.bfs(source, bfs_opts);
  std::uint64_t reached = 0;
  for (auto d : bfs.depth) reached += d != kInfinity;
  std::printf("BFS      : %6.3f ms, %u levels, %llu reachable\n",
              bfs.summary.device_time_ms, bfs.summary.iterations,
              static_cast<unsigned long long>(reached));

  const SsspResult sssp = engine.sssp(source);
  std::uint64_t far = 0;
  for (auto d : sssp.dist)
    if (d != kInfinity) far = std::max<std::uint64_t>(far, d);
  std::printf("SSSP     : %6.3f ms, eccentricity %llu\n",
              sssp.summary.device_time_ms,
              static_cast<unsigned long long>(far));

  const CcResult cc = engine.cc();
  std::printf("CC       : %6.3f ms, %u components\n",
              cc.summary.device_time_ms, cc.num_components);

  QueryOptions pr_opts;
  pr_opts.epsilon = 1e-7;
  const PagerankResult pr = engine.pagerank(pr_opts);
  VertexId top = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    if (pr.rank[v] > pr.rank[top]) top = v;
  std::printf("PageRank : %6.3f ms, top vertex %u (%.3g)\n",
              pr.summary.device_time_ms, top, pr.rank[top]);

  const MstResult mst = engine.mst();
  std::printf("MST      : %6.3f ms, forest weight %llu over %zu edges\n",
              mst.summary.device_time_ms,
              static_cast<unsigned long long>(mst.total_weight),
              mst.edges.size());
  return 0;
}
