// Social influence analysis: PageRank + sampled betweenness centrality on
// a scale-free social network — the "relative importance of vertices in
// social network analysis" workload motivating BC in Section 5.3.
//
//   $ ./social_influence [--scale=13] [--bc-sources=8]
#include <algorithm>
#include <cstdio>

#include "api/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"

namespace {

void print_top(const char* title, const std::vector<double>& score,
               std::size_t k) {
  std::vector<grx::VertexId> ids(score.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ids[i] = static_cast<grx::VertexId>(i);
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k),
                    ids.end(), [&](auto a, auto b) {
                      return score[a] > score[b];
                    });
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < k; ++i)
    std::printf("  #%zu: vertex %u (score %.6g)\n", i + 1, ids[i],
                score[ids[i]]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grx;
  const Cli cli(argc, argv);
  const auto scale = static_cast<std::uint32_t>(cli.get_int("scale", 13));
  const auto sources =
      static_cast<std::uint32_t>(cli.get_int("bc-sources", 8));

  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(
      rmat(scale, 24, /*seed=*/99, 0.45, 0.22, 0.22, 0.11), opts);
  std::printf("social graph: %u users, %llu follow edges\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  simt::Device dev;
  Engine engine(dev, g);

  // Popularity: PageRank with convergence-based frontier pruning.
  QueryOptions pr_opts;
  pr_opts.epsilon = 1e-7;
  const PagerankResult pr = engine.pagerank(pr_opts);
  std::printf("PageRank: %u iterations, %.3f ms simulated\n",
              pr.summary.iterations, pr.summary.device_time_ms);
  print_top("top influencers by PageRank:", pr.rank, 10);

  // Brokerage: approximate BC accumulated over sampled sources.
  const auto bc = engine.bc_sampled(sources, /*seed=*/1234);
  print_top("top brokers by sampled betweenness:", bc, 10);
  return 0;
}
