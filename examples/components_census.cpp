// Component census: connected-components labeling over a fragmented graph
// (many isolated users + a giant core), with a size histogram — the classic
// "how many communities and how big" question CC answers.
//
//   $ ./components_census [--islands=200]
#include <algorithm>
#include <cstdio>
#include <map>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  const Cli cli(argc, argv);
  const auto islands = static_cast<std::uint32_t>(cli.get_int("islands", 200));

  // One scale-free core plus many small ring communities.
  EdgeList el = rmat(12, 8, 77);
  const VertexId core = el.num_vertices;
  el.num_vertices += islands * 5;
  Rng rng(5);
  for (std::uint32_t i = 0; i < islands; ++i) {
    const VertexId b = core + i * 5;
    const auto size = static_cast<VertexId>(2 + rng.next_below(4));
    for (VertexId k = 0; k < size - 1; ++k)
      el.edges.push_back(Edge{b + k, b + k + 1, 1});
  }
  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(el, opts);
  std::printf("graph: %u vertices, %llu edges\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  std::printf("found %u components in %.3f ms simulated (%u BSP steps)\n",
              r.num_components, r.summary.device_time_ms,
              r.summary.iterations);

  // Cross-check against the serial union-find oracle.
  const auto oracle = serial::connected_components(g);
  GRX_CHECK(serial::count_components(oracle) == r.num_components);

  // Size histogram.
  std::map<VertexId, std::uint64_t> size_of;
  for (VertexId v = 0; v < g.num_vertices(); ++v) size_of[r.component[v]]++;
  std::map<std::uint64_t, std::uint64_t> hist;
  for (const auto& [root, size] : size_of) hist[size]++;
  std::printf("component size histogram:\n");
  for (const auto& [size, count] : hist)
    std::printf("  size %6llu: %llu component(s)\n",
                static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(count));

  const auto giant = std::max_element(
      size_of.begin(), size_of.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  std::printf("giant component: root %u with %llu vertices (%.1f%%)\n",
              giant->first,
              static_cast<unsigned long long>(giant->second),
              100.0 * static_cast<double>(giant->second) / g.num_vertices());
  return 0;
}
