#include <algorithm>

#include "baselines/hardwired/hardwired.hpp"
#include "simt/atomic.hpp"

namespace grx::hardwired {
namespace {
using CM = simt::CostModel;
}

HwBcResult edge_bc(simt::Device& dev, const Csr& g, VertexId source) {
  GRX_CHECK(source < g.num_vertices());
  dev.reset();
  const VertexId n = g.num_vertices();
  HwBcResult out;
  out.bc_values.assign(n, 0.0);

  std::vector<std::uint32_t> depth(n, kInfinity);
  std::vector<double> sigma(n, 0.0), delta(n, 0.0);
  depth[source] = 0;
  sigma[source] = 1.0;

  // Flat directed edge array (every CSR entry): the edge-parallel method
  // of Jia et al. sweeps *all* edges once per BFS level — perfectly
  // balanced and coalesced, but wasteful on high-diameter graphs (see the
  // rgg/roadnet rows of Table 3, where this method loses badly).
  std::vector<VertexId> esrc(g.num_edges()), edst(g.num_edges());
  {
    EdgeId k = 0;
    for (VertexId v = 0; v < n; ++v)
      for (VertexId u : g.neighbors(v)) {
        esrc[k] = v;
        edst[k] = u;
        ++k;
      }
  }

  // Forward: level-synchronous discovery + sigma accumulation.
  std::uint32_t level = 0;
  bool grew = true;
  while (grew) {
    GRX_CHECK(out.summary.iterations++ < 100000);
    std::uint32_t changed = 0;
    dev.for_each("bc_forward", g.num_edges(), [&](simt::Lane& lane,
                                                  std::size_t i) {
      lane.load_coalesced(2);
      if (simt::atomic_load(depth[esrc[i]]) != level) return;
      const VertexId u = edst[i];
      lane.load_scattered();
      const std::uint32_t du = simt::atomic_load(depth[u]);
      if (du == kInfinity) {
        simt::atomic_store(depth[u], level + 1);
        simt::atomic_store_if_differs(changed, 1u);
      }
      if (simt::atomic_load(depth[u]) == level + 1) {
        lane.atomic();
        simt::atomic_add(sigma[u], simt::atomic_load(sigma[esrc[i]]));
      }
    });
    out.summary.edges_processed += g.num_edges();
    grew = changed != 0;
    ++level;
  }

  // Backward: dependency accumulation, deepest level first.
  for (std::uint32_t l = level; l-- > 0;) {
    dev.for_each("bc_backward", g.num_edges(), [&](simt::Lane& lane,
                                                   std::size_t i) {
      lane.load_coalesced(2);
      const VertexId v = esrc[i], u = edst[i];
      if (depth[v] != l || depth[u] != l + 1) return;
      if (sigma[u] <= 0.0) return;
      lane.atomic();
      simt::atomic_add(delta[v], sigma[v] / sigma[u] * (1.0 + delta[u]));
    });
    out.summary.edges_processed += g.num_edges();
  }
  for (VertexId v = 0; v < n; ++v)
    if (v != source) out.bc_values[v] = delta[v];

  out.summary.counters = dev.counters();
  out.summary.device_time_ms = out.summary.counters.time_ms();
  return out;
}

}  // namespace grx::hardwired
