#include <algorithm>
#include <numeric>

#include "baselines/hardwired/hardwired.hpp"
#include "simt/atomic.hpp"

namespace grx::hardwired {
namespace {
using CM = simt::CostModel;
}

HwCcResult soman_cc(simt::Device& dev, const Csr& g) {
  dev.reset();
  HwCcResult out;
  const VertexId n = g.num_vertices();
  out.component.resize(n);
  std::iota(out.component.begin(), out.component.end(), VertexId{0});
  auto& comp = out.component;

  // Raw edge arrays (one direction per undirected edge): the hardwired
  // implementation streams these with perfectly coalesced loads and no
  // frontier/queue maintenance at all — exactly why the paper reports
  // Gunrock's CC ~5x slower than conn (Section 6).
  std::vector<VertexId> esrc, edst;
  esrc.reserve(g.num_edges() / 2);
  edst.reserve(g.num_edges() / 2);
  for (VertexId v = 0; v < n; ++v)
    for (VertexId u : g.neighbors(v))
      if (v < u) {
        esrc.push_back(v);
        edst.push_back(u);
      }
  const std::size_t m = esrc.size();

  bool hooked = true;
  while (hooked) {
    GRX_CHECK(out.summary.iterations++ < 100000);
    // Hooking kernel over the full edge array.
    std::uint32_t changed = 0;
    dev.for_each("cc_hook", m, [&](simt::Lane& lane, std::size_t i) {
      lane.load_coalesced(2);  // src, dst
      const VertexId cs = simt::atomic_load(comp[esrc[i]]);
      const VertexId cd = simt::atomic_load(comp[edst[i]]);
      if (cs == cd) return;
      const VertexId hi = std::max(cs, cd), lo = std::min(cs, cd);
      lane.atomic();
      if (simt::atomic_min(comp[hi], lo) > lo)
        simt::atomic_store_if_differs(changed, 1u);
    });
    out.summary.edges_processed += m;
    hooked = changed != 0;

    // Pointer-jumping kernels over all vertices until stable.
    bool jumping = true;
    while (jumping) {
      std::uint32_t jchanged = 0;
      dev.for_each("cc_jump", n, [&](simt::Lane& lane, std::size_t vi) {
        lane.load_coalesced();
        const VertexId c = simt::atomic_load(comp[vi]);
        const VertexId cc = simt::atomic_load(comp[c]);
        if (c == cc) return;
        lane.load_scattered();
        simt::atomic_min(comp[vi], cc);
        simt::atomic_store_if_differs(jchanged, 1u);
      });
      jumping = jchanged != 0;
    }
  }

  for (VertexId v = 0; v < n; ++v)
    if (comp[v] == v) out.num_components++;
  out.summary.counters = dev.counters();
  out.summary.device_time_ms = out.summary.counters.time_ms();
  return out;
}

}  // namespace grx::hardwired
