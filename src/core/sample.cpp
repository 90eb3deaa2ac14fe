#include "core/sample.hpp"

#include "simt/primitives.hpp"

namespace grx {

void frontier_sample(simt::Device& dev, const Frontier& in, Frontier& out,
                     const SampleConfig& cfg) {
  constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
  GRX_CHECK(cfg.fraction > 0.0 && cfg.fraction <= 1.0);
  out.clear();
  if (in.empty()) return;

  // Keep element iff hash <= fraction * 2^64 (saturating: fraction 1.0
  // keeps everything; the double->u64 conversion of 2^64 itself would be
  // undefined).
  const std::uint64_t threshold =
      cfg.fraction >= 1.0
          ? ~std::uint64_t{0}
          : static_cast<std::uint64_t>(cfg.fraction * 0x1p64);
  // Survivors are staged per warp and placed by a scan (the two-phase
  // assembler of filter_vertices), so they keep input order at any host
  // thread count. The staging pool is local: sampling is a one-shot
  // utility off the BSP hot path.
  const std::size_t num_warps = (in.size() + kWarp - 1) / kWarp;
  simt::ChunkedOutput kept;
  kept.begin(num_warps, num_warps * kWarp);
  dev.for_each("frontier_sample", in.size(),
               [&](simt::Lane& lane, std::size_t i) {
                 const std::size_t warp = i / kWarp;
                 if (i % kWarp == 0) kept.counts[warp] = 0;
                 lane.load_coalesced();
                 lane.alu(3);  // counter-based hash
                 const std::uint32_t v = in.items()[i];
                 // One splitmix64 step keyed by (seed, round, element):
                 // stateless, so lanes are independent and reproducible.
                 Rng h(cfg.seed ^ (static_cast<std::uint64_t>(cfg.round) << 32
                                   ) ^ v);
                 if (h.next_u64() <= threshold)
                   kept.scratch[warp * kWarp + kept.counts[warp]++] = v;
               });
  simt::scatter_into(dev, kept, num_warps, out.items(),
                     [](std::size_t c) { return c * kWarp; });
  // The flag pass of the compaction; scatter_into charged the scan and
  // the scatter.
  dev.charge_pass("sample_compact", in.size(), simt::CostModel::kCoalesced,
                  /*fused=*/true);

  // Guarantee progress: a nonempty frontier never samples below min_keep;
  // fall back to a deterministic prefix in that (rare) case.
  const std::size_t need = std::min(cfg.min_keep, in.size());
  if (out.size() < need) {
    out.items().assign(in.items().begin(),
                       in.items().begin() + static_cast<long>(need));
  }
}

}  // namespace grx
