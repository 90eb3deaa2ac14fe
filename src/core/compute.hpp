// Compute: a user operation applied to every element of the frontier
// (Section 4.1). Regular parallelism — one element per lane, coalesced.
//
// In Gunrock proper, compute steps are usually *fused* into advance/filter
// via the functor mechanism; a standalone compute exists for primitives
// that need a whole-frontier pass between traversal steps (e.g. PageRank's
// rank normalization, BC's per-level accumulation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "simt/device.hpp"

namespace grx {

/// fn(std::size_t i, std::uint32_t item, P& prob) applied to every frontier
/// element with its position i, for steps that consume a per-item operator
/// output (neighbor_reduce's out[i]).
template <typename P, typename Fn>
void compute_indexed(simt::Device& dev, const Frontier& f, P& prob, Fn&& fn) {
  dev.for_each("compute", f.size(), [&](simt::Lane& lane, std::size_t i) {
    lane.load_coalesced();  // queue + per-element data
    fn(i, f.items()[i], prob);
  });
}

/// fn(std::uint32_t item, P& prob) applied to every frontier element.
template <typename P, typename Fn>
void compute(simt::Device& dev, const Frontier& f, P& prob, Fn&& fn) {
  compute_indexed(dev, f, prob, [&](std::size_t, std::uint32_t v, P& p) {
    fn(v, p);
  });
}

/// fn over all ids in [0, n) — the "frontier contains all vertices" case
/// without materializing it.
template <typename P, typename Fn>
void compute_all(simt::Device& dev, std::uint32_t n, P& prob, Fn&& fn) {
  dev.for_each("compute_all", n, [&](simt::Lane& lane, std::size_t i) {
    lane.load_coalesced();
    fn(static_cast<std::uint32_t>(i), prob);
  });
}

}  // namespace grx
