// Shared infrastructure for the paper-reproduction bench binaries.
//
// Every binary accepts --shrink=N (or env GRX_SHRINK) to scale the six
// dataset analogs: each +1 halves the vertex count. The default (2) keeps a
// full bench run in minutes on one core; 0 reproduces the DESIGN.md sizes.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "baselines/galois/galois.hpp"
#include "baselines/gas/gas.hpp"
#include "baselines/hardwired/hardwired.hpp"
#include "baselines/ligra/ligra.hpp"
#include "baselines/medusa/medusa.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace grx::bench {

inline constexpr std::uint32_t kPrIterations = 20;

/// Csr-taking convenience over the shared source picker
/// (grx::scattered_sources in graph/generators.hpp) — benches and the
/// determinism/batch test suites sample the same distribution.
inline std::vector<VertexId> scattered_sources(const Csr& g,
                                               std::uint32_t count) {
  return grx::scattered_sources(g.num_vertices(), count);
}

/// Guarded ratio for bench reporting: a tiny timed section (--smoke runs,
/// sub-resolution arms) can quantize its denominator to zero, and a raw
/// division would print inf/NaN. Reports "n/a" instead.
inline std::string ratio_str(double num, double den, int digits = 2) {
  const double r = num / den;
  if (!(den > 0.0) || !std::isfinite(r)) return "n/a";
  return Table::num(r, digits);
}

/// Queries-per-second with the same zero-denominator guard.
inline std::string qps_str(double queries, double ms) {
  if (!(ms > 0.0)) return "n/a";
  return Table::num(queries / (ms / 1e3), 0);
}

inline int shrink_from(const Cli& cli, int def = 2) {
  if (cli.has("shrink")) return static_cast<int>(cli.get_int("shrink", def));
  if (const char* env = std::getenv("GRX_SHRINK")) return std::atoi(env);
  return def;
}

/// Loads all six analogs once; keyed by dataset name.
inline std::map<std::string, Csr> load_all(int shrink) {
  std::map<std::string, Csr> out;
  for (const auto& spec : datasets())
    out.emplace(spec.name, build_dataset(spec.name, shrink));
  return out;
}

/// Result of one engine x primitive x dataset cell.
struct Cell {
  double runtime_ms = std::nan("");  ///< simulated (device engines) or wall
  double mteps = std::nan("");
  double warp_efficiency = std::nan("");
  bool wall_clock = false;  ///< true for native CPU engines (Ligra/serial)
};

// --- Gunrock runners --------------------------------------------------------

inline Cell run_gunrock_bfs(const Csr& g, VertexId src) {
  simt::Device dev;
  QueryOptions opts;
  opts.direction = Direction::kOptimal;  // the paper's fastest BFS
  opts.idempotent = true;
  const auto r = Engine(dev, g).bfs(src, opts);
  return {r.summary.device_time_ms, r.summary.mteps(g.num_edges()),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gunrock_sssp(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = Engine(dev, g).sssp(src);
  return {r.summary.device_time_ms, r.summary.mteps(g.num_edges()),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gunrock_bc(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = Engine(dev, g).bc(src);
  return {r.summary.device_time_ms, r.summary.mteps(2 * g.num_edges()),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gunrock_cc(const Csr& g, VertexId) {
  simt::Device dev;
  const auto r = Engine(dev, g).cc();
  return {r.summary.device_time_ms, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gunrock_pr(const Csr& g, VertexId) {
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = kPrIterations;
  const auto r = Engine(dev, g).pagerank(opts);
  // Paper: "All PageRank times are normalized to one iteration."
  return {r.summary.device_time_ms / kPrIterations, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

// --- hardwired runners -------------------------------------------------------

inline Cell run_hw_bfs(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = hardwired::merrill_bfs(dev, g, src);
  return {r.summary.device_time_ms,
          static_cast<double>(g.num_edges()) / 1e3 /
              std::max(1e-9, r.summary.device_time_ms),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_hw_sssp(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = hardwired::davidson_sssp(dev, g, src);
  return {r.summary.device_time_ms,
          static_cast<double>(g.num_edges()) / 1e3 /
              std::max(1e-9, r.summary.device_time_ms),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_hw_bc(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = hardwired::edge_bc(dev, g, src);
  return {r.summary.device_time_ms,
          static_cast<double>(2 * g.num_edges()) / 1e3 /
              std::max(1e-9, r.summary.device_time_ms),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_hw_cc(const Csr& g, VertexId) {
  simt::Device dev;
  const auto r = hardwired::soman_cc(dev, g);
  return {r.summary.device_time_ms, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

// --- GAS (MapGraph-like / CuSha-like) runners --------------------------------

inline Cell run_gas_bfs(const Csr& g, VertexId src, gas::Flavor f) {
  simt::Device dev;
  const auto r = gas::bfs(dev, g, src, f);
  return {r.summary.device_time_ms,
          static_cast<double>(g.num_edges()) / 1e3 /
              std::max(1e-9, r.summary.device_time_ms),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gas_sssp(const Csr& g, VertexId src, gas::Flavor f) {
  simt::Device dev;
  const auto r = gas::sssp(dev, g, src, f);
  return {r.summary.device_time_ms,
          static_cast<double>(g.num_edges()) / 1e3 /
              std::max(1e-9, r.summary.device_time_ms),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gas_cc(const Csr& g, VertexId, gas::Flavor f) {
  simt::Device dev;
  const auto r = gas::connected_components(dev, g, f);
  return {r.summary.device_time_ms, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_gas_pr(const Csr& g, VertexId, gas::Flavor f) {
  simt::Device dev;
  const auto r = gas::pagerank(dev, g, 0.85, kPrIterations, f);
  return {r.summary.device_time_ms / kPrIterations, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

// --- Medusa runners ----------------------------------------------------------

inline Cell run_medusa_bfs(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = medusa::bfs(dev, g, src);
  return {r.summary.device_time_ms, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_medusa_sssp(const Csr& g, VertexId src) {
  simt::Device dev;
  const auto r = medusa::sssp(dev, g, src);
  return {r.summary.device_time_ms, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

inline Cell run_medusa_pr(const Csr& g, VertexId) {
  simt::Device dev;
  const auto r = medusa::pagerank(dev, g, 0.85, kPrIterations);
  return {r.summary.device_time_ms / kPrIterations, std::nan(""),
          r.summary.counters.warp_efficiency(), false};
}

// --- CPU (wall-clock) runners -------------------------------------------------

inline Cell run_serial_bfs(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { serial::bfs(g, src); });
  return {ms, static_cast<double>(g.num_edges()) / 1e3 / std::max(1e-9, ms),
          std::nan(""), true};
}
inline Cell run_serial_sssp(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { serial::dijkstra(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_serial_bc(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { serial::brandes_bc(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_serial_cc(const Csr& g, VertexId) {
  const double ms = time_ms([&] { serial::connected_components(g); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_serial_pr(const Csr& g, VertexId) {
  const double ms =
      time_ms([&] { serial::pagerank(g, 0.85, kPrIterations); });
  return {ms / kPrIterations, std::nan(""), std::nan(""), true};
}

inline Cell run_ligra_bfs(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { ligra::bfs(g, src); });
  return {ms, static_cast<double>(g.num_edges()) / 1e3 / std::max(1e-9, ms),
          std::nan(""), true};
}
inline Cell run_ligra_sssp(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { ligra::sssp(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_ligra_bc(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { ligra::bc(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_ligra_cc(const Csr& g, VertexId) {
  const double ms = time_ms([&] { ligra::connected_components(g); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_ligra_pr(const Csr& g, VertexId) {
  const double ms = time_ms([&] { ligra::pagerank(g, 0.85, kPrIterations); });
  return {ms / kPrIterations, std::nan(""), std::nan(""), true};
}

// --- Galois-model worklist engine (wall-clock) -------------------------------

inline Cell run_galois_bfs(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { galois::bfs(g, src); });
  return {ms, static_cast<double>(g.num_edges()) / 1e3 / std::max(1e-9, ms),
          std::nan(""), true};
}
inline Cell run_galois_sssp(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { galois::sssp(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_galois_bc(const Csr& g, VertexId src) {
  const double ms = time_ms([&] { galois::bc(g, src); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_galois_cc(const Csr& g, VertexId) {
  const double ms = time_ms([&] { galois::connected_components(g); });
  return {ms, std::nan(""), std::nan(""), true};
}
inline Cell run_galois_pr(const Csr& g, VertexId) {
  // Residual PR runs to convergence; normalize to the same per-iteration
  // basis as the synchronous engines.
  const double ms = time_ms([&] { galois::pagerank(g); });
  return {ms / kPrIterations, std::nan(""), std::nan(""), true};
}

}  // namespace grx::bench
