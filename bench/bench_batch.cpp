// bench_batch: aggregate throughput of the batched multi-source engine
// (core/batch_enactor.hpp) vs. sequential single-query enactment.
//
//   $ ./bench_batch [--scale=13] [--batch=64] [--repeats=3] [--check]
//   $ ./bench_batch --smoke        # small graph + full per-lane verify (CI)
//
// Measures B BFS / SSSP queries on the power-law bench graph — B sequential
// enactments (each in the paper's fastest single-query configuration), one
// lane-packed batch, and for SSSP additionally the plain Bellman-Ford batch
// (priority schedule off) as the PR 2 baseline the per-lane near/far
// frontier must beat. Timing is interleaved A/B: the arms alternate inside
// every repeat so drift (thermal, page cache, competing load) lands on all
// equally; best-of-repeats is reported. See docs/benchmarks.md for the
// methodology.
//
// Acceptance (ISSUE 2): batched >= 4x sequential aggregate queries/sec at
// B=64 on the power-law graph.
// Acceptance (ISSUE 3): near/far batched SSSP >= 1.5x the Bellman-Ford
// batched baseline in device-charged time at B=64, every lane equal to the
// serial oracle.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

using namespace grx;
using grx::bench::scattered_sources;

struct Arm {
  double wall_ms = 1e300;    ///< best-of-repeats host wall clock
  double device_ms = 1e300;  ///< best-of-repeats simulated device time
};

/// Per-lane verification of batched results against single-query runs.
/// Returns the number of mismatching (vertex, lane) cells.
std::uint64_t verify(const Csr& g, const std::vector<VertexId>& sources,
                     const BatchBfsResult& bfs_batch,
                     const BatchSsspResult& sssp_batch,
                     const BatchSsspResult& sssp_bf_batch) {
  simt::Device dev;
  Engine engine(dev, g);
  std::uint64_t bad = 0;
  for (std::uint32_t q = 0; q < bfs_batch.num_lanes; ++q) {
    QueryOptions opts;
    opts.record_predecessors = false;
    const BfsResult bfs_single = engine.bfs(sources[q], opts);
    const SsspResult sssp_single = engine.sssp(sources[q]);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      bad += bfs_batch.depth_at(v, q) != bfs_single.depth[v];
      bad += sssp_batch.dist_at(v, q) != sssp_single.dist[v];
      bad += sssp_bf_batch.dist_at(v, q) != sssp_single.dist[v];
    }
  }
  return bad;
}

/// Per-lane near/far split stats of the last batched SSSP run: the
/// regression fingerprint of the per-lane schedule (level advances and
/// pile volumes shift when the split heuristic or cutoff logic changes).
void print_lane_stats(const BatchSsspResult& r) {
  if (r.lane_stats.empty()) {
    std::printf("SSSP near/far: priority schedule off (delta=0)\n");
    return;
  }
  std::uint64_t splits_min = ~0ull, splits_max = 0, splits_sum = 0;
  std::uint64_t near_sum = 0, far_sum = 0;
  std::uint32_t lane_min = 0, lane_max = 0;
  for (std::uint32_t q = 0; q < r.lane_stats.size(); ++q) {
    const PriorityQueueStats& s = r.lane_stats[q];
    if (s.splits < splits_min) { splits_min = s.splits; lane_min = q; }
    if (s.splits > splits_max) { splits_max = s.splits; lane_max = q; }
    splits_sum += s.splits;
    near_sum += s.near_total;
    far_sum += s.far_total;
  }
  const double lanes = static_cast<double>(r.lane_stats.size());
  std::printf(
      "SSSP near/far (delta=%u): per-lane splits min=%llu (lane %u) "
      "mean=%.1f max=%llu (lane %u); near %llu / far %llu cells "
      "(%.1f%% deferred)\n",
      r.delta, static_cast<unsigned long long>(splits_min), lane_min,
      static_cast<double>(splits_sum) / lanes,
      static_cast<unsigned long long>(splits_max), lane_max,
      static_cast<unsigned long long>(near_sum),
      static_cast<unsigned long long>(far_sum),
      100.0 * static_cast<double>(far_sum) /
          static_cast<double>(std::max<std::uint64_t>(1, near_sum + far_sum)));
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");
  const auto scale =
      static_cast<std::uint32_t>(cli.get_int("scale", smoke ? 10 : 13));
  const auto batch =
      static_cast<std::uint32_t>(cli.get_int("batch", smoke ? 32 : 64));
  const int repeats = static_cast<int>(cli.get_int("repeats", smoke ? 1 : 3));
  const bool check = smoke || cli.has("check");
  // 0 = the shared auto sizing (sssp_auto_delta); handy for sweeps. The
  // smoke graph sits under the auto heuristic's size gate, so smoke
  // forces a small delta — otherwise the CI sanitizer run would never
  // execute the claim-split/wake kernels it exists to exercise.
  const auto delta =
      static_cast<std::uint32_t>(cli.get_int("delta", smoke ? 8 : 0));

  // The power-law bench graph (bench_micro's scale_free shape), weighted
  // so the same sources drive both BFS and SSSP.
  BuildOptions bo;
  bo.symmetrize = true;
  const Csr g =
      with_random_weights(build_csr(rmat(scale, 16, 11), bo), /*seed=*/7);
  const std::vector<VertexId> sources = scattered_sources(g, batch);
  std::printf("power-law graph: scale=%u, %u vertices, %llu edges, B=%u\n",
              scale, g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), batch);

  Arm bfs_seq, bfs_bat, sssp_seq, sssp_bat, sssp_bf;
  // Each sequential query constructs its own device (bench_common idiom);
  // the batched arms reuse one enactor across repeats so later repeats
  // exercise the pooled steady state.
  simt::Device dev_batch;
  BatchEnactor batch_enactor(dev_batch);
  BatchBfsResult bfs_last;
  BatchSsspResult sssp_last;
  BatchSsspResult sssp_bf_last;

  for (int rep = 0; rep < repeats; ++rep) {
    // --- BFS, sequential arm -------------------------------------------
    {
      double device_ms = 0.0;
      Timer t;
      for (const VertexId s : sources) {
        simt::Device dev;
        QueryOptions opts;
        opts.direction = Direction::kOptimal;  // paper-fastest single query
        opts.idempotent = true;
        opts.record_predecessors = false;
        const BfsResult r = Engine(dev, g).bfs(s, opts);
        device_ms += r.summary.device_time_ms;
      }
      bfs_seq.wall_ms = std::min(bfs_seq.wall_ms, t.elapsed_ms());
      bfs_seq.device_ms = std::min(bfs_seq.device_ms, device_ms);
    }
    // --- BFS, batched arm ----------------------------------------------
    {
      QueryOptions bopts;
      bopts.direction = Direction::kOptimal;  // symmetric graph: pull OK
      Timer t;
      bfs_last = batch_enactor.bfs(g, sources, bopts);
      bfs_bat.wall_ms = std::min(bfs_bat.wall_ms, t.elapsed_ms());
      bfs_bat.device_ms =
          std::min(bfs_bat.device_ms, bfs_last.summary.device_time_ms);
    }
    // --- SSSP, sequential arm ------------------------------------------
    {
      double device_ms = 0.0;
      Timer t;
      for (const VertexId s : sources) {
        simt::Device dev;
        const SsspResult r = Engine(dev, g).sssp(s);
        device_ms += r.summary.device_time_ms;
      }
      sssp_seq.wall_ms = std::min(sssp_seq.wall_ms, t.elapsed_ms());
      sssp_seq.device_ms = std::min(sssp_seq.device_ms, device_ms);
    }
    // --- SSSP, batched Bellman-Ford baseline (priority schedule off) ---
    {
      QueryOptions bopts;
      bopts.use_priority_queue = false;
      Timer t;
      sssp_bf_last = batch_enactor.sssp(g, sources, bopts);
      sssp_bf.wall_ms = std::min(sssp_bf.wall_ms, t.elapsed_ms());
      sssp_bf.device_ms =
          std::min(sssp_bf.device_ms, sssp_bf_last.summary.device_time_ms);
    }
    // --- SSSP, batched per-lane near/far arm ---------------------------
    {
      QueryOptions bopts;
      bopts.delta = delta;
      Timer t;
      sssp_last = batch_enactor.sssp(g, sources, bopts);
      sssp_bat.wall_ms = std::min(sssp_bat.wall_ms, t.elapsed_ms());
      sssp_bat.device_ms =
          std::min(sssp_bat.device_ms, sssp_last.summary.device_time_ms);
    }
  }

  using grx::bench::qps_str;
  using grx::bench::ratio_str;
  Table t({"primitive", "B", "seq wall ms", "batch wall ms", "wall speedup",
           "seq dev ms", "batch dev ms", "dev speedup", "batch q/s (wall)"});
  const auto row = [&](const char* name, const Arm& seq, const Arm& bat) {
    t.add_row({name, std::to_string(batch), Table::num(seq.wall_ms, 2),
               Table::num(bat.wall_ms, 2),
               ratio_str(seq.wall_ms, bat.wall_ms),
               Table::num(seq.device_ms, 2), Table::num(bat.device_ms, 2),
               ratio_str(seq.device_ms, bat.device_ms),
               qps_str(batch, bat.wall_ms)});
  };
  row("BFS", bfs_seq, bfs_bat);
  row("SSSP near/far", sssp_seq, sssp_bat);
  row("SSSP Bellman-Ford", sssp_seq, sssp_bf);
  std::printf("%s", t.to_string().c_str());
  std::printf("vector backend: %s (force scalar with GRX_DISABLE_VEC=1)\n",
              simt::to_string(bfs_last.backend));
  std::printf(
      "SSSP near/far vs Bellman-Ford batch: %sx device, %sx wall\n",
      ratio_str(sssp_bf.device_ms, sssp_bat.device_ms).c_str(),
      ratio_str(sssp_bf.wall_ms, sssp_bat.wall_ms).c_str());
  print_lane_stats(sssp_last);

  if (check) {
    const std::uint64_t bad =
        ::verify(g, sources, bfs_last, sssp_last, sssp_bf_last);
    if (bad != 0) {
      std::printf("FAIL: %llu (vertex, lane) cells differ from single-query "
                  "runs\n",
                  static_cast<unsigned long long>(bad));
      return 1;
    }
    std::printf("verified: batched BFS/SSSP (near/far and Bellman-Ford) "
                "equal single-query runs on all %u lanes\n",
                batch);
  }
  if (smoke) std::printf("smoke OK\n");
  return 0;
}
