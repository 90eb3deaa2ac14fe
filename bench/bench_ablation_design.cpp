// Ablations for Gunrock's internal design constants (beyond the paper's
// Figure 8): the LB node/edge-balancing frontier threshold that Section
// 4.4 fixes at 4096, the SSSP delta-stepping bucket width, and the
// direction-optimal switch parameter alpha. Each sweep shows why the
// shipped default is a reasonable plateau rather than a knife's edge.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace grx;
  using namespace grx::bench;
  const Cli cli(argc, argv);
  const int shrink = shrink_from(cli, /*def=*/0);
  const Csr soc = build_dataset("soc-orkut-s", shrink);
  const Csr road = build_dataset("roadnet-s", shrink);
  const VertexId src = 0;

  std::cout << "=== Ablation: LB node/edge threshold (Section 4.4, default "
               "4096), BFS simulated ms (shrink=" << shrink << ") ===\n";
  {
    Table t({"threshold", "soc-orkut-s", "roadnet-s"});
    for (std::uint32_t thr : {0u, 512u, 4096u, 1u << 30}) {
      std::vector<std::string> row{
          thr == 0 ? "0 (always edge-chunks)"
                   : thr == (1u << 30) ? "inf (always node-chunks)"
                                       : std::to_string(thr)};
      for (const Csr* g : {&soc, &road}) {
        simt::Device dev;
        QueryOptions opts;
        opts.strategy = AdvanceStrategy::kLoadBalanced;
        opts.idempotent = true;
        opts.lb_node_edge_threshold = thr;
        const BfsResult r = Engine(dev, *g).bfs(src, opts);
        row.push_back(Table::num(r.summary.device_time_ms, 3));
      }
      t.add_row(std::move(row));
    }
    std::cout << t;
    std::cout << "expected: edge-chunking wins on large skewed frontiers, "
                 "node-chunking on small ones; 4096 sits on the plateau "
                 "(the paper: \"setting this threshold to 4096 yields "
                 "consistent high performance across all Gunrock-provided "
                 "graph primitives\").\n\n";
  }

  std::cout << "=== Ablation: SSSP delta-stepping bucket width ===\n";
  {
    Table t({"delta", "soc-orkut-s ms", "soc edges", "roadnet-s ms",
             "roadnet edges"});
    for (std::uint32_t delta : {8u, 32u, 128u, 512u, 0u}) {
      std::vector<std::string> row{delta == 0 ? "off (plain frontier)"
                                              : std::to_string(delta)};
      for (const Csr* g : {&soc, &road}) {
        simt::Device dev;
        QueryOptions opts;
        opts.use_priority_queue = delta != 0;
        opts.delta = delta;
        const SsspResult r = Engine(dev, *g).sssp(src, opts);
        row.push_back(Table::num(r.summary.device_time_ms, 3));
        row.push_back(std::to_string(r.summary.edges_processed));
      }
      t.add_row(std::move(row));
    }
    std::cout << t;
    std::cout << "expected: wider buckets relax more stale edges; narrower "
                 "buckets add priority levels (launch latency). Road "
                 "networks minimize *work* at moderate delta but pay "
                 "latency for every extra level.\n\n";
  }

  std::cout << "=== Ablation: direction-optimal alpha (Beamer switch) ===\n";
  {
    const Csr kron = build_dataset("kron-s", shrink);
    Table t({"alpha", "kron-s ms", "edges touched"});
    for (double alpha : {2.0, 14.0, 100.0, 1e9}) {
      simt::Device dev;
      QueryOptions opts;
      opts.direction = Direction::kOptimal;
      opts.idempotent = true;
      opts.pull_alpha = alpha;
      const BfsResult r = Engine(dev, kron).bfs(src, opts);
      t.add_row({alpha > 1e8 ? "inf (never pull)" : Table::num(alpha, 0),
                 Table::num(r.summary.device_time_ms, 3),
                 std::to_string(r.summary.edges_processed)});
    }
    std::cout << t;
    std::cout << "expected: aggressive switching (small alpha) and the "
                 "default 14 both collapse the edge count on scale-free "
                 "graphs; never pulling touches every edge.\n";
  }
  return 0;
}
