#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

TEST(Csr, BasicAccessors) {
  // 0 -> {1, 2}, 1 -> {2}, 2 -> {}
  Csr g(3, {0, 2, 3, 3}, {1, 2, 2}, {5, 6, 7});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
  EXPECT_EQ(g.edge_weights(1)[0], 7u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Csr, ValidateRejectsBadOffsets) {
  EXPECT_THROW(Csr(2, {0, 2}, {0, 1}), CheckError);        // wrong length
  EXPECT_THROW(Csr(2, {0, 2, 1}, {0, 1}), CheckError);     // decreasing
  EXPECT_THROW(Csr(2, {0, 1, 2}, {0, 5}), CheckError);     // col out of range
  EXPECT_THROW(Csr(2, {0, 1, 2}, {0, 1}, {1}), CheckError);  // weights size
}

TEST(Csr, TransposeReversesEdges) {
  Csr g(3, {0, 2, 3, 3}, {1, 2, 2}, {5, 6, 7});
  const Csr t = transpose(g);
  EXPECT_EQ(t.num_edges(), 3u);
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.degree(2), 2u);
  // Edge 1->2 weight 7 must appear as 2's incoming from 1.
  const auto nbrs = t.neighbors(2);
  const auto ws = t.edge_weights(2);
  bool found = false;
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    if (nbrs[i] == 1 && ws[i] == 7) found = true;
  EXPECT_TRUE(found);
}

TEST(Csr, DoubleTransposeIsIdentity) {
  Csr g = testing::undirected(rmat(8, 4, 123));
  const Csr tt = transpose(transpose(g));
  EXPECT_EQ(tt.row_offsets().size(), g.row_offsets().size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = g.neighbors(v), b = tt.neighbors(v);
    std::vector<VertexId> va(a.begin(), a.end()), vb(b.begin(), b.end());
    std::sort(va.begin(), va.end());
    std::sort(vb.begin(), vb.end());
    EXPECT_EQ(va, vb) << "vertex " << v;
  }
}

TEST(Csr, SymmetricWeightFixturesOnRepeatedPairs) {
  // Generator lists repeat pairs, either way round (rmat(8, 4, 123) gives
  // its 1486 arcs from such a list); the fixture weights each unordered
  // pair once, so every arc carries its reverse's weight.
  const Csr g = testing::undirected_symw(rmat(8, 4, 123));
  EXPECT_EQ(g.num_edges(), 1486u);
  EXPECT_TRUE(has_symmetric_weights(g));
  EXPECT_TRUE(has_symmetric_weights(testing::power_law_serving_graph()));
}

TEST(Csr, SymmetricWeights) {
  // Symmetrizing copies each edge's weight to its reverse; drawing weights
  // per arc afterwards keeps the structure symmetric but not the weights.
  const EdgeList el = road_grid(8, 8, 0.0, 0.0, 5);  // no repeated pairs
  EXPECT_TRUE(has_symmetric_weights(testing::undirected_symw(el)));
  const Csr per_arc = testing::undirected(el);
  EXPECT_TRUE(is_symmetric(per_arc));
  EXPECT_FALSE(has_symmetric_weights(per_arc));
  // Unweighted: the structural answer.
  const Csr bare(per_arc.num_vertices(),
                 {per_arc.row_offsets().begin(), per_arc.row_offsets().end()},
                 {per_arc.col_indices().begin(), per_arc.col_indices().end()});
  EXPECT_TRUE(has_symmetric_weights(bare));
  // Parallel arcs compare as weight multisets, on sorted rows ...
  EdgeList multi;
  multi.num_vertices = 2;
  multi.edges = {{0, 1, 1}, {0, 1, 2}, {1, 0, 2}, {1, 0, 1}};
  BuildOptions keep;
  keep.dedup = false;
  EXPECT_TRUE(has_symmetric_weights(build_csr(multi, keep)));
  multi.edges[3].weight = 2;
  EXPECT_FALSE(has_symmetric_weights(build_csr(multi, keep)));
  // ... and on unsorted ones.
  const Csr unsorted(3, {0, 2, 3, 4}, {2, 1, 0, 0}, {5, 3, 3, 5});
  EXPECT_TRUE(has_symmetric_weights(unsorted));
  const Csr skewed(3, {0, 2, 3, 4}, {2, 1, 0, 0}, {5, 3, 3, 4});
  EXPECT_TRUE(is_symmetric(skewed));
  EXPECT_FALSE(has_symmetric_weights(skewed));
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1, 1}, {0, 1, 2}, {1, 1, 3}, {2, 0, 4}};
  const Csr g = build_csr(el);
  EXPECT_EQ(g.num_edges(), 2u);  // one 0->1, one 2->0
  EXPECT_EQ(g.degree(1), 0u);    // self loop dropped
}

TEST(Builder, KeepsDuplicatesWhenAsked) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {{0, 1, 1}, {0, 1, 2}};
  BuildOptions opts;
  opts.dedup = false;
  EXPECT_EQ(build_csr(el, opts).num_edges(), 2u);
}

TEST(Builder, SymmetrizeAddsReverseEdges) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1, 9}, {1, 2, 8}};
  BuildOptions opts;
  opts.symmetrize = true;
  const Csr g = build_csr(el, opts);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(1), 2u);
  // Weight travels with the reverse edge.
  EXPECT_EQ(g.edge_weights(1)[0], 9u);  // neighbor 0
}

TEST(Builder, SortsNeighborLists) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {{0, 3, 1}, {0, 1, 1}, {0, 2, 1}};
  const Csr g = build_csr(el);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {{0, 5, 1}};
  EXPECT_THROW(build_csr(el), CheckError);
}

TEST(Builder, RandomWeightsInRange) {
  Csr g = testing::undirected(erdos_renyi(64, 256, 3));
  g = with_random_weights(g, 99, 1, 64);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_GE(g.weight(e), 1u);
    EXPECT_LE(g.weight(e), 64u);
  }
}

TEST(Generators, RmatShape) {
  const EdgeList el = rmat(10, 8, 42);
  EXPECT_EQ(el.num_vertices, 1024u);
  EXPECT_EQ(el.edges.size(), 8192u);
  for (const Edge& e : el.edges) {
    EXPECT_LT(e.src, 1024u);
    EXPECT_LT(e.dst, 1024u);
  }
}

TEST(Generators, RmatIsDeterministic) {
  const EdgeList a = rmat(8, 4, 7), b = rmat(8, 4, 7);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Generators, RmatRejectsBadProbabilities) {
  EXPECT_THROW(rmat(8, 4, 7, 0.9, 0.9, 0.1, 0.1), CheckError);
}

TEST(Generators, RmatIsSkewed) {
  const Csr g = testing::undirected(rmat(12, 16, 5));
  const GraphStats s = compute_stats(g);
  EXPECT_GT(s.degree_skew, 16.0);  // scale-free signature
}

TEST(Generators, RggDegreeNearTarget) {
  const std::uint32_t n = 4096;
  const double r = rgg_radius_for_degree(n, 12.0);
  const Csr g = testing::undirected(random_geometric(n, r, 11));
  const GraphStats s = compute_stats(g);
  EXPECT_NEAR(s.avg_degree, 12.0, 3.0);
  EXPECT_LT(s.degree_skew, 16.0);  // mesh-like
}

TEST(Generators, RggEdgesRespectRadius) {
  // Radius small enough that far-apart cells cannot connect: just verify
  // symmetry-free emission (i < j) and bounds.
  const EdgeList el = random_geometric(512, 0.05, 13);
  for (const Edge& e : el.edges) EXPECT_LT(e.src, e.dst);
}

TEST(Generators, RoadGridShape) {
  const EdgeList el = road_grid(16, 8, 0.0, 0.0, 1);
  EXPECT_EQ(el.num_vertices, 128u);
  // Full grid: 15*8 horizontal + 16*7 vertical.
  EXPECT_EQ(el.edges.size(), 15u * 8 + 16 * 7);
}

TEST(Generators, RoadGridDeletionReducesEdges) {
  const auto full = road_grid(32, 32, 0.0, 0.0, 2);
  const auto cut = road_grid(32, 32, 0.5, 0.0, 2);
  EXPECT_LT(cut.edges.size(), full.edges.size());
}

TEST(Generators, ClosedForms) {
  EXPECT_EQ(path_graph(5).edges.size(), 4u);
  EXPECT_EQ(cycle_graph(5).edges.size(), 5u);
  EXPECT_EQ(star_graph(5).edges.size(), 4u);
  EXPECT_EQ(complete_graph(5).edges.size(), 10u);
  EXPECT_EQ(binary_tree(3).num_vertices, 7u);
  EXPECT_EQ(binary_tree(3).edges.size(), 6u);
  EXPECT_EQ(two_cliques_bridge(4).edges.size(), 2u * 6 + 1);
}

TEST(Stats, PathGraphDiameter) {
  const Csr g = testing::undirected(path_graph(50));
  const GraphStats s = compute_stats(g);
  EXPECT_EQ(s.pseudo_diameter, 49u);
  EXPECT_EQ(s.max_degree, 2u);
}

TEST(Stats, StarGraph) {
  const Csr g = testing::undirected(star_graph(100));
  const GraphStats s = compute_stats(g);
  EXPECT_EQ(s.max_degree, 99u);
  EXPECT_EQ(s.pseudo_diameter, 2u);
  EXPECT_EQ(classify(s), "scale-free");
}

TEST(Datasets, RegistryHasSixInPaperOrder) {
  const auto& specs = datasets();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].paper_name, "soc-orkut");
  EXPECT_EQ(specs[5].paper_name, "roadnet_CA");
}

TEST(Datasets, BuildAllShrunk) {
  for (const auto& spec : datasets()) {
    const Csr g = build_dataset(spec.name, /*shrink=*/5);
    g.validate();
    EXPECT_GT(g.num_edges(), 0u) << spec.name;
    EXPECT_TRUE(g.has_weights()) << spec.name;
  }
}

TEST(Datasets, WeightsAreSymmetric) {
  const Csr g = build_dataset("soc-orkut-s", /*shrink=*/6);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u < v) continue;
      // find reverse
      const auto rn = g.neighbors(u);
      const auto it = std::lower_bound(rn.begin(), rn.end(), v);
      ASSERT_TRUE(it != rn.end() && *it == v);
      const auto rw = g.edge_weights(u)[static_cast<std::size_t>(
          it - rn.begin())];
      EXPECT_EQ(ws[i], rw);
    }
  }
}

TEST(Datasets, TopologyClassesMatchTable1) {
  // Scale-free analogs vs mesh analogs, as classified by degree skew.
  const std::set<std::string> scale_free = {"soc-orkut-s", "hollywood-s",
                                            "indochina-s", "kron-s"};
  for (const auto& spec : datasets()) {
    const Csr g = build_dataset(spec.name, /*shrink=*/4);
    const GraphStats s = compute_stats(g);
    if (scale_free.count(spec.name)) {
      EXPECT_EQ(classify(s), "scale-free") << spec.name;
    } else {
      EXPECT_EQ(classify(s), "mesh-like") << spec.name;
      EXPECT_GT(s.pseudo_diameter, 40u) << spec.name;
    }
  }
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW(build_dataset("nope"), CheckError);
}

}  // namespace
}  // namespace grx
