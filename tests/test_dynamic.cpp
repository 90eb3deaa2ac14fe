// The streaming-graph contract (docs/architecture.md, "Streaming graphs"):
//
//  1. Snapshot parity, oracle-replayed: after every applied update batch,
//     a from-scratch CSR rebuilt for that epoch by an independent
//     reference model is byte-equal (offsets, columns, weights) to the
//     pinned SnapshotView's CSR, and BFS / SSSP / CC / PageRank on the
//     view match the serial oracles on the rebuilt graph — including for
//     views that straddle a compaction.
//  2. Epoch-based reclamation: a snapshot frees only after every reader
//     that could see it has released its pin; a straggler pinned at an
//     old epoch blocks reclamation of everything retired after it, and
//     the live-snapshot count collapses back to a small bound the moment
//     the straggler releases.
//  3. The serving integration: a Server over a DynamicGraph tags every
//     result with the epoch it pinned at dequeue time, serves queries
//     concurrently with apply_updates(), and never dangles — proven here
//     under tight pin/unpin churn with forced compactions and a FaultPlan
//     kStall reader wedged mid-enact on an old epoch.
//
// This suite runs under both sanitizers in CI (tsan + asan jobs): the
// pin/publish/retire/collect protocol of core/epoch.hpp must be exactly
// as race-free as the server's queue handoff.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/server.hpp"
#include "baselines/serial/serial.hpp"
#include "core/epoch.hpp"
#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace grx {
namespace {

using namespace std::chrono_literals;

// --- reference model ---------------------------------------------------------

/// An independent from-scratch model of the mutable graph: a sorted
/// (src, dst) -> weight map, replaying the same update semantics as
/// DynamicGraph (upsert / delete, optional mirroring) with none of its
/// machinery. to_csr() emits the map in key order — exactly canonical CSR
/// order — so comparisons against snapshots are byte-level.
struct RefModel {
  VertexId n = 0;
  std::map<std::pair<VertexId, VertexId>, Weight> adj;

  static RefModel from(const Csr& g) {
    RefModel m;
    m.n = g.num_vertices();
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      for (EdgeId e = g.row_start(v); e < g.row_end(v); ++e)
        m.adj[{v, g.col_index(e)}] = g.weight(e);
    return m;
  }

  void apply_dir(VertexId s, VertexId d, Weight w, bool insert) {
    if (insert)
      adj[{s, d}] = w;
    else
      adj.erase({s, d});
  }
  void apply(const EdgeUpdate& u, bool symmetric) {
    apply_dir(u.src, u.dst, u.weight, u.insert);
    if (symmetric && u.src != u.dst)
      apply_dir(u.dst, u.src, u.weight, u.insert);
  }

  Csr to_csr() const {
    std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
    std::vector<VertexId> cols;
    std::vector<Weight> weights;
    cols.reserve(adj.size());
    weights.reserve(adj.size());
    for (const auto& [edge, w] : adj) {
      offsets[edge.first + 1]++;
      cols.push_back(edge.second);
      weights.push_back(w);
    }
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    return Csr(n, std::move(offsets), std::move(cols), std::move(weights));
  }
};

/// A seeded mixed update batch: ~half upserts of random pairs, ~half
/// deletes biased toward edges that currently exist in `ref` (so deletes
/// actually exercise tombstones, not just the ignored path).
std::vector<EdgeUpdate> random_batch(Rng& rng, const RefModel& ref,
                                     std::size_t count) {
  std::vector<EdgeUpdate> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.next_bool(0.5) || ref.adj.empty()) {
      const auto u = static_cast<VertexId>(rng.next_below(ref.n));
      const auto v = static_cast<VertexId>(rng.next_below(ref.n));
      batch.push_back(
          EdgeUpdate::insert_edge(u, v, static_cast<Weight>(rng.next_in(1, 64))));
    } else if (rng.next_bool(0.8)) {
      auto it = ref.adj.begin();
      std::advance(it, static_cast<long>(rng.next_below(ref.adj.size())));
      batch.push_back(EdgeUpdate::remove_edge(it->first.first, it->first.second));
    } else {  // delete of a (likely) absent edge: the ignored path
      const auto u = static_cast<VertexId>(rng.next_below(ref.n));
      const auto v = static_cast<VertexId>(rng.next_below(ref.n));
      batch.push_back(EdgeUpdate::remove_edge(u, v));
    }
  }
  return batch;
}

void expect_csr_equal(const Csr& got, const Csr& want, const std::string& ctx) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << ctx;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << ctx;
  EXPECT_TRUE(std::equal(got.row_offsets().begin(), got.row_offsets().end(),
                         want.row_offsets().begin(), want.row_offsets().end()))
      << ctx << ": row offsets differ";
  EXPECT_TRUE(std::equal(got.col_indices().begin(), got.col_indices().end(),
                         want.col_indices().begin(), want.col_indices().end()))
      << ctx << ": column indices differ";
  EXPECT_TRUE(std::equal(got.weights().begin(), got.weights().end(),
                         want.weights().begin(), want.weights().end()))
      << ctx << ": weights differ";
}

/// The per-epoch oracle check: BFS/SSSP/CC on the pinned view byte-equal
/// the serial oracles on the independently rebuilt graph; PageRank
/// (epsilon=0, fixed iterations) matches serial power iteration to 1e-10.
void expect_view_matches_oracles(const SnapshotView& view, const Csr& rebuilt,
                                 std::span<const VertexId> sources,
                                 const std::string& ctx) {
  simt::Device dev;
  Engine eng(dev, view.csr());
  for (const VertexId src : sources) {
    EXPECT_EQ(eng.bfs(src).depth, serial::bfs(rebuilt, src))
        << ctx << ": BFS from " << src;
    EXPECT_EQ(eng.sssp(src).dist, serial::dijkstra(rebuilt, src))
        << ctx << ": SSSP from " << src;
  }
  EXPECT_TRUE(grx::testing::same_partition(
      eng.cc().component, serial::connected_components(rebuilt)))
      << ctx << ": CC";
  QueryOptions pr;
  pr.epsilon = 0.0;  // no frontier pruning: exact match to power iteration
  pr.max_iterations = 20;
  EXPECT_TRUE(grx::testing::near_vectors(
      eng.pagerank(pr).rank, serial::pagerank(rebuilt, 0.85, 20), 1e-10))
      << ctx << ": PageRank";
}

// --- EpochReclaimer ----------------------------------------------------------

TEST(EpochReclaimer, PinBlocksRetireesUntilRelease) {
  EpochReclaimer<int> r(8);
  EXPECT_EQ(r.current(), 0u);
  EXPECT_EQ(r.min_pinned(), kIdleEpoch);

  auto pin = r.pin();
  EXPECT_TRUE(pin.engaged());
  EXPECT_EQ(pin.epoch(), 0u);
  EXPECT_EQ(r.min_pinned(), 0u);

  // Publish: retire the old node at the post-advance epoch.
  EXPECT_EQ(r.advance(), 1u);
  r.retire(std::make_unique<const int>(41), 1);
  EXPECT_EQ(r.retired_pending(), 1u);
  EXPECT_EQ(r.collect(), 0u) << "a pin at epoch 0 must block retire-epoch 1";

  // A reader pinned NOW (epoch 1) does not block it; only the straggler.
  auto fresh = r.pin();
  EXPECT_EQ(fresh.epoch(), 1u);
  pin.release();
  EXPECT_EQ(r.collect(), 1u);
  EXPECT_EQ(r.retired_pending(), 0u);
  fresh.release();
}

TEST(EpochReclaimer, SlotExhaustionFailsLoudly) {
  EpochReclaimer<int> r(2);
  auto a = r.pin();
  auto b = r.pin();
  EXPECT_THROW(r.pin(), CheckError);
  a.release();
  auto c = r.pin();  // a released slot is immediately reusable
  EXPECT_TRUE(c.engaged());
}

TEST(EpochReclaimer, PinIsMovableAndReleaseIdempotent) {
  EpochReclaimer<int> r(2);
  auto a = r.pin();
  auto b = std::move(a);
  EXPECT_FALSE(a.engaged());  // NOLINT(bugprone-use-after-move): probing it
  EXPECT_TRUE(b.engaged());
  EXPECT_EQ(r.min_pinned(), 0u);
  b.release();
  b.release();
  EXPECT_EQ(r.min_pinned(), kIdleEpoch);
}

// --- DynamicGraph semantics --------------------------------------------------

TEST(DynamicGraph, CanonicalizesBaseLastParallelCopyWins) {
  // Row 0 as built: 1(w5), 1(w9), 0(w3), 2(w1) — unsorted, with a
  // parallel (0,1) pair and a self-loop. Canonical: 0(w3), 1(w9), 2(w1).
  Csr messy(3, {0, 4, 4, 5}, {1, 1, 0, 2, 1}, {5, 9, 3, 1, 4});
  DynamicGraph dyn(messy);
  SnapshotView view = dyn.snapshot();
  EXPECT_EQ(view.epoch(), 0u);
  expect_csr_equal(view.csr(), Csr(3, {0, 3, 3, 4}, {0, 1, 2, 1}, {3, 9, 1, 4}),
                   "canonicalized base");
}

TEST(DynamicGraph, UnweightedBaseMaterializesUnitWeights) {
  Csr unweighted(2, {0, 1, 2}, {1, 0});
  DynamicGraph dyn(unweighted);
  SnapshotView view = dyn.snapshot();
  ASSERT_TRUE(view.csr().has_weights());
  EXPECT_EQ(view.csr().weight(0), 1u);
  // SSSP is therefore always admissible on a dynamic graph.
  simt::Device dev;
  Engine eng(dev, view.csr());
  EXPECT_EQ(eng.sssp(0).dist, serial::dijkstra(view.csr(), 0));
}

TEST(DynamicGraph, UpdateSemanticsAndCounters) {
  // 0-1, 1-2 path, symmetric, all weight 1.
  Csr base(3, {0, 1, 3, 4}, {1, 0, 2, 1}, {1, 1, 1, 1});
  DynamicGraphOptions opt;
  opt.symmetric = true;
  DynamicGraph dyn(base, opt);

  const std::vector<EdgeUpdate> batch = {
      EdgeUpdate::insert_edge(0, 2, 7),  // new edge, mirrored
      EdgeUpdate::insert_edge(0, 1, 9),  // upsert of an existing edge
      EdgeUpdate::remove_edge(1, 2),     // delete, mirrored
      EdgeUpdate::remove_edge(0, 0),     // absent: ignored
  };
  EXPECT_EQ(dyn.apply_updates(batch), 1u);
  EXPECT_EQ(dyn.epoch(), 1u);

  const DynamicGraphStats s = dyn.stats();
  EXPECT_EQ(s.batches_applied, 1u);
  EXPECT_EQ(s.edges_inserted, 2u);   // (0,2) and its mirror
  EXPECT_EQ(s.weight_updates, 2u);   // (0,1) and its mirror
  EXPECT_EQ(s.edges_removed, 2u);    // (1,2) and its mirror
  EXPECT_EQ(s.updates_ignored, 1u);  // the absent self-loop delete

  SnapshotView view = dyn.snapshot();
  expect_csr_equal(view.csr(),
                   Csr(3, {0, 2, 3, 4}, {1, 2, 0, 0}, {9, 7, 9, 7}),
                   "after one batch");

  EXPECT_THROW(dyn.apply_updates(std::vector<EdgeUpdate>{
                   EdgeUpdate::insert_edge(0, 3)}),
               CheckError);
}

TEST(DynamicGraph, SelfLoopMirrorAppliesOnce) {
  Csr base(2, {0, 1, 2}, {1, 0}, {1, 1});
  DynamicGraphOptions opt;
  opt.symmetric = true;
  DynamicGraph dyn(base, opt);
  dyn.apply_updates(std::vector<EdgeUpdate>{EdgeUpdate::insert_edge(1, 1, 5)});
  EXPECT_EQ(dyn.stats().edges_inserted, 1u);
  SnapshotView view = dyn.snapshot();
  expect_csr_equal(view.csr(), Csr(2, {0, 1, 3}, {1, 0, 1}, {1, 1, 5}),
                   "self-loop insert");
}

// --- snapshot-parity oracle replay ------------------------------------------

TEST(DynamicOracle, SnapshotParityAcrossUpdateBatches) {
  const Csr& base = grx::testing::power_law_serving_graph(8);
  DynamicGraphOptions opt;
  opt.symmetric = true;  // keep the serving graph undirected
  opt.compact_every = 3;
  DynamicGraph dyn(base, opt);
  RefModel ref = RefModel::from(dyn.snapshot().csr());

  const std::vector<VertexId> sources =
      grx::testing::scattered_sources(base, 3);
  Rng rng(2026);
  for (Epoch k = 1; k <= 9; ++k) {
    const std::vector<EdgeUpdate> batch = random_batch(rng, ref, 16);
    ASSERT_EQ(dyn.apply_updates(batch), k);
    for (const EdgeUpdate& u : batch) ref.apply(u, /*symmetric=*/true);

    // From-scratch rebuild for this epoch vs the pinned snapshot.
    const Csr rebuilt = ref.to_csr();
    SnapshotView view = dyn.snapshot();
    ASSERT_EQ(view.epoch(), k);
    const std::string ctx = "epoch " + std::to_string(k);
    expect_csr_equal(view.csr(), rebuilt, ctx);
    expect_view_matches_oracles(view, rebuilt, sources, ctx);
  }
  const DynamicGraphStats s = dyn.stats();
  EXPECT_EQ(s.batches_applied, 9u);
  EXPECT_EQ(s.compactions, 3u);  // every 3rd batch folded the log
}

TEST(DynamicOracle, PinnedViewStraddlesCompactionsUnchanged) {
  const Csr& base = grx::testing::power_law_serving_graph(8);
  DynamicGraphOptions opt;
  opt.symmetric = true;
  opt.compact_every = 2;
  DynamicGraph dyn(base, opt);
  RefModel ref = RefModel::from(dyn.snapshot().csr());
  const Csr rebuilt0 = ref.to_csr();

  // Pin epoch 0, then mutate straight through two compactions.
  SnapshotView old_view = dyn.snapshot();
  ASSERT_EQ(old_view.epoch(), 0u);

  Rng rng(77);
  RefModel moving = ref;
  for (Epoch k = 1; k <= 5; ++k) {
    const std::vector<EdgeUpdate> batch = random_batch(rng, moving, 12);
    dyn.apply_updates(batch);
    for (const EdgeUpdate& u : batch) moving.apply(u, true);
  }
  ASSERT_GE(dyn.stats().compactions, 2u);
  // The straggler pins epoch 0: nothing can be reclaimed yet.
  EXPECT_EQ(dyn.stats().live_snapshots, 6u);

  // The old view still serves its epoch, byte-exact, post-compaction.
  const std::vector<VertexId> sources =
      grx::testing::scattered_sources(base, 2);
  expect_csr_equal(old_view.csr(), rebuilt0, "epoch 0 after 2 compactions");
  expect_view_matches_oracles(old_view, rebuilt0, sources,
                              "epoch 0 after 2 compactions");

  // And the newest snapshot serves the moved-on graph.
  SnapshotView new_view = dyn.snapshot();
  ASSERT_EQ(new_view.epoch(), 5u);
  expect_csr_equal(new_view.csr(), moving.to_csr(), "epoch 5");

  // Release the straggler: everything superseded reclaims immediately —
  // the still-pinned HEAD view never blocks its own epoch.
  old_view.release();
  dyn.collect();
  EXPECT_EQ(dyn.stats().live_snapshots, 1u);
}

TEST(DynamicGraph, ExplicitCompactKeepsGraphAndEpoch) {
  const Csr& base = grx::testing::power_law_serving_graph(8);
  DynamicGraphOptions opt;
  opt.symmetric = true;
  opt.compact_every = 0;  // manual only
  DynamicGraph dyn(base, opt);
  RefModel ref = RefModel::from(dyn.snapshot().csr());
  Rng rng(5);
  const std::vector<EdgeUpdate> batch = random_batch(rng, ref, 20);
  dyn.apply_updates(batch);
  for (const EdgeUpdate& u : batch) ref.apply(u, true);

  ASSERT_GT(dyn.stats().delta_edges, 0u);
  dyn.compact();
  EXPECT_EQ(dyn.stats().compactions, 1u);
  EXPECT_EQ(dyn.stats().delta_edges, 0u);
  EXPECT_EQ(dyn.epoch(), 1u) << "compaction must not publish an epoch";
  SnapshotView view = dyn.snapshot();
  expect_csr_equal(view.csr(), ref.to_csr(), "after explicit compact");
  dyn.compact();  // empty delta: no-op
  EXPECT_EQ(dyn.stats().compactions, 1u);
}

// --- Engine::rebind ----------------------------------------------------------

TEST(EngineRebind, ServesTheNewGraphAfterRebind) {
  const Csr& base = grx::testing::power_law_serving_graph(8);
  DynamicGraphOptions opt;
  opt.symmetric = true;
  DynamicGraph dyn(base, opt);
  SnapshotView v0 = dyn.snapshot();

  simt::Device dev;
  Engine eng(dev, v0.csr());
  const VertexId src = grx::testing::scattered_sources(base, 1)[0];
  EXPECT_EQ(eng.bfs(src).depth, serial::bfs(v0.csr(), src));

  RefModel ref = RefModel::from(v0.csr());
  Rng rng(9);
  const std::vector<EdgeUpdate> batch = random_batch(rng, ref, 24);
  dyn.apply_updates(batch);
  for (const EdgeUpdate& u : batch) ref.apply(u, true);

  SnapshotView v1 = dyn.snapshot();
  eng.rebind(v1.csr());
  const Csr rebuilt = ref.to_csr();
  EXPECT_EQ(eng.bfs(src).depth, serial::bfs(rebuilt, src));
  EXPECT_EQ(eng.sssp(src).dist, serial::dijkstra(rebuilt, src));
}

TEST(EngineRebind, AutoDeltaRecomputedAfterRebind) {
  // The batched SSSP delta is derived from the bound graph's shape. After
  // a rebind to a different-shape graph, a batched SSSP must run with the
  // delta a fresh enactor derives for the *new* graph — a stale value would
  // silently change the near/far schedule across epochs.
  const Csr& small = grx::testing::power_law_serving_graph(9);   // below the
  // 4096-vertex batch gate: schedule off (delta 0)
  const Csr& big = grx::testing::power_law_serving_graph(12);    // gate open
  simt::Device dev;
  Engine eng(dev, small);
  const auto src_small = grx::testing::scattered_sources(small, 8);
  const auto src_big = grx::testing::scattered_sources(big, 8);

  const std::uint32_t d_small = eng.batch_sssp(src_small).delta;
  {
    simt::Device fresh;
    EXPECT_EQ(d_small, BatchEnactor(fresh).sssp(small, src_small).delta);
  }
  eng.rebind(big);
  const std::uint32_t d_big = eng.batch_sssp(src_big).delta;
  {
    simt::Device fresh;
    EXPECT_EQ(d_big, BatchEnactor(fresh).sssp(big, src_big).delta);
  }
  // The shapes genuinely disagree, so serving the stale delta would show.
  EXPECT_NE(d_small, d_big);
  eng.rebind(small);
  EXPECT_EQ(eng.batch_sssp(src_small).delta, d_small);
}

// --- reclamation under churn (the TSan arm) ---------------------------------

TEST(DynamicReclaim, StragglerBoundsSnapshotsOnceReleased) {
  const Csr& base = grx::testing::power_law_serving_graph(7);
  DynamicGraphOptions opt;
  opt.symmetric = true;
  opt.compact_every = 2;  // forced compactions while readers churn
  DynamicGraph dyn(base, opt);

  constexpr Epoch kBatches = 30;
  SnapshotView straggler = dyn.snapshot();  // pinned at epoch 0 throughout

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!done.load(std::memory_order_acquire)) {
        // Tight pin/unpin churn, with real reads of the snapshot's arrays
        // so the sanitizers see the publish/consume edges, and an
        // occasional full enact on the pinned view.
        SnapshotView v = dyn.snapshot();
        const Csr& g = v.csr();
        sink.fetch_add(g.num_edges(), std::memory_order_relaxed);
        if (g.num_edges() > 0) {
          sink.fetch_add(g.col_index(rng.next_below(g.num_edges())),
                         std::memory_order_relaxed);
        }
        if (rng.next_below(16) == 0) {
          simt::Device dev;
          Engine eng(dev, g);
          sink.fetch_add(eng.bfs(0).depth.back(), std::memory_order_relaxed);
        }
      }
    });
  }

  Rng wrng(42);
  RefModel ref = RefModel::from(straggler.csr());
  for (Epoch k = 1; k <= kBatches; ++k) {
    const std::vector<EdgeUpdate> batch = random_batch(wrng, ref, 8);
    dyn.apply_updates(batch);
    for (const EdgeUpdate& u : batch) ref.apply(u, true);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // The epoch-0 straggler blocked every retirement: all generations live.
  DynamicGraphStats s = dyn.stats();
  EXPECT_EQ(s.snapshots_created, kBatches + 1);
  EXPECT_EQ(s.live_snapshots, kBatches + 1);
  ASSERT_GE(s.compactions, kBatches / 2 - 1);

  // Release the straggler: the count collapses to the head alone.
  straggler.release();
  EXPECT_EQ(dyn.collect(), kBatches);
  s = dyn.stats();
  EXPECT_EQ(s.live_snapshots, 1u);
  EXPECT_EQ(s.snapshots_freed, kBatches);

  // And the survivor still matches the independently replayed graph.
  SnapshotView head = dyn.snapshot();
  expect_csr_equal(head.csr(), ref.to_csr(), "head after churn");
}

// --- the serving integration -------------------------------------------------

TEST(DynamicServer, ResultsAreEpochTaggedAndOracleExact) {
  const Csr& base = grx::testing::power_law_serving_graph(8);
  DynamicGraphOptions opt;
  opt.symmetric = true;
  DynamicGraph dyn(base, opt);
  RefModel ref = RefModel::from(dyn.snapshot().csr());

  ServerOptions so;
  so.num_workers = 2;
  so.omp_threads_per_worker = 1;
  grx::testing::ThreadRestorer tr;
  Server server(dyn, so);
  EXPECT_TRUE(server.dynamic());

  const VertexId src = grx::testing::scattered_sources(base, 1)[0];
  {
    QueryResult r = server.submit_bfs(src).get();
    EXPECT_EQ(r.epoch, 0u);
    EXPECT_EQ(r.depth, serial::bfs(ref.to_csr(), src));
  }

  Rng rng(31);
  const std::vector<EdgeUpdate> batch = random_batch(rng, ref, 16);
  EXPECT_EQ(server.apply_updates(batch), 1u);
  for (const EdgeUpdate& u : batch) ref.apply(u, true);
  {
    QueryResult r = server.submit_sssp(src).get();
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_EQ(r.dist, serial::dijkstra(ref.to_csr(), src));
  }

  const ServerStats s = server.stats();
  EXPECT_EQ(s.update_batches, 1u);
  EXPECT_EQ(s.updates_applied, batch.size());
  EXPECT_EQ(s.graph_epoch, 1u);
  EXPECT_GE(s.epoch_rebinds, 1u);

  server.stop();
  EXPECT_THROW(server.apply_updates(batch), CheckError);
}

TEST(DynamicServer, StaticServerRejectsMutations) {
  Server server(grx::testing::power_law_serving_graph(7), {});
  EXPECT_FALSE(server.dynamic());
  EXPECT_THROW(
      server.apply_updates(std::vector<EdgeUpdate>{EdgeUpdate::insert_edge(0, 1)}),
      CheckError);
  EXPECT_EQ(server.stats().graph_epoch, 0u);
}

TEST(DynamicServer, StalledReaderHoldsOldEpochThenReclaims) {
  // A FaultPlan kStall wedges the first enact mid-traversal while its
  // worker pins epoch 0; updates applied during the stall must all stay
  // live (the wedged reader could see them... the RETIRED ones it pinned,
  // conservatively all), then reclaim once the enact finishes.
  DynamicGraphOptions opt;
  opt.symmetric = true;
  opt.compact_every = 2;
  DynamicGraph dyn(grx::testing::deep_serving_graph(), opt);
  RefModel ref = RefModel::from(dyn.snapshot().csr());

  auto plan = std::make_shared<FaultPlan>();
  plan->script = {FaultSpec{FaultKind::kStall, 2, 100000}};  // 100 ms

  ServerOptions so;
  so.num_workers = 1;
  so.faults = plan;
  Server server(dyn, so);

  QueryTicket t = server.submit_bfs(0);
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (server.stats().enacts < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "worker never picked up the query";
    std::this_thread::sleep_for(1ms);
  }

  // The worker holds its dequeue-time pin at epoch 0; publish 6 epochs.
  Rng rng(8);
  for (int k = 0; k < 6; ++k) {
    const std::vector<EdgeUpdate> batch = random_batch(rng, ref, 4);
    server.apply_updates(batch);
    for (const EdgeUpdate& u : batch) ref.apply(u, true);
  }

  QueryResult r = t.get();
  EXPECT_EQ(r.epoch, 0u) << "the stalled query serves its pinned epoch";

  // The worker releases its pin after execute() returns, which is
  // strictly later than the ticket resolving — reclamation is eventual,
  // so poll collect() until the straggler's snapshots drain.
  const auto reclaim_deadline = std::chrono::steady_clock::now() + 5s;
  while (true) {
    dyn.collect();
    if (dyn.stats().live_snapshots == 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), reclaim_deadline)
        << "straggler pin never released";
    std::this_thread::sleep_for(1ms);
  }
  const DynamicGraphStats s = dyn.stats();
  EXPECT_EQ(s.live_snapshots, 1u);
  EXPECT_EQ(s.snapshots_created, 7u);
  EXPECT_GE(s.compactions, 2u);

  // The head still byte-matches the independent replay.
  SnapshotView head = dyn.snapshot();
  expect_csr_equal(head.csr(), ref.to_csr(), "head after stalled straggler");
  server.stop();
}

}  // namespace
}  // namespace grx
