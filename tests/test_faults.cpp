// The robustness contract (docs/api.md, "Failure semantics"), proven by
// deterministic fault injection — every failure path below is forced by a
// seeded FaultPlan riding the cooperative cancel token's round hook, not
// by wall-clock racing:
//
//  1. Cooperative stop: a cancelled token or expired deadline stops an
//     enactment between BSP rounds with a typed error (CancelledError /
//     DeadlineExceededError) and leaves the engine warm and reusable.
//  2. Serving outcomes: every submitted query's ticket resolves — served
//     (possibly `late`), shed, cancelled, deadline-exceeded, or
//     worker-failed — and ServerStats counts each exactly once
//     (accounting identity: submitted == served + shed + cancelled
//     + deadline_exceeded + worker_failures).
//  3. Bounded admission: a full queue rejects or blocks per policy;
//     rejections happen in the submitting thread and never mint tickets.
//  4. The watchdog: a worker dying on a foreign exception mid-enact fails
//     only its own in-flight tickets (WorkerFailedError) and is respawned
//     with a fresh engine — the server keeps serving.
//
// This suite runs under both sanitizers in CI: the failure paths must be
// as race- and leak-free as the happy path.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "api/faults.hpp"
#include "api/server.hpp"
#include "core/cancel.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

using namespace std::chrono_literals;
/// The hoisted power-law serving fixture (test_common.hpp), one scale
/// below test_server's so faulted enacts stay fast.
const Csr& serving_graph() { return testing::power_law_serving_graph(9); }

/// A graph with a deep BFS frontier (many rounds), so faults pinned to
/// round >= 2 reliably fire.
const Csr& deep_graph() { return testing::deep_serving_graph(); }

/// Spin until the server has started `n` enacts (the stat is bumped just
/// before the engine runs, so this observes "a worker picked the query
/// up"), bounded so a wedged server fails the test instead of hanging it.
void wait_for_enacts(const Server& s, std::uint64_t n) {
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (s.stats().enacts < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "worker never picked up the query";
    std::this_thread::sleep_for(1ms);
  }
}

std::shared_ptr<const FaultPlan> plan_of(std::vector<FaultSpec> script) {
  auto p = std::make_shared<FaultPlan>();
  p->script = std::move(script);
  return p;
}

void expect_identity(const ServerStats& s) {
  EXPECT_EQ(s.queries_submitted, s.queries_served + s.shed + s.cancelled +
                                     s.deadline_exceeded + s.worker_failures);
  // The result cache extends the identity without adding outcome terms:
  // hits and dedup-attached tickets resolve under `served` (or their own
  // cancel/deadline outcome), never under a new bucket.
  EXPECT_LE(s.cache_hits, s.queries_served);
}

// --- CancelToken -------------------------------------------------------------

TEST(CancelToken, InertDefaultNeverStops) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.stop_reason(), StopReason::kNone);
  EXPECT_NO_THROW(t.checkpoint(0));
  EXPECT_NO_THROW(t.cancel());  // no shared state: documented no-op
}

TEST(CancelToken, CancelTripsCheckpoint) {
  CancelToken t = CancelToken::make();
  EXPECT_NO_THROW(t.checkpoint(0));
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.stop_reason(), StopReason::kCancelled);
  EXPECT_THROW(t.checkpoint(3), CancelledError);
}

TEST(CancelToken, ExpiredDeadlineTripsCheckpoint) {
  CancelToken t = CancelToken::with_budget(0us);
  EXPECT_EQ(t.stop_reason(), StopReason::kDeadline);
  EXPECT_THROW(t.checkpoint(0), DeadlineExceededError);
  // Cancellation outranks the deadline in the stop reason.
  t.cancel();
  EXPECT_EQ(t.stop_reason(), StopReason::kCancelled);
}

TEST(CancelToken, ChildTripsWithParentNotViceVersa) {
  CancelToken parent = CancelToken::make();
  CancelToken child = CancelToken::child_of(parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());

  CancelToken p2 = CancelToken::make();
  CancelToken c2 = CancelToken::child_of(p2);
  c2.cancel();
  EXPECT_TRUE(c2.cancelled());
  EXPECT_FALSE(p2.cancelled());
  // A child's deadline is its own: the parent stays deadline-free.
  c2.set_deadline(std::chrono::steady_clock::now());
  EXPECT_FALSE(p2.has_deadline());
}

// Deterministic replays of the interleavings the model checker explores
// exhaustively (tests/model/model_cancel.cpp): each test pins one ordering
// of the parent-cancel vs child-lifecycle race as a plain regression.

TEST(CancelToken, ParentCancelledBetweenChildOfAndFirstCheckpoint) {
  CancelToken parent = CancelToken::make();
  CancelToken child = CancelToken::child_of(parent);
  // The racing cancel lands after the child exists but before it ever
  // reaches a checkpoint: the very first checkpoint must trip.
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.stop_reason(), StopReason::kCancelled);
  EXPECT_THROW(child.checkpoint(0), CancelledError);
}

TEST(CancelToken, ChildOfAlreadyCancelledParentIsBornTripped) {
  CancelToken parent = CancelToken::make();
  parent.cancel();
  // The other ordering: the cancel wins the race with child_of entirely.
  CancelToken late = CancelToken::child_of(parent);
  EXPECT_TRUE(late.cancelled());
  EXPECT_THROW(late.checkpoint(0), CancelledError);
}

TEST(CancelToken, GrandchildSeesAncestorCancelAndAncestorDeadline) {
  CancelToken root = CancelToken::make();
  CancelToken mid = CancelToken::child_of(root);
  CancelToken leaf = CancelToken::child_of(mid);
  EXPECT_NO_THROW(leaf.checkpoint(0));
  root.cancel();  // two hops up the ancestor chain
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_THROW(leaf.checkpoint(1), CancelledError);

  CancelToken r2 = CancelToken::with_budget(0us);
  CancelToken leaf2 = CancelToken::child_of(CancelToken::child_of(r2));
  EXPECT_EQ(leaf2.stop_reason(), StopReason::kDeadline);
  EXPECT_THROW(leaf2.checkpoint(0), DeadlineExceededError);
}

TEST(CancelToken, AncestorCancelOutranksOwnExpiredDeadline) {
  CancelToken parent = CancelToken::make();
  CancelToken child = CancelToken::child_of(parent);
  child.set_deadline(std::chrono::steady_clock::now());  // already expired
  EXPECT_EQ(child.stop_reason(), StopReason::kDeadline);
  parent.cancel();
  // Both stop causes now apply; cancellation must win the typed report.
  EXPECT_EQ(child.stop_reason(), StopReason::kCancelled);
  EXPECT_THROW(child.checkpoint(0), CancelledError);
}

TEST(CancelToken, CopiesShareStateAndChildrenFollowTheSharedState) {
  CancelToken original = CancelToken::make();
  CancelToken copy = original;            // copies alias one CancelShared
  CancelToken child = CancelToken::child_of(copy);
  copy.cancel();                          // cancel through the alias
  EXPECT_TRUE(original.cancelled());
  EXPECT_TRUE(child.cancelled());
  EXPECT_THROW(child.checkpoint(0), CancelledError);
}

TEST(CancelToken, RoundHookCancelMakesMidEnactCancelDeterministic) {
  // The hook injects the cancel between checkpoints 1 and 2 — the same
  // mechanism EngineCancel.ForcedCancelAtChosenRound relies on, asserted
  // here directly at the token layer.
  CancelToken t = CancelToken::make();
  t.set_round_hook([](detail::CancelShared& s, std::uint32_t round) {
    if (round == 2) s.cancelled.store(true, std::memory_order_release);
  });
  EXPECT_NO_THROW(t.checkpoint(0));
  EXPECT_NO_THROW(t.checkpoint(1));
  EXPECT_THROW(t.checkpoint(2), CancelledError);
  EXPECT_TRUE(t.cancelled());
}

// --- FaultPlan ---------------------------------------------------------------

TEST(FaultPlan, DrawIsPureAndDeterministic) {
  FaultPlan plan;
  plan.seed = 42;
  plan.p_alloc = 0.1;
  plan.p_throw = 0.2;
  plan.p_stall = 0.2;
  plan.p_cancel = 0.3;
  plan.p_crash = 0.1;
  bool any_fault = false;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const FaultSpec a = plan.draw(i);
    const FaultSpec b = plan.draw(i);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.round, b.round);
    EXPECT_LT(a.round, plan.max_round);
    any_fault |= a.kind != FaultKind::kNone;
  }
  EXPECT_TRUE(any_fault);
}

TEST(FaultPlan, ScriptConsumedInOrderThenRandom) {
  FaultPlan plan;
  plan.script = {{FaultKind::kWorkerCrash, 2, 0}, {FaultKind::kNone, 0, 0}};
  EXPECT_EQ(plan.draw(0).kind, FaultKind::kWorkerCrash);
  EXPECT_EQ(plan.draw(0).round, 2u);
  EXPECT_EQ(plan.draw(1).kind, FaultKind::kNone);
  // Past the script with all rates zero: fault-free forever.
  EXPECT_EQ(plan.draw(2).kind, FaultKind::kNone);
  EXPECT_EQ(plan.draw(1000).kind, FaultKind::kNone);
}

TEST(FaultPlan, CertainRateAlwaysFires) {
  FaultPlan plan;
  plan.p_cancel = 1.0;
  for (std::uint64_t i = 0; i < 50; ++i)
    EXPECT_EQ(plan.draw(i).kind, FaultKind::kCancel);
}

// --- Engine-level cooperative stop ------------------------------------------

TEST(EngineCancel, PreCancelledTokenStopsAndEngineStaysWarm) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  const std::vector<std::uint32_t> want = eng.bfs(0).depth;

  QueryOptions opts;
  opts.cancel = CancelToken::make();
  opts.cancel.cancel();
  EXPECT_THROW(eng.bfs(0, opts), CancelledError);

  // The stop left pooled state for the next begin_enact to reset: the
  // same engine immediately serves the same query correctly.
  EXPECT_EQ(eng.bfs(0).depth, want);
}

TEST(EngineCancel, ExpiredDeadlineStopsTyped) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions opts;
  opts.cancel = CancelToken::with_budget(0us);
  EXPECT_THROW(eng.sssp(0, opts), DeadlineExceededError);
  EXPECT_NO_THROW(eng.sssp(0));
}

TEST(EngineCancel, ForcedCancelAtChosenRound) {
  const Csr& g = deep_graph();
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions opts;
  opts.cancel = CancelToken::make();
  arm_fault({FaultKind::kCancel, 2, 0}, opts.cancel);
  EXPECT_THROW(eng.bfs(0, opts), CancelledError);
  EXPECT_EQ(eng.bfs(0).depth, Engine(dev, g).bfs(0).depth);
}

TEST(EngineCancel, InjectedThrowPropagatesAndEngineRecovers) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  const std::vector<std::uint32_t> want = eng.bfs(3).depth;
  QueryOptions opts;
  opts.cancel = CancelToken::make();
  arm_fault({FaultKind::kEnactThrow, 1, 0}, opts.cancel);
  EXPECT_THROW(eng.bfs(3, opts), InjectedFault);
  // The reentry guard released on unwind and begin_enact resets pooled
  // state: the engine is reusable even after a foreign mid-enact throw.
  EXPECT_EQ(eng.bfs(3).depth, want);
}

TEST(EngineCancel, StallComposesWithDeadline) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions opts;
  opts.cancel = CancelToken::with_budget(50ms);
  // The stall outlasts the budget, so the very next checkpoint trips the
  // deadline — no wall-clock racing, the ordering is forced.
  arm_fault({FaultKind::kStall, 0, 200000}, opts.cancel);
  EXPECT_THROW(eng.bfs(0, opts), DeadlineExceededError);
}

// --- Server: deadlines, shedding, cancellation ------------------------------

TEST(ServerFaults, PreSubmitCancelResolvesCancelled) {
  Server server(serving_graph(), {});
  QueryRequest req{QueryKind::kBfs, 0, {}};
  req.cancel = CancelToken::make();
  req.cancel.cancel();  // cancelled before the server ever sees it
  QueryTicket t = server.submit(req);
  EXPECT_THROW(t.get(), CancelledError);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.queries_served, 0u);
  expect_identity(s);
}

TEST(ServerFaults, QueuedQueryPastBudgetIsShed) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kStall, 0, 400000}});  // wedge enact 0
  Server server(serving_graph(), so);

  QueryTicket blocker = server.submit_bfs(0);
  wait_for_enacts(server, 1);  // the worker is now stalled mid-enact

  QueryRequest victim{QueryKind::kBfs, 1, {}};
  victim.deadline_us = 1000;  // 1ms budget, ~400ms queue wait: dead on pop
  QueryTicket t = server.submit(victim);

  EXPECT_NO_THROW(blocker.get());
  EXPECT_TRUE(t.wait_for(5s));
  EXPECT_EQ(t.outcome(), QueryOutcome::kDeadlineExceeded);
  EXPECT_THROW(t.get(), DeadlineExceededError);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.queries_served, 1u);
  expect_identity(s);
}

TEST(ServerFaults, NoDeadlineSentinelEscapesServerDefault) {
  // Regression: deadline_us == 0 used to be both the "no deadline" and
  // the "use the server default" spelling, so once default_deadline_us
  // was set a client could not opt out of deadlines at all. kNoDeadline
  // is the explicit opt-out; 0 keeps meaning "server default".
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.default_deadline_us = 1000;  // 1 ms default — lethal behind the stall
  so.faults = plan_of({{FaultKind::kStall, 0, 400000}});
  Server server(serving_graph(), so);

  QueryRequest unbounded{QueryKind::kBfs, 0, {}};
  unbounded.deadline_us = QueryRequest::kNoDeadline;
  QueryTicket tn = server.submit(unbounded);  // wedged 400 ms, but immortal
  wait_for_enacts(server, 1);

  QueryRequest dflt{QueryKind::kBfs, 1, {}};  // 0 = inherit the 1 ms default
  QueryTicket td = server.submit(dflt);

  const QueryResult rn = tn.get();  // would be DeadlineExceeded pre-fix
  EXPECT_FALSE(rn.late) << "no budget means never late";
  EXPECT_TRUE(td.wait_for(5s));
  EXPECT_EQ(td.outcome(), QueryOutcome::kDeadlineExceeded);
  EXPECT_THROW(td.get(), DeadlineExceededError);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.queries_served, 1u);
  EXPECT_EQ(s.shed, 1u);
  expect_identity(s);
}

TEST(ServerFaults, SoloDeadlineTripsMidEnact) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kStall, 0, 400000}});
  Server server(serving_graph(), so);

  QueryRequest req{QueryKind::kBfs, 0, {}};
  req.deadline_us = 80000;  // alive at pickup, expired after the stall
  QueryTicket t = server.submit(req);
  EXPECT_THROW(t.get(), DeadlineExceededError);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.shed, 0u);
  expect_identity(s);
}

TEST(ServerFaults, ForcedCancelMidEnactResolvesCancelled) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kCancel, 1, 0}});
  Server server(serving_graph(), so);
  QueryTicket t = server.submit_bfs(0);
  EXPECT_TRUE(t.wait_for(5s));
  EXPECT_EQ(t.outcome(), QueryOutcome::kCancelled);
  EXPECT_THROW(t.get(), CancelledError);
  server.stop();
  EXPECT_EQ(server.stats().cancelled, 1u);
  expect_identity(server.stats());
}

TEST(ServerFaults, FusedLanePastOwnBudgetIsServedLate) {
  ServerOptions so;
  so.num_workers = 1;
  so.coalesce_window_us = 20000;  // hold the batch open to force fusion
  so.faults = plan_of({{FaultKind::kStall, 0, 600000}});
  Server server(serving_graph(), so);

  // A has a personal budget; B has none, so the fused enact has no
  // whole-batch deadline and runs to completion through the stall. A's
  // budget expires mid-enact — a fused lane cannot stop alone, so A is
  // served exact-but-late rather than erroring.
  QueryRequest a{QueryKind::kBfs, 0, {}};
  a.deadline_us = 150000;
  QueryTicket ta = server.submit(a);
  QueryTicket tb = server.submit_bfs(1);

  QueryResult ra = ta.get();
  QueryResult rb = tb.get();
  ASSERT_EQ(ra.batch_lanes, 2u) << "queries did not fuse";
  EXPECT_TRUE(ra.late);
  EXPECT_FALSE(rb.late);

  // Late is a latency fact, not a correctness one: bytes equal the serial
  // oracle's.
  simt::Device dev;
  Engine oracle(dev, serving_graph());
  EXPECT_EQ(ra.depth, oracle.bfs(0).depth);
  EXPECT_EQ(rb.depth, oracle.bfs(1).depth);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.late, 1u);
  EXPECT_EQ(s.queries_served, 2u);
  expect_identity(s);
}

TEST(ServerFaults, FusedBatchStopsAtMaxMemberDeadline) {
  ServerOptions so;
  so.num_workers = 1;
  so.coalesce_window_us = 10000;
  so.faults = plan_of({{FaultKind::kStall, 0, 500000}});
  Server server(serving_graph(), so);

  // Both members carry budgets, so the enact itself gets deadline =
  // max(60ms, 100ms); the 500ms stall trips it at the next round and
  // both members classify as deadline-exceeded.
  QueryRequest a{QueryKind::kBfs, 0, {}};
  a.deadline_us = 60000;
  QueryRequest b{QueryKind::kBfs, 1, {}};
  b.deadline_us = 100000;
  QueryTicket ta = server.submit(a);
  QueryTicket tb = server.submit(b);
  EXPECT_THROW(ta.get(), DeadlineExceededError);
  EXPECT_THROW(tb.get(), DeadlineExceededError);
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.deadline_exceeded, 2u);
  expect_identity(s);
}

TEST(ServerFaults, CoalesceWindowClosesAtEarliestMemberDeadline) {
  ServerOptions so;
  so.num_workers = 1;
  so.coalesce_window_us = 1000000;  // a 1s window nothing should wait for
  Server server(serving_graph(), so);

  // A's 100ms budget is the earliest member deadline, so the batch must
  // close at ~100ms — not at the 1s window expiry. A is shed exactly at
  // its deadline (prompt typed resolution beats being served very late);
  // B, deadline-free, must not be held hostage by the window either.
  QueryRequest a{QueryKind::kBfs, 0, {}};
  a.deadline_us = 100000;
  QueryTicket ta = server.submit(a);
  QueryTicket tb = server.submit_bfs(1);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(ta.get(), DeadlineExceededError);
  const QueryResult rb = tb.get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 600ms) << "batch was held open past a member deadline";
  EXPECT_EQ(rb.batch_lanes, 1u);  // A was shed before occupying a lane
  server.stop();
  expect_identity(server.stats());
}

// --- Server: watchdog --------------------------------------------------------

TEST(ServerFaults, WatchdogFailsTicketsAndRespawnsWorker) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kWorkerCrash, 0, 0}});
  Server server(serving_graph(), so);

  // Satellite regression: a ticket whose worker died must still resolve —
  // wait_for observes it without risking an indefinite block.
  QueryTicket t = server.submit_bfs(0);
  ASSERT_TRUE(t.wait_for(5s));
  EXPECT_EQ(t.outcome(), QueryOutcome::kWorkerFailed);
  auto r = std::optional<QueryResult>{};
  EXPECT_THROW(r = t.try_get(), WorkerFailedError);

  // The respawned worker serves correctly on a fresh engine.
  QueryResult ok = server.submit_bfs(3).get();
  simt::Device dev;
  Engine oracle(dev, serving_graph());
  EXPECT_EQ(ok.depth, oracle.bfs(3).depth);

  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.worker_failures, 1u);
  EXPECT_EQ(s.worker_respawns, 1u);
  EXPECT_EQ(s.queries_served, 1u);
  expect_identity(s);
}

TEST(ServerFaults, WatchdogHandlesMidEnactAllocFailure) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kAllocFailure, 0, 0}});
  Server server(serving_graph(), so);
  QueryTicket t = server.submit_bfs(0);
  EXPECT_THROW(t.get(), WorkerFailedError);
  EXPECT_NO_THROW(server.submit_bfs(1).get());
  server.stop();
  EXPECT_EQ(server.stats().worker_respawns, 1u);
  expect_identity(server.stats());
}

TEST(ServerFaults, InjectedThrowFailsOnlyThatBatch) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kEnactThrow, 1, 0}});
  Server server(serving_graph(), so);
  QueryTicket bad = server.submit_bfs(0);
  QueryTicket good = server.submit_bfs(1);
  EXPECT_THROW(bad.get(), WorkerFailedError);
  EXPECT_NO_THROW(good.get());
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.worker_failures, 1u);
  EXPECT_EQ(s.queries_served, 1u);
  expect_identity(s);
}

// --- Server: bounded admission ----------------------------------------------

TEST(ServerFaults, RejectPolicyShedsAtTheDoor) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.max_queue = 1;
  so.admission = AdmissionPolicy::kReject;
  so.faults = plan_of({{FaultKind::kStall, 0, 500000}});
  Server server(serving_graph(), so);

  QueryTicket blocker = server.submit_bfs(0);
  wait_for_enacts(server, 1);
  QueryTicket queued = server.submit_bfs(1);  // fills the only slot
  EXPECT_THROW(server.submit_bfs(2), RejectedError);

  EXPECT_NO_THROW(blocker.get());
  EXPECT_NO_THROW(queued.get());
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queries_submitted, 2u);  // the rejection never got a ticket
  EXPECT_EQ(s.queries_served, 2u);
  expect_identity(s);
}

TEST(ServerFaults, BlockPolicyTimesOutTyped) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.max_queue = 1;
  so.admission = AdmissionPolicy::kBlock;
  so.admission_timeout_us = 30000;  // << the 500ms the worker is wedged
  so.faults = plan_of({{FaultKind::kStall, 0, 500000}});
  Server server(serving_graph(), so);

  QueryTicket blocker = server.submit_bfs(0);
  wait_for_enacts(server, 1);
  QueryTicket queued = server.submit_bfs(1);
  EXPECT_THROW(server.submit_bfs(2), RejectedError);
  EXPECT_NO_THROW(blocker.get());
  EXPECT_NO_THROW(queued.get());
  server.stop();
  EXPECT_EQ(server.stats().rejected, 1u);
  expect_identity(server.stats());
}

TEST(ServerFaults, BlockPolicyAdmitsWhenASlotFrees) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.max_queue = 1;
  so.admission = AdmissionPolicy::kBlock;  // no timeout: wait for the slot
  so.faults = plan_of({{FaultKind::kStall, 0, 250000}});
  Server server(serving_graph(), so);

  QueryTicket blocker = server.submit_bfs(0);
  wait_for_enacts(server, 1);
  QueryTicket queued = server.submit_bfs(1);
  QueryTicket waited = server.submit_bfs(2);  // blocks ~250ms, then admits
  EXPECT_NO_THROW(blocker.get());
  EXPECT_NO_THROW(queued.get());
  EXPECT_NO_THROW(waited.get());
  server.stop();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.queries_served, 3u);
  expect_identity(s);
}

// --- Ticket API + accounting -------------------------------------------------

TEST(ServerFaults, TicketApiReportsPendingStatesHonestly) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.faults = plan_of({{FaultKind::kStall, 0, 300000}});
  Server server(serving_graph(), so);

  QueryTicket t = server.submit_bfs(0);
  EXPECT_EQ(t.outcome(), QueryOutcome::kPending);
  EXPECT_FALSE(t.wait_for(1ms));  // still wedged
  EXPECT_FALSE(t.try_get().has_value());
  EXPECT_TRUE(t.valid());  // a nullopt try_get does not consume

  QueryResult r = t.get();
  EXPECT_EQ(r.kind, QueryKind::kBfs);
  EXPECT_FALSE(t.valid());
  server.stop();
}

TEST(ServerFaults, AccountingIdentityAcrossMixedOutcomes) {
  ServerOptions so;
  so.num_workers = 1;
  so.max_batch = 1;
  so.max_queue = 2;
  so.admission = AdmissionPolicy::kReject;
  so.faults = plan_of({{FaultKind::kStall, 0, 300000}});
  Server server(serving_graph(), so);

  QueryTicket served = server.submit_bfs(0);
  wait_for_enacts(server, 1);

  QueryRequest doomed{QueryKind::kBfs, 1, {}};
  doomed.deadline_us = 500;  // expires while the worker is wedged
  QueryTicket shed = server.submit(doomed);

  QueryRequest quit{QueryKind::kBfs, 2, {}};
  quit.cancel = CancelToken::make();
  QueryTicket cancelled = server.submit(quit);
  quit.cancel.cancel();

  EXPECT_THROW(server.submit_bfs(3), RejectedError);  // queue is full

  server.stop();  // drains: serves, sheds, and cancels the above
  EXPECT_NO_THROW(served.get());
  EXPECT_THROW(shed.get(), DeadlineExceededError);
  EXPECT_THROW(cancelled.get(), CancelledError);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.queries_submitted, 3u);
  EXPECT_EQ(s.queries_served, 1u);
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.rejected, 1u);
  expect_identity(s);
}

}  // namespace
}  // namespace grx
