// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out <dir>]
//
// One seeded process per workload (perfbench/README.md says why each
// exists and which layer metric should move which end-to-end metric):
//
//   analytics-powerlaw    the paper's use: BFS (direction-optimal), SSSP,
//                         BC, CC and PageRank one query at a time on a
//                         warm grx::Engine over rmat scale 16.
//   serve-powerlaw        a 75/25 BFS/SSSP mix from uniform sources to a
//                         grx::Server over rmat scale 13, cache off.
//   serve-powerlaw-churn  the same mix from Zipf-skewed sources to a
//                         cached server over a DynamicGraph while a writer
//                         applies fixed-size update batches on a cadence.
//
// Every layer is measured from outside, by timing calls into public
// functions and reading public counters. With --trace 0 the last stdout
// line carries the end-to-end metrics; with --trace 1 the measured round
// runs twice, untraced then traced, and the last line carries the
// per-layer metrics, each traced layer's self time and the tracing
// overhead (traced minus untraced end-to-end values). Spans stay in memory
// and are written to <out>/trace-<workload>-<seed>.jsonl at exit.
//
// Outputs are checked against baselines/serial outside the timed regions.
// A mismatch, a failed query or a workload-shape guard trips `correct`
// and the exit code.
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "api/server.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "simt/vec.hpp"
#include "util/rng.hpp"

namespace {

using namespace grx;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation: span times are written relative to it.
const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration after_s(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}
double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// FNV-1a over 32-bit words: what the output checks keep of an exact
/// result, so the harness's memory does not grow with what it checks.
std::uint64_t digest(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ v.size();
  for (std::uint32_t x : v) h = (h ^ x) * 0x100000001b3ull;
  return h;
}

// --- tracing -----------------------------------------------------------------

// Harness-side spans around every call into a layer's public functions.
// The layer is the span name up to its last '.', so "api.engine.bfs"
// belongs to api.engine. Off (every call a no-op) in untraced rounds.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    const char* name;
    Clock::time_point start, end;
    std::uint32_t parent;
    std::uint64_t req;
  };

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Opens a span now (or at `start`); returns its id, kNoParent when off.
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent,
                     std::uint64_t req = 0,
                     Clock::time_point start = Clock::now()) {
    if (!on()) return kNoParent;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, start, parent, req});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id, Clock::time_point end = Clock::now()) {
    if (id == kNoParent) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = end;
  }
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint32_t parent = kNoParent, std::uint64_t req = 0) {
    close(open(name, parent, req, start), end);
  }

  /// Sum over spans of their self time (duration minus the union of their
  /// direct children), grouped by layer.
  std::map<std::string, double> self_seconds_by_layer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::uint32_t>> kids(spans_.size());
    for (std::uint32_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent != kNoParent) kids[spans_[i].parent].push_back(i);
    std::map<std::string, double> out;
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (std::uint32_t k : kids[i])
        iv.emplace_back(std::max(spans_[k].start, s.start),
                        std::min(spans_[k].end, s.end));
      std::sort(iv.begin(), iv.end());
      double covered = 0;
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const auto lo = std::max(a, reach);
        if (b > lo) {
          covered += seconds_between(lo, b);
          reach = b;
        }
      }
      out[layer_of(s.name)] += seconds_between(s.start, s.end) - covered;
    }
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// One JSON object per line: name, start/end in µs since process start,
  /// id, parent (-1 for a root) and request id.
  void write(const std::filesystem::path& file) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(file);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"name\":\"" << s.name << "\",\"start_us\":"
         << seconds_between(g_process_start, s.start) * 1e6
         << ",\"end_us\":" << seconds_between(g_process_start, s.end) * 1e6
         << ",\"id\":" << i << ",\"parent\":"
         << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
         << ",\"req\":" << s.req << "}\n";
    }
  }

  static std::string layer_of(const char* name) {
    const std::string n(name);
    const auto dot = n.rfind('.');
    return dot == std::string::npos ? n : n.substr(0, dot);
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      std::uint32_t parent = Tracer::kNoParent,
                      std::uint64_t req = 0)
      : id_(g_tracer.open(name, parent, req)) {}
  ~ScopedSpan() { g_tracer.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operation counts, shared by the generator, collectors and writer.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<bool> shape_ok{true};
  std::mutex mu;
  std::vector<std::string> notes;  ///< why a check failed, for stderr

  void fail(std::uint64_t n, std::string why) {
    failed += n;
    note(std::move(why));
  }
  void guard_tripped(std::string why) {
    shape_ok = false;
    note(std::move(why));
  }
  void note(std::string why) {
    std::lock_guard<std::mutex> lock(mu);
    notes.push_back(std::move(why));
  }
};

// --- graphs -----------------------------------------------------------------

struct GraphBuild {
  Csr graph;
  double generate_s = 0;
  double build_s = 0;
};

/// Symmetrized, weighted rmat: the paper's power-law input class.
GraphBuild make_rmat(std::uint32_t scale, std::uint64_t seed,
                     std::uint32_t parent) {
  GraphBuild out;
  auto t0 = Clock::now();
  EdgeList el;
  {
    ScopedSpan s("graph.generate", parent);
    el = rmat(scale, 16, seed);
  }
  auto t1 = Clock::now();
  {
    ScopedSpan s("graph.build", parent);
    BuildOptions bo;
    bo.symmetrize = true;
    out.graph = with_random_weights(build_csr(el, bo), seed ^ 0x5eed);
  }
  auto t2 = Clock::now();
  out.generate_s = seconds_between(t0, t1);
  out.build_s = seconds_between(t1, t2);
  return out;
}

/// `count` seeded picks from the graph's largest component, so every
/// rotating source does comparable work.
std::vector<VertexId> giant_component_sources(const Csr& g,
                                              const std::vector<VertexId>& cc,
                                              std::uint32_t count,
                                              std::uint64_t seed) {
  std::map<VertexId, std::uint64_t> sizes;
  for (VertexId label : cc) ++sizes[label];
  VertexId giant = 0;
  std::uint64_t best = 0;
  for (const auto& [label, size] : sizes)
    if (size > best) best = size, giant = label;
  std::vector<VertexId> members;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (cc[v] == giant) members.push_back(v);
  Rng rng(seed);
  std::vector<VertexId> out;
  while (out.size() < count)
    out.push_back(members[rng.next_below(members.size())]);
  return out;
}

// --- the Engine phase (analytics; prim-time probe of the serve workloads) ----

enum Prim : int { kBfsP, kSsspP, kBcP, kCcP, kPrP, kNumPrims };
const char* const kPrimNames[kNumPrims] = {"bfs", "sssp", "bc", "cc", "pr"};
const char* const kPrimSpans[kNumPrims] = {
    "api.engine.bfs", "api.engine.sssp", "api.engine.bc", "api.engine.cc",
    "api.engine.pagerank"};
constexpr std::uint32_t kPrIterations = 20;
/// Rotating Engine sources per run: enough that the per-seed draw moves
/// the medians little.
constexpr std::uint32_t kSources = 16;
/// Back-to-back calls per timed sample (PageRank: 1, it runs far above a
/// millisecond on every graph here), so no sample is a single
/// sub-millisecond timing, even after a large speed-up.
constexpr std::uint32_t kGroup = 8;

/// Kernels that together make up over 90% of a pass's device time on the
/// analytics graph (from Device::kernel_log()); reported per pass.
const char* const kKernels[] = {
    "advance_lb_edges", "advance_lb_nodes", "filter", "scan",
    "gather_degrees", "compute", "filter_edges", "compute_all",
    "pr_dangling"};

struct PrimAgg {
  std::vector<double> sample_ms;  ///< one per timed group, per call
  std::uint64_t calls = 0;
  double device_ms = 0, launches = 0, warp_eff = 0, iterations = 0,
         edges = 0, pull_rounds = 0;

  void add(const EnactSummary& s) {
    ++calls;
    device_ms += s.device_time_ms;
    launches += static_cast<double>(s.counters.kernel_launches);
    warp_eff += s.counters.warp_efficiency();
    iterations += s.iterations;
    edges += static_cast<double>(s.edges_processed);
    for (const auto& it : s.per_iteration) pull_rounds += it.used_pull;
  }
  double mean(double total) const {
    return calls ? total / static_cast<double>(calls) : 0.0;
  }
};

struct EnginePhaseResult {
  PrimAgg prim[kNumPrims];
  std::vector<double> pass_device_ms;
  std::map<std::string, double> kernel_us;  ///< summed over all calls
  std::uint64_t passes = 0;
  std::uint64_t rotation = 0;  ///< next source index, kept across slices
  double wall_s = 0;
};

/// Reference results per (primitive, source): every call is compared with
/// the first result for its source; the first result is compared with the
/// serial oracle once, after the timed phases. Exact results are kept as
/// digests.
struct EngineRefs {
  std::map<VertexId, std::uint64_t> bfs, sssp;
  std::map<VertexId, std::vector<double>> bc;
  std::vector<VertexId> cc;
  std::vector<double> pr;
  std::map<std::pair<int, VertexId>, std::uint64_t> calls, mismatches;
};

bool near(const std::vector<double>& a, const std::vector<double>& b,
          double rel) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(std::abs(a[i] - b[i]) <= rel * std::max(1.0, std::abs(b[i]))))
      return false;
  return true;
}
constexpr double kBcTol = 1e-6;
constexpr double kPrTol = 1e-10;

template <typename Vec, typename Eq>
void check_ref(EngineRefs& refs, std::map<VertexId, Vec>& store, int prim,
               VertexId src, const Vec& got, Eq eq) {
  const auto key = std::make_pair(prim, src);
  ++refs.calls[key];
  auto it = store.find(src);
  if (it == store.end())
    store.emplace(src, got);
  else if (!eq(got, it->second))
    ++refs.mismatches[key];
}

/// Runs passes of the five primitives for `seconds` (at least one),
/// accumulating into `r`. Each primitive is timed as a group of kGroup
/// back-to-back calls on rotating sources (PageRank: one call).
void run_engine_phase(Engine& engine, simt::Device& dev,
                      const std::vector<VertexId>& sources, double seconds,
                      EngineRefs& refs, Tally& tally, EnginePhaseResult& r) {
  std::vector<BfsResult> bfs(kGroup);
  std::vector<SsspResult> sssp(kGroup);
  std::vector<BcResult> bc(kGroup);
  std::vector<CcResult> cc(kGroup);
  std::vector<PagerankResult> pr(kGroup);
  QueryOptions bfs_opts;
  bfs_opts.direction = Direction::kOptimal;
  QueryOptions pr_opts;
  pr_opts.epsilon = 0.0;
  pr_opts.max_iterations = kPrIterations;
  const QueryOptions plain;
  dev.set_profiling(g_tracer.on());

  const auto start = Clock::now();
  const auto deadline = start + after_s(seconds);
  for (bool first = true; first || Clock::now() < deadline; first = false) {
    double pass_device = 0;
    for (int p = 0; p < kNumPrims; ++p) {
      const std::uint32_t n = p == kPrP ? 1 : kGroup;
      std::vector<VertexId> src(n);
      for (auto& s : src) s = sources[r.rotation++ % sources.size()];
      const auto t0 = Clock::now();
      for (std::uint32_t j = 0; j < n; ++j) {
        ScopedSpan span(kPrimSpans[p]);
        tally.attempted++;
        try {
          switch (p) {
            case kBfsP: engine.bfs(src[j], bfs[j], bfs_opts); break;
            case kSsspP: engine.sssp(src[j], sssp[j], plain); break;
            case kBcP: engine.bc(src[j], bc[j], plain); break;
            case kCcP: engine.cc(cc[j], plain); break;
            case kPrP: engine.pagerank(pr[j], pr_opts); break;
          }
        } catch (const std::exception& e) {
          tally.fail(1, std::string(kPrimNames[p]) + " threw: " + e.what());
        }
        if (g_tracer.on())
          for (const auto& k : dev.kernel_log())
            r.kernel_us[k.name] += k.time_us;
      }
      r.prim[p].sample_ms.push_back(ms_between(t0, Clock::now()) / n);

      // Outside the timed group: counters and output checks.
      double dev_ms = 0;
      for (std::uint32_t j = 0; j < n; ++j) {
        const auto same = [](std::uint64_t a, std::uint64_t b) {
          return a == b;
        };
        switch (p) {
          case kBfsP:
            r.prim[p].add(bfs[j].summary);
            dev_ms += bfs[j].summary.device_time_ms;
            check_ref(refs, refs.bfs, p, src[j], digest(bfs[j].depth), same);
            break;
          case kSsspP:
            r.prim[p].add(sssp[j].summary);
            dev_ms += sssp[j].summary.device_time_ms;
            check_ref(refs, refs.sssp, p, src[j], digest(sssp[j].dist), same);
            break;
          case kBcP:
            r.prim[p].add(bc[j].summary);
            dev_ms += bc[j].summary.device_time_ms;
            check_ref(refs, refs.bc, p, src[j], bc[j].bc_values,
                      [](const auto& a, const auto& b) {
                        return near(a, b, kBcTol);
                      });
            break;
          case kCcP: {
            r.prim[p].add(cc[j].summary);
            dev_ms += cc[j].summary.device_time_ms;
            ++refs.calls[{p, 0}];
            if (refs.cc.empty()) refs.cc = cc[j].component;
            else if (cc[j].component != refs.cc) ++refs.mismatches[{p, 0}];
            break;
          }
          case kPrP: {
            r.prim[p].add(pr[j].summary);
            dev_ms += pr[j].summary.device_time_ms;
            ++refs.calls[{p, 0}];
            if (refs.pr.empty()) refs.pr = pr[j].rank;
            else if (!near(pr[j].rank, refs.pr, kPrTol))
              ++refs.mismatches[{p, 0}];
            break;
          }
        }
      }
      pass_device += dev_ms / n;
    }
    r.pass_device_ms.push_back(pass_device);
    ++r.passes;
  }
  r.wall_s += seconds_between(start, Clock::now());
  dev.set_profiling(false);
}

/// Compares each distinct source's reference result with baselines/serial.
/// A wrong reference fails every call of that source; a call that differed
/// from a right reference fails on its own.
void verify_engine_refs(const Csr& g, const std::vector<VertexId>& serial_cc,
                        EngineRefs& refs, Tally& tally) {
  auto settle = [&](int prim, VertexId src, bool ref_ok) {
    const auto key = std::make_pair(prim, src);
    const std::uint64_t bad =
        ref_ok ? refs.mismatches[key] : refs.calls[key];
    if (bad)
      tally.fail(bad, std::string(kPrimNames[prim]) + " source " +
                          std::to_string(src) + ": " + std::to_string(bad) +
                          " wrong results");
  };
  for (const auto& [src, depth] : refs.bfs)
    settle(kBfsP, src, depth == digest(serial::bfs(g, src)));
  for (const auto& [src, dist] : refs.sssp)
    settle(kSsspP, src, dist == digest(serial::dijkstra(g, src)));
  for (const auto& [src, vals] : refs.bc)
    settle(kBcP, src, near(vals, serial::brandes_bc(g, src), kBcTol));
  if (!refs.cc.empty()) settle(kCcP, 0, refs.cc == serial_cc);
  if (!refs.pr.empty())
    settle(kPrP, 0,
           near(refs.pr, serial::pagerank(g, 0.85, kPrIterations), kPrTol));
}

/// Every kernel's device ms per pass from the last traced Engine phase,
/// written to the record so the reported kernel list can be revisited.
std::map<std::string, double> g_kernel_ms_per_pass;

void engine_metrics(const EnginePhaseResult& r, std::vector<Metric>& e2e,
                    std::vector<Metric>& layer) {
  for (int p = 0; p < kNumPrims; ++p)
    e2e.push_back({std::string(kPrimNames[p]) + "_ms",
                   median(r.prim[p].sample_ms), "ms"});
  double dev = 0;
  for (double d : r.pass_device_ms) dev += d;
  e2e.push_back({"device_ms", dev / static_cast<double>(r.passes), "ms"});

  for (int p = 0; p < kNumPrims; ++p) {
    const PrimAgg& a = r.prim[p];
    const std::string n = kPrimNames[p];
    layer.push_back({"simt.kernel_launches." + n, a.mean(a.launches), "count"});
    layer.push_back({"simt.warp_efficiency." + n, a.mean(a.warp_eff), "ratio"});
    layer.push_back({"core.iterations." + n, a.mean(a.iterations), "count"});
    layer.push_back({"core.edges_processed." + n, a.mean(a.edges), "count"});
    layer.push_back({"primitives.device_ms." + n, a.mean(a.device_ms), "ms"});
  }
  layer.push_back({"core.pull_rounds.bfs",
                   r.prim[kBfsP].mean(r.prim[kBfsP].pull_rounds), "count"});
  if (!r.kernel_us.empty()) g_kernel_ms_per_pass.clear();
  for (const auto& [k, us] : r.kernel_us)
    g_kernel_ms_per_pass[k] = us / 1e3 / static_cast<double>(r.passes);
  for (const char* k : kKernels) {
    auto it = r.kernel_us.find(k);
    const double us = it == r.kernel_us.end() ? 0.0 : it->second;
    layer.push_back({std::string("simt.device_ms.") + k,
                     us / 1e3 / static_cast<double>(r.passes), "ms"});
  }
}

// --- the 64-lane batch probe (api.engine layer metrics) ----------------------

/// One 64-lane batched BFS and SSSP enact at OpenMP width 1 on `g`: the
/// shape of one full coalesced enact on a serve worker. Median of kReps
/// timed repetitions after one warm-up.
void batch_probe(const Csr& g, std::uint64_t seed, std::vector<Metric>& layer,
                 Tally& tally) {
  const int width = omp_get_max_threads();
  omp_set_num_threads(1);
  simt::Device dev;
  Engine engine(dev, g);
  Rng rng(seed);
  std::vector<VertexId> src(64);
  for (auto& s : src)
    s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  BatchBfsResult bfs;
  BatchSsspResult sssp;
  std::vector<double> tb, ts;
  constexpr int kReps = 9;
  for (int i = 0; i <= kReps; ++i) {
    tally.attempted += 2;
    auto t0 = Clock::now();
    {
      ScopedSpan s("api.engine.batch_bfs");
      engine.batch_bfs(src, bfs);
    }
    auto t1 = Clock::now();
    {
      ScopedSpan s("api.engine.batch_sssp");
      engine.batch_sssp(src, sssp);
    }
    auto t2 = Clock::now();
    if (i > 0) {  // the first pair warms the pooled lane matrices
      tb.push_back(ms_between(t0, t1));
      ts.push_back(ms_between(t1, t2));
    }
  }
  bool ok = true;
  for (std::uint32_t lane = 0; ok && lane < 64; lane += 21) {
    const auto ob = serial::bfs(g, src[lane]);
    const auto os = serial::dijkstra(g, src[lane]);
    for (VertexId v = 0; ok && v < g.num_vertices(); ++v)
      ok = bfs.depth_at(v, lane) == ob[v] && sssp.dist_at(v, lane) == os[v];
  }
  if (!ok) tally.fail(2 * (kReps + 1), "batch probe mismatch");
  omp_set_num_threads(width);
  layer.push_back({"api.engine.batch_bfs_ms", median(tb), "ms"});
  layer.push_back({"api.engine.batch_sssp_ms", median(ts), "ms"});
}

// --- serving -----------------------------------------------------------------

/// Constants of the serve workloads. Rates and outstanding counts are never
/// calibrated within a run.
constexpr std::uint32_t kServeScale = 13;
constexpr double kOpenRate = 2000.0;        ///< open-loop arrivals per second
constexpr std::uint32_t kOutstanding = 256; ///< saturation phase window
constexpr std::uint32_t kRefill = 16;
constexpr double kOpenWindowS = 1.0;  ///< p50/p99 per window, then median
constexpr double kSatWindowS = 0.5;   ///< q/s per window, then median
constexpr double kBfsShare = 0.75;
constexpr std::uint32_t kSampleOneIn = 64;  ///< oracle-checked share
constexpr std::size_t kMaxSamples = 2000;
// Churn: a writer publishes one batch every kChurnPeriodMs, half deletes of
// present edges and half inserts of absent ones, so the edge count stays
// constant. The rate is bench_server's mutation arm's: updates per second =
// kChurnPerSecond x the graph's edge count. The period sets how long a
// cached result lives, so it sets the reuse share: a Zipf model of the
// traffic gives 0.18 (open loop) to 0.31 (saturation) at 100 ms, against
// 0.02-0.07 at bench_server's 5 ms (perfbench/README.md).
constexpr double kChurnPerSecond = 0.01;
constexpr double kChurnPeriodMs = 100.0;
constexpr double kZipfExponent = 0.9;
// Churn reuse (cache hits + singleflight attaches) must stay in this band:
// far from 0 (the cache would be idle) and from 50% (a percentile would sit
// on the boundary between µs hits and ms enacts).
constexpr double kReuseLo = 0.10, kReuseHi = 0.40;

/// Phase split of --seconds for the serve workloads, each share spread over
/// kCycles slices; the warm-up drives the same open-loop traffic and is
/// discarded.
constexpr double kProbeShare = 0.2, kOpenShare = 0.45, kSatShare = 0.35,
                 kWarmupShare = 0.25, kSatRampS = 0.25;
constexpr int kCycles = 3;

class SourcePicker {
 public:
  SourcePicker(VertexId n, bool zipf, std::uint64_t seed) : n_(n) {
    if (!zipf) return;
    // Zipf over a seeded permutation of all vertices.
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), VertexId{0});
    Rng rng(seed);
    for (VertexId i = n; i > 1; --i)
      std::swap(perm_[i - 1], perm_[rng.next_below(i)]);
    cdf_.resize(n);
    double acc = 0;
    for (VertexId r = 0; r < n; ++r)
      cdf_[r] = acc += 1.0 / std::pow(r + 1.0, kZipfExponent);
    for (double& c : cdf_) c /= acc;
  }
  VertexId pick(Rng& rng) const {
    if (perm_.empty()) return static_cast<VertexId>(rng.next_below(n_));
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return perm_[std::min<std::size_t>(it - cdf_.begin(), n_ - 1)];
  }

 private:
  VertexId n_;
  std::vector<VertexId> perm_;
  std::vector<double> cdf_;
};

struct Sample {
  Epoch epoch;
  QueryKind kind;
  VertexId source;
  std::uint64_t digest;  ///< of the served depth or distance vector
};

struct Inflight {
  QueryTicket ticket;
  Clock::time_point due, submitted;
  std::uint32_t span;
  std::uint64_t req;
  VertexId source;
  int phase;  ///< 0 warm-up, 1 open loop (measured), 2 saturation
  bool sample;
};

/// Everything the collectors record; guarded by `mu`.
struct ServeLog {
  std::mutex mu;
  std::vector<std::pair<Clock::time_point, double>> open_latency;  ///< due, ms
  std::vector<Clock::time_point> sat_done;
  std::vector<Sample> samples;
  std::uint64_t outstanding = 0;
  std::condition_variable drained;  ///< outstanding fell
};

/// One collector per query kind, so a slow SSSP never delays the recorded
/// resolution of a BFS queued behind it.
class Collector {
 public:
  Collector(ServeLog& log, Tally& tally) : log_(log), tally_(tally) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Inflight f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(f));
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    for (;;) {
      Inflight f;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closing_ || !q_.empty(); });
        if (q_.empty()) return;
        f = std::move(q_.front());
        q_.pop_front();
      }
      std::optional<QueryResult> res;
      std::string error;
      try {
        res = f.ticket.get();
      } catch (const std::exception& e) {
        error = e.what();
      }
      const auto done = Clock::now();
      g_tracer.add("api.server.resolve", f.submitted, done, f.span, f.req);
      g_tracer.close(f.span, done);
      if (!res) tally_.fail(1, "query failed: " + error);
      std::lock_guard<std::mutex> lock(log_.mu);
      if (f.phase == 1)
        log_.open_latency.emplace_back(f.due, ms_between(f.due, done));
      if (f.phase == 2) log_.sat_done.push_back(done);
      if (res && f.sample && log_.samples.size() < kMaxSamples) {
        const auto& v = res->kind == QueryKind::kBfs ? res->depth : res->dist;
        log_.samples.push_back({res->epoch, res->kind, f.source, digest(v)});
      }
      --log_.outstanding;
      if (log_.outstanding == 0 ||
          log_.outstanding == kOutstanding - kRefill)
        log_.drained.notify_all();
    }
  }

  ServeLog& log_;
  Tally& tally_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Inflight> q_;
  bool closing_ = false;
  std::thread thread_;  // declared last: starts after the members it uses
};

/// Writer state for the churn workload: an undirected edge model to pick
/// deletions of present edges and insertions of absent ones, and every
/// batch sent (epoch e's graph is the base plus batches [0, e)).
struct Churn {
  std::vector<std::pair<VertexId, VertexId>> edges;  ///< u < v
  std::unordered_set<std::uint64_t> present;
  std::vector<std::vector<EdgeUpdate>> sent;
  std::vector<double> apply_ms;
  std::uint64_t snapshots_live_max = 0;
  std::uint32_t half_batch = 0;  ///< deletes (and inserts) per batch
  Rng rng{0};

  static std::uint64_t key(VertexId u, VertexId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  void init(const Csr& g, std::uint64_t seed) {
    rng = Rng(seed);
    half_batch = static_cast<std::uint32_t>(std::max(
        1.0, std::round(kChurnPerSecond * static_cast<double>(g.num_edges()) *
                        kChurnPeriodMs / 1e3 / 2)));
    for (VertexId u = 0; u < g.num_vertices(); ++u)
      for (VertexId v : g.neighbors(u))
        if (u < v) edges.emplace_back(u, v), present.insert(key(u, v));
  }
  std::vector<EdgeUpdate> next_batch(VertexId n) {
    std::vector<EdgeUpdate> b;
    for (std::uint32_t i = 0; i < half_batch; ++i) {
      const auto at = rng.next_below(edges.size());
      const auto [u, v] = edges[at];
      edges[at] = edges.back();
      edges.pop_back();
      present.erase(key(u, v));
      b.push_back(EdgeUpdate::remove_edge(u, v));
    }
    for (std::uint32_t i = 0; i < half_batch;) {
      auto u = static_cast<VertexId>(rng.next_below(n));
      auto v = static_cast<VertexId>(rng.next_below(n));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      if (!present.insert(key(u, v)).second) continue;
      edges.emplace_back(u, v);
      b.push_back(EdgeUpdate::insert_edge(
          u, v, static_cast<Weight>(rng.next_in(1, 64))));
      ++i;
    }
    return b;
  }
};

/// Rebuilds each sampled epoch's graph from the base plus the batches sent
/// (DynamicGraph semantics: symmetric upsert / delete) and compares every
/// sampled result with the serial oracle on that graph. Returns mismatches.
std::uint64_t verify_samples(const Csr& base,
                             const std::vector<std::vector<EdgeUpdate>>& sent,
                             std::vector<Sample>& samples) {
  const VertexId n = base.num_vertices();
  std::vector<std::map<VertexId, Weight>> adj(n);
  for (VertexId u = 0; u < n; ++u)
    for (EdgeId e = base.row_start(u); e < base.row_end(u); ++e)
      adj[u][base.col_index(e)] = base.weight(e);
  std::sort(samples.begin(), samples.end(), [](const auto& a, const auto& b) {
    return a.epoch < b.epoch;
  });
  std::uint64_t bad = 0;
  Epoch at = 0;
  std::size_t i = 0;
  while (i < samples.size()) {
    const Epoch want = samples[i].epoch;
    if (want > sent.size()) return bad + (samples.size() - i);
    for (; at < want; ++at)
      for (const EdgeUpdate& u : sent[at]) {
        if (u.insert) {
          adj[u.src][u.dst] = u.weight;
          adj[u.dst][u.src] = u.weight;
        } else {
          adj[u.src].erase(u.dst);
          adj[u.dst].erase(u.src);
        }
      }
    std::vector<EdgeId> off(n + 1, 0);
    std::vector<VertexId> cols;
    std::vector<Weight> w;
    for (VertexId u = 0; u < n; ++u) {
      for (const auto& [v, wt] : adj[u]) cols.push_back(v), w.push_back(wt);
      off[u + 1] = cols.size();
    }
    const Csr g(n, std::move(off), std::move(cols), std::move(w));
    std::map<std::pair<QueryKind, VertexId>, std::uint64_t> memo;
    for (; i < samples.size() && samples[i].epoch == want; ++i) {
      const Sample& s = samples[i];
      auto [it, fresh] = memo.try_emplace({s.kind, s.source});
      if (fresh)
        it->second = digest(s.kind == QueryKind::kBfs
                                ? serial::bfs(g, s.source)
                                : serial::dijkstra(g, s.source));
      bad += s.digest != it->second;
    }
  }
  return bad;
}

struct ServeRound {
  std::vector<Metric> e2e, layer;
};

/// Drives one round of serve traffic: a discarded open-loop warm-up, then
/// kCycles cycles of (Engine probe slice, measured open-loop slice,
/// saturation slice). Each metric's samples spread over the whole round,
/// so a slow stretch of the host moves every metric a little rather than
/// one of them a lot. With `churn` set, a writer applies a batch every
/// kChurnPeriodMs while traffic runs; it pauses during probe slices.
ServeRound run_serve_round(Server& server, VertexId n,
                           const SourcePicker& picker, Churn* churn,
                           double seconds, std::uint64_t seed, Tally& tally,
                           ServeLog& log,
                           const std::function<void(double)>& probe) {
  ServeRound out;
  const ServerStats before = server.stats();
  Rng rng(seed);
  std::vector<double> late_ms, submit_us, qps, p50, p99;

  std::atomic<bool> stop_writer{false}, writing{false};
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      auto next = Clock::now();
      const auto period = after_s(kChurnPeriodMs / 1e3);
      while (!stop_writer.load()) {
        next += period;
        std::this_thread::sleep_until(next);
        if (!writing.load()) continue;
        auto batch = churn->next_batch(n);
        tally.attempted++;
        const auto t0 = Clock::now();
        try {
          ScopedSpan s("api.server.apply_updates");
          server.apply_updates(batch);
        } catch (const std::exception& e) {
          tally.fail(1, std::string("apply_updates threw: ") + e.what());
        }
        churn->apply_ms.push_back(ms_between(t0, Clock::now()));
        churn->sent.push_back(std::move(batch));
        churn->snapshots_live_max = std::max<std::uint64_t>(
            churn->snapshots_live_max, server.stats().snapshots_live);
      }
    });
  }

  std::uint64_t req = 0;
  {
    Collector bfs_col(log, tally), sssp_col(log, tally);
    auto submit = [&](Clock::time_point due, int phase) {
      QueryRequest r;
      r.kind = rng.next_double() < kBfsShare ? QueryKind::kBfs
                                             : QueryKind::kSssp;
      r.source = picker.pick(rng);
      const bool sample = rng.next_below(kSampleOneIn) == 0;
      const std::uint64_t id = req++;
      const std::uint32_t root = g_tracer.open("harness.query",
                                               Tracer::kNoParent, id, due);
      {
        std::lock_guard<std::mutex> lock(log.mu);
        ++log.outstanding;
      }
      tally.attempted++;
      const auto t0 = Clock::now();
      if (phase == 1) late_ms.push_back(ms_between(due, t0));
      QueryTicket ticket;
      try {
        ticket = server.submit(r);
      } catch (const std::exception& e) {
        tally.fail(1, std::string("submit threw: ") + e.what());
      }
      const auto t1 = Clock::now();
      g_tracer.add("api.server.submit", t0, t1, root, id);
      if (g_tracer.on()) submit_us.push_back(ms_between(t0, t1) * 1e3);
      if (!ticket.valid()) {
        std::lock_guard<std::mutex> lock(log.mu);
        --log.outstanding;
        g_tracer.close(root, t1);
        return;
      }
      Inflight f{std::move(ticket), due, t1, root, id, r.source, phase, sample};
      (r.kind == QueryKind::kBfs ? bfs_col : sssp_col).push(std::move(f));
    };
    auto drain = [&] {
      std::unique_lock<std::mutex> lock(log.mu);
      log.drained.wait(lock, [&] { return log.outstanding == 0; });
    };

    // Open loop: a seeded Poisson schedule at kOpenRate. Measured slices
    // yield one p50 and one p99 per kOpenWindowS window of due times.
    auto open_loop = [&](double secs, int phase) {
      const auto start = Clock::now();
      double t = 0;
      while ((t += -std::log(1.0 - rng.next_double()) / kOpenRate) < secs) {
        const auto due = start + after_s(t);
        std::this_thread::sleep_until(due);
        submit(due, phase);
      }
      drain();
      if (phase != 1) return;
      std::vector<std::vector<double>> by_window(
          static_cast<std::size_t>(secs / kOpenWindowS + 1e-9));
      std::lock_guard<std::mutex> lock(log.mu);
      for (const auto& [due, ms] : log.open_latency) {
        const auto w = static_cast<std::size_t>(seconds_between(start, due) /
                                                kOpenWindowS);
        if (w < by_window.size()) by_window[w].push_back(ms);
      }
      log.open_latency.clear();
      for (const auto& w : by_window) {
        p50.push_back(percentile(w, 50));
        p99.push_back(percentile(w, 99));
      }
    };

    // Saturation: keep kOutstanding queries in flight, topping up in
    // steps of kRefill so the generator wakes once per kRefill completions.
    // Yields completed queries/s per kSatWindowS window after the ramp.
    auto saturate = [&](double secs) {
      const auto start = Clock::now();
      const auto end = start + after_s(secs);
      while (Clock::now() < end) {
        {
          std::unique_lock<std::mutex> lock(log.mu);
          log.drained.wait(lock, [&] {
            return log.outstanding <= kOutstanding - kRefill;
          });
        }
        for (std::uint32_t i = 0; i < kRefill; ++i) submit(Clock::now(), 2);
      }
      drain();
      std::lock_guard<std::mutex> lock(log.mu);
      for (double w = kSatRampS; w + kSatWindowS <= secs + 1e-9;
           w += kSatWindowS) {
        const auto a = start + after_s(w), b = a + after_s(kSatWindowS);
        qps.push_back(static_cast<double>(std::count_if(
                          log.sat_done.begin(), log.sat_done.end(),
                          [&](auto tp) { return tp >= a && tp < b; })) /
                      kSatWindowS);
      }
      log.sat_done.clear();
    };

    writing = true;
    open_loop(kWarmupShare * seconds, 0);
    for (int c = 0; c < kCycles; ++c) {
      writing = false;
      probe(kProbeShare * seconds / kCycles);
      writing = true;
      open_loop(kOpenShare * seconds / kCycles, 1);
      saturate(kSatShare * seconds / kCycles);
    }
    writing = false;
  }
  if (churn) {
    stop_writer = true;
    writer.join();
  }
  out.e2e.push_back({"serve_qps", median(qps), "1/s"});
  out.e2e.push_back({"latency_p50_ms", median(p50), "ms"});
  out.e2e.push_back({"latency_p99_ms", median(p99), "ms"});

  const ServerStats after = server.stats();
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double served = d(after.queries_served, before.queries_served);
  const double hits = d(after.cache_hits, before.cache_hits);
  const double attached = d(after.dedup_attached, before.dedup_attached);
  const double misses = d(after.cache_misses, before.cache_misses);
  const double enacts = d(after.enacts, before.enacts);
  const double share = served > 0 ? 1.0 / served : 0.0;
  auto& L = out.layer;
  L.push_back({"api.server.submit_p99_us", percentile(submit_us, 99), "us"});
  L.push_back({"api.server.enacts", enacts, "count"});
  L.push_back({"api.server.lanes_per_enact",
               enacts > 0 ? (served - hits - attached) / enacts : 0.0,
               "lanes"});
  L.push_back({"api.server.coalesced_share",
               d(after.coalesced_queries, before.coalesced_queries) * share,
               "ratio"});
  L.push_back({"api.server.max_lanes", static_cast<double>(after.max_lanes),
               "lanes"});
  L.push_back({"api.server.epoch_rebinds",
               d(after.epoch_rebinds, before.epoch_rebinds), "count"});
  L.push_back({"api.server.epoch_fuse_splits",
               d(after.epoch_fuse_splits, before.epoch_fuse_splits),
               "count"});
  L.push_back({"api.server.update_p50_ms",
               churn ? median(churn->apply_ms) : 0.0, "ms"});
  L.push_back({"api.cache.hit_share", hits * share, "ratio"});
  L.push_back({"api.cache.attach_share", attached * share, "ratio"});
  L.push_back({"api.cache.miss_share", misses * share, "ratio"});
  L.push_back({"api.cache.evictions",
               d(after.cache_evictions, before.cache_evictions), "count"});
  L.push_back({"graph.epochs", d(after.graph_epoch, before.graph_epoch),
               "count"});
  L.push_back({"graph.compactions", d(after.compactions, before.compactions),
               "count"});
  L.push_back({"graph.snapshots_live_max",
               churn ? static_cast<double>(churn->snapshots_live_max)
                     : static_cast<double>(after.snapshots_live),
               "count"});
  L.push_back({"harness.generator_late_p99_ms", percentile(late_ms, 99),
               "ms"});
  L.push_back({"harness.generator_late_max_ms",
               late_ms.empty() ? 0.0
                               : *std::max_element(late_ms.begin(),
                                                   late_ms.end()),
               "ms"});

  // Workload-shape guards: the numbers only mean what they claim if the
  // workload exercised (or bypassed) what it says it does.
  const double reuse = served > 0 ? (hits + attached) / served : 0.0;
  // (In-batch duplicate-source collapse bumps dedup_attached with the
  // cache off too: that is the coalescer, not the cache.)
  if (!churn && (hits + misses > 0 || after.cache_evictions != 0 ||
                 after.cache_entries != 0 || after.graph_epoch != 0 ||
                 after.epoch_rebinds != 0 || after.epoch_fuse_splits != 0)) {
    tally.guard_tripped("serve-powerlaw touched the cache or epochs");
  }
  if (churn && (reuse < kReuseLo || reuse > kReuseHi)) {
    tally.guard_tripped("churn reuse share " + std::to_string(reuse) +
                        " outside [" + std::to_string(kReuseLo) + ", " +
                        std::to_string(kReuseHi) + "]");
  }
  L.push_back({"api.cache.reuse_share", reuse, "ratio"});
  return out;
}

// --- command line, records ---------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out = ".bench_build/records";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--commit") a.commit = v;
    else if (k == "--out") a.out = v;
    else return false;
  }
  return (argc % 2) == 1 && a.seconds > 0 &&
         (a.workload == "analytics-powerlaw" ||
          a.workload == "serve-powerlaw" ||
          a.workload == "serve-powerlaw-churn");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[96];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Set-up repeated `reps` times (each repetition frees the last one's
/// objects first); returns the median duration.
template <typename Fn>
double timed_setup(int reps, Fn&& build) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    build();
    s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(s);
}
constexpr int kSetupReps = 5;

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload analytics-powerlaw|"
                 "serve-powerlaw|serve-powerlaw-churn --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--out DIR]\n");
    return 2;
  }
  g_tracer.enable(args.trace);
  Tally tally;
  std::vector<Metric> e2e, layer;
  const bool analytics = args.workload == "analytics-powerlaw";
  const bool churn_on = args.workload == "serve-powerlaw-churn";
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int omp_width = omp_get_max_threads();

  // --- set-up: graph generation, build, Engine/Server construction ---------
  GraphBuild gb;
  simt::Device dev;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<DynamicGraph> dyn;
  std::unique_ptr<Server> server;
  const std::uint32_t scale = analytics ? 16 : kServeScale;
  std::vector<double> gen_s, build_s;
  const double setup_s = timed_setup(kSetupReps, [&] {
    ScopedSpan root("harness.setup");
    server.reset();
    dyn.reset();
    engine.reset();
    gb = GraphBuild{};
    gb = make_rmat(scale, args.seed, root.id());
    gen_s.push_back(gb.generate_s);
    build_s.push_back(gb.build_s);
    {
      ScopedSpan s("api.engine.construct", root.id());
      engine = std::make_unique<Engine>(dev, gb.graph);
    }
    if (analytics) return;
    ServerOptions so;
    so.omp_threads_per_worker = 1;  // compute threads = nproc
    if (churn_on) {
      ScopedSpan s("graph.dynamic_construct", root.id());
      DynamicGraphOptions dopt;
      dopt.symmetric = true;
      dyn = std::make_unique<DynamicGraph>(gb.graph, dopt);
      so.cache.enabled = true;
    }
    ScopedSpan s("api.server.construct", root.id());
    server = dyn ? std::make_unique<Server>(*dyn, so)
                 : std::make_unique<Server>(gb.graph, so);
  });
  const Csr& g = gb.graph;
  const std::uint32_t workers = analytics ? 0 : nproc;

  // --- measured rounds -------------------------------------------------------
  const auto serial_cc = serial::connected_components(g);
  const auto sources =
      giant_component_sources(g, serial_cc, kSources, args.seed);
  EngineRefs refs;

  SourcePicker picker(g.num_vertices(), churn_on, args.seed ^ 0x21ff);
  Churn churn;
  if (churn_on) churn.init(g, args.seed ^ 0xc4);
  ServeLog log;

  auto round = [&](std::vector<Metric>& e, std::vector<Metric>& l) {
    // A discarded warm-up pass touches every pooled buffer.
    EnginePhaseResult warm, r;
    if (analytics) {
      run_engine_phase(*engine, dev, sources, 0.0, refs, tally, warm);
      run_engine_phase(*engine, dev, sources, args.seconds, refs, tally, r);
      engine_metrics(r, e, l);
      // One client issuing the rotation back to back: its completed
      // queries/s and per-query latency.
      std::vector<double> all;
      std::size_t calls = 0;
      for (const auto& p : r.prim) {
        all.insert(all.end(), p.sample_ms.begin(), p.sample_ms.end());
        calls += p.calls;
      }
      e.push_back({"serve_qps", static_cast<double>(calls) / r.wall_s, "1/s"});
      e.push_back({"latency_p50_ms", percentile(all, 50), "ms"});
      e.push_back({"latency_p99_ms", percentile(all, 99), "ms"});
      return;
    }
    auto probe = [&](double secs) {
      run_engine_phase(*engine, dev, sources, 0.0, refs, tally, warm);
      run_engine_phase(*engine, dev, sources, secs, refs, tally, r);
    };
    auto s = run_serve_round(*server, g.num_vertices(), picker,
                             churn_on ? &churn : nullptr, args.seconds,
                             args.seed, tally, log, probe);
    engine_metrics(r, e, l);
    e.insert(e.end(), s.e2e.begin(), s.e2e.end());
    l.insert(l.end(), s.layer.begin(), s.layer.end());
  };

  const auto measure_start = Clock::now();
  if (!args.trace) {
    round(e2e, layer);
  } else {
    // Untraced, then traced, on the same traffic: the difference is the
    // tracing overhead.
    std::vector<Metric> e0, l0, e1;
    g_tracer.enable(false);
    round(e0, l0);
    g_tracer.enable(true);
    round(e1, layer);
    for (std::size_t i = 0; i < e1.size(); ++i)
      layer.push_back({"trace.overhead." + e1[i].name,
                       e1[i].value - e0[i].value, e1[i].unit});
  }
  const double measure_s = seconds_between(measure_start, Clock::now());
  if (server) server->stop();
  // Read before the output checks, whose oracle graphs are not the
  // program's memory.
  const double rss_mb = peak_rss_mb();

  // --- output checks (outside every timed region) ----------------------------
  verify_engine_refs(g, serial_cc, refs, tally);
  if (!analytics) {
    const std::uint64_t bad = verify_samples(g, churn.sent, log.samples);
    if (bad) tally.fail(bad, std::to_string(bad) + " served results wrong");
  }

  if (!args.trace) {
    e2e.push_back({"setup_s", setup_s, "s"});
    e2e.push_back({"rss_mb", rss_mb, "MB"});
  } else {
    const auto gen = median(gen_s), bld = median(build_s);
    // The batch probe runs on the serve graph in every workload.
    GraphBuild serve_g =
        analytics ? make_rmat(kServeScale, args.seed, Tracer::kNoParent)
                  : GraphBuild{};
    batch_probe(analytics ? serve_g.graph : g, args.seed, layer, tally);
    if (analytics) {
      // Layers the analytics workload bypasses.
      const std::pair<const char*, const char*> bypassed[] = {
          {"api.server.submit_p99_us", "us"},
          {"api.server.enacts", "count"},
          {"api.server.lanes_per_enact", "lanes"},
          {"api.server.coalesced_share", "ratio"},
          {"api.server.max_lanes", "lanes"},
          {"api.server.epoch_rebinds", "count"},
          {"api.server.epoch_fuse_splits", "count"},
          {"api.server.update_p50_ms", "ms"},
          {"api.cache.hit_share", "ratio"},
          {"api.cache.attach_share", "ratio"},
          {"api.cache.miss_share", "ratio"},
          {"api.cache.evictions", "count"},
          {"graph.epochs", "count"},
          {"graph.compactions", "count"},
          {"graph.snapshots_live_max", "count"},
          {"harness.generator_late_p99_ms", "ms"},
          {"harness.generator_late_max_ms", "ms"},
          {"api.cache.reuse_share", "ratio"}};
      for (const auto& [name, unit] : bypassed)
        layer.push_back({name, 0.0, unit});
    }
    layer.push_back({"graph.generate_s", gen, "s"});
    layer.push_back({"graph.build_s", bld, "s"});
    const auto self = g_tracer.self_seconds_by_layer();
    for (const char* l : {"harness", "graph", "api.engine", "api.server"}) {
      auto it = self.find(l);
      layer.push_back({std::string("trace.self_s.") + l,
                       it == self.end() ? 0.0 : it->second, "s"});
    }
    layer.push_back({"trace.spans", static_cast<double>(g_tracer.size()),
                     "count"});
  }

  // --- record ----------------------------------------------------------------
  const bool correct = tally.failed == 0 && tally.shape_ok.load();
  char env[640];
  std::snprintf(
      env, sizeof env,
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"omp_width\": %d, \"server_workers\": %u, "
      "\"omp_threads_per_worker\": %d, \"compiler\": \"%s\", "
      "\"vec_backend\": \"%s\", \"commit\": \"%s\", \"graph_vertices\": %u, "
      "\"graph_edges\": %llu, \"measure_s\": %.3f}}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, nproc, omp_width, workers, analytics ? 0 : 1,
      __VERSION__,
      simt::to_string(simt::resolve_backend(simt::VecBackend::kAuto)),
      args.commit.c_str(), g.num_vertices(),
      static_cast<unsigned long long>(g.num_edges()), measure_s);
  for (const auto& note : tally.notes)
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  if (!tally.shape_ok)
    std::fprintf(stderr, "perfbench: workload-shape guard tripped\n");

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted.load()) +
      ", \"failed\": " + std::to_string(tally.failed.load()) +
      ", \"metrics\": " + json_metrics(args.trace ? layer : e2e) + "}";
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem = args.out + "/" + args.workload + "-" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  {
    std::ofstream rec(stem + ".json");
    rec << env << "\n";
    std::vector<Metric> kernels;
    for (const auto& [k, ms] : g_kernel_ms_per_pass)
      kernels.push_back({k, ms, "ms"});
    if (!kernels.empty())
      rec << "{\"kernel_ms_per_pass\": " << json_metrics(kernels) << "}\n";
    rec << result << "\n";
  }
  if (args.trace)
    g_tracer.write(args.out + "/trace-" + args.workload + "-" +
                   std::to_string(args.seed) + ".jsonl");
  std::printf("%s\n%s\n", env, result.c_str());
  return correct ? 0 : 1;
}
