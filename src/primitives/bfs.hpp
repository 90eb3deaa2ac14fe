// Breadth-first search (Section 5.1).
//
// Advance discovers neighbors and sets depth/predecessor; filter compacts
// and (in idempotent mode) culls duplicates heuristically. The fastest
// configuration — matching the paper — is idempotent + direction-optimal.
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "graph/csr.hpp"
#include "util/bitset.hpp"

namespace grx {

struct BfsResult {
  std::vector<std::uint32_t> depth;  ///< kInfinity where unreached
  std::vector<VertexId> pred;        ///< kInvalidVertex where unreached/off
  EnactSummary summary;
};

/// Per-graph persistent BFS state — the paper's Problem data slice. Owned
/// by a BfsEnactor and pooled across enactments: every enact() re-labels
/// in place, so the steady-state query path allocates nothing.
struct BfsProblem {
  std::vector<std::uint32_t> depth;
  std::vector<VertexId> pred;
  AtomicBitset visited;         // for the non-idempotent atomic claim
  std::uint32_t iteration = 0;  // current BFS level
  bool record_preds = true;
};

/// Persistent BFS enactor (traversal state + pooled Problem). Hold one —
/// directly or via grx::Engine — to serve repeated queries over a graph;
/// with a reused BfsResult the steady state performs zero heap
/// allocations.
class BfsEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, VertexId source, const QueryOptions& opts,
             BfsResult& out);

 private:
  BfsProblem problem_;
};

}  // namespace grx
