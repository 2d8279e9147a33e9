// Locality-aware node reordering: deterministic, seeded permutations that
// relabel a graph so its CSR neighbor gathers walk memory locally, plus the
// helpers every plane uses to cross the external/internal id boundary.
//
// The permutation invariant (see DESIGN.md "Locality plane"): once a graph
// is reordered, every internal structure — CSR adjacency caches, feature
// rows, hidden-state caches, partition plans, DeltaCsr overlays — lives in
// permuted ("internal") order, and external node ids are translated exactly
// once at each boundary (query ids, split/label ids, mutation ids). External
// ids never leak into internal structures and internal ids never leak out.
//
// Bitwise conformance: the repo's determinism story pins per-element
// reduction order (ascending k for GEMM, CSR stored-entry order for SpMM).
// FP addition is not associative, so a reordered graph can only serve
// bitwise-identical probabilities if every permuted CSR row accumulates the
// *same value sequence* as the unpermuted row. ApplyNodePermutation
// therefore stores each permuted row's entries in ascending EXTERNAL id
// order ("rank order", rank(c) = to_external[c]) with values byte-copied
// from the original matrix — never re-sorted by internal id and never
// renormalized. Every per-row kernel then sees the identical operand
// sequence, so H^(L)_perm[to_internal[r]] is bitwise equal to H^(L)[r].
#ifndef AUTOHENS_GRAPH_REORDER_H_
#define AUTOHENS_GRAPH_REORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/split.h"
#include "util/status.h"

namespace ahg {

enum class ReorderStrategy {
  kNone = 0,
  // Reverse Cuthill-McKee: BFS from a minimum-degree seed per component,
  // neighbors visited in ascending (degree, id) order, final order reversed.
  // Minimizes bandwidth — the classic cache-locality ordering for
  // community-structured (SBM-like) graphs.
  kRcm,
  // Degree-sorted hub clustering: high-degree hubs first (degree descending,
  // id ascending), then each remaining node grouped behind its lowest-id hub
  // neighbor. Keeps a hub's neighborhood contiguous in the dense operand of
  // SpMM on hub-heavy graphs.
  kHubCluster,
  // Seeded Fisher-Yates shuffle. Pessimal-locality baseline for benches and
  // adversarial tests; never a win.
  kShuffle,
};

// Lowercase name used by --reorder flags and Serialize ("none", "rcm",
// "hub", "shuffle").
const char* ReorderStrategyName(ReorderStrategy strategy);
StatusOr<ReorderStrategy> ParseReorderStrategy(const std::string& name);

// An explicit bijection between external node ids (what callers speak) and
// internal ids (where rows actually live). Computed single-threaded from
// sorted traversals, so it is byte-identical per (graph, strategy, seed).
struct NodePermutation {
  ReorderStrategy strategy = ReorderStrategy::kNone;
  uint64_t seed = 0;
  std::vector<int> to_internal;  // external id -> internal id
  std::vector<int> to_external;  // internal id -> external id

  int num_nodes() const { return static_cast<int>(to_internal.size()); }

  static NodePermutation Identity(int num_nodes);

  // Composition with a follow-up internal remap (re-reorder at DeltaCsr
  // compaction): result.to_internal[e] = remap[to_internal[e]].
  NodePermutation ComposedWith(const std::vector<int>& remap) const;

  // Extension for appended nodes (dyn AddNode): ids [num_nodes(), n) map to
  // themselves, so a freshly added node's external id equals its internal id
  // until the next re-reorder.
  NodePermutation ExtendedTo(int n) const;

  // Canonical text form ("ahg-node-perm 1"); byte-identical for identical
  // permutations, round-trips through Deserialize.
  std::string Serialize() const;
  static StatusOr<NodePermutation> Deserialize(const std::string& text);
};

// Computes the permutation for `strategy` over the graph's symmetrized
// topology (self loops ignored). kNone and kShuffle ignore topology.
NodePermutation ComputeReorder(const Graph& graph, ReorderStrategy strategy,
                               uint64_t seed);

// Same, over explicit neighbor lists (each list ascending, self loops
// absent). The dynamic plane re-reorders through this overload: it hands in
// the snapshot's topology expressed in EXTERNAL ids, so the new permutation
// depends only on (logical graph, strategy, seed) — not on the incidental
// internal layout it is replacing.
NodePermutation ComputeReorderFromAdjacency(
    const std::vector<std::vector<int>>& neighbors, ReorderStrategy strategy,
    uint64_t seed);

// Permutes a square external-space CSR into internal space: row
// to_internal[e] holds row e's entries with columns mapped through
// to_internal, stored order preserved (= ascending external id), values
// byte-copied. This is the rank-order invariant above.
SparseMatrix PermuteSparse(const SparseMatrix& external,
                           const NodePermutation& perm);

// Relabels `graph` into internal order: adjacency caches permuted row/col
// with stored entry order preserved (bitwise-conformant, see file comment),
// feature/label rows gathered, edges relabeled, and `perm` attached so
// boundary code can translate. `graph` must not already carry a
// permutation; use the dynamic plane's Reordered() for re-reorders.
Graph ApplyNodePermutation(const Graph& graph,
                           std::shared_ptr<const NodePermutation> perm);

// ComputeReorder + ApplyNodePermutation in one step.
Graph ReorderGraph(const Graph& graph, ReorderStrategy strategy,
                   uint64_t seed);

// Boundary helpers. A null `perm` means identity (unreordered graph).
int ToInternalId(const NodePermutation* perm, int external_id);
int ToExternalId(const NodePermutation* perm, int internal_id);
std::vector<int> ToInternalIds(const NodePermutation* perm,
                               const std::vector<int>& external_ids);
// Projects a train/val/test split into internal ids (training boundary).
DataSplit ProjectSplit(const NodePermutation* perm, const DataSplit& split);

}  // namespace ahg

#endif  // AUTOHENS_GRAPH_REORDER_H_
