// PartitionPlan: the materialized form of an edge-cut assignment that the
// partitioned execution plane runs on.
//
// Per part, the plan holds a local node universe and a local CSR:
//  - locals: the part's owned nodes plus its halo (ghost) nodes — every
//    off-part node referenced by an owned node's adjacency row — listed in
//    ascending GLOBAL id. Local id = rank in this list. This "merged
//    global-order" numbering is the key bitwise-conformance decision:
//    ascending-local equals ascending-global, so a local adjacency row
//    lists exactly the entries of the global row in the same order, and
//    the per-row SpMM kernels (fixed ascending-entry accumulation) produce
//    owned rows bitwise identical to the lone-engine product.
//  - adj: an n_local x n_local DeltaCsr. Owned rows replicate the global
//    kSymNorm rows with columns remapped to local ids; halo rows are empty
//    (a part never computes a halo node — it receives its hidden states
//    through the HaloExchange). DeltaCsr so dynamic mutation batches patch
//    individual rows copy-on-write, same as the single-engine path.
//
// Plans are deterministic byte-for-byte: Build runs the seeded partitioner
// (single-threaded) and every derived structure is assembled by sorted
// traversal, so Serialize() output is identical across runs and thread
// counts for the same (graph, num_parts, seed).
#ifndef AUTOHENS_PARTITION_PLAN_H_
#define AUTOHENS_PARTITION_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dyn/delta_csr.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace ahg::partition {

struct PartitionPlan {
  struct Part {
    // Local -> global id, ascending; locals.size() = n_local.
    std::vector<int> locals;
    // owned[l] != 0 iff locals[l] is owned (not halo) here.
    std::vector<uint8_t> owned;
    // Local ids of owned nodes, ascending (the rows this part computes).
    std::vector<int> owned_locals;
    // Global ids of halo nodes, ascending.
    std::vector<int> halo_globals;
    // Global -> local for this part's universe only.
    std::unordered_map<int, int> local_of;
    // n_local x n_local local adjacency (see file comment).
    dyn::DeltaCsr adj;

    int num_local() const { return static_cast<int>(locals.size()); }
    int num_owned() const { return static_cast<int>(owned_locals.size()); }
    int num_halo() const { return static_cast<int>(halo_globals.size()); }

    // Re-derives part p from its local universe — the merge of the
    // disjoint ascending global-id lists `a` and `b` — under the assignment
    // `part_of`: every field above, with owned adjacency rows copied from
    // `global_row(g)`. Shared by plan materialization and the engine's part
    // rebuild.
    void Relayout(int p, const std::vector<int>& a, const std::vector<int>& b,
                  const std::vector<int>& part_of,
                  const std::function<dyn::DeltaCsr::RowRef(int g)>&
                      global_row);

    // Local column rank = external id of the local's global node under
    // `perm` (nodes appended past it keep their id), so DeltaCsr's
    // ascending-rank invariant keeps holding part-locally.
    void SetColRank(const NodePermutation& perm);
  };

  int num_parts = 0;
  uint64_t seed = 0;
  std::vector<int> part_of;  // global -> owning part
  PartitionMetrics metrics;
  int64_t halo_nodes_total = 0;  // sum of per-part halo counts
  std::vector<Part> parts;

  // Partitions `graph` with the seeded multilevel partitioner and
  // materializes the per-part structures. The plan reads the graph's
  // kSymNorm adjacency — the matrix GCN/SGC propagation multiplies by.
  static StatusOr<PartitionPlan> Build(const Graph& graph, int num_parts,
                                       const PartitionerOptions& options = {});

  // Same materialization over a caller-supplied assignment (tests, external
  // partitioners). Validates size and range; empty parts are permitted.
  static StatusOr<PartitionPlan> BuildFromAssignment(const Graph& graph,
                                                     std::vector<int> part_of,
                                                     int num_parts);

  // Canonical text form ("ahg-partition-plan 1"): assignment, metrics, and
  // per-part owned/halo lists. Byte-identical for identical plans — the
  // determinism tests memcmp this.
  std::string Serialize() const;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PLAN_H_
