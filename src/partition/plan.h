// PartitionPlan: the materialized form of an edge-cut assignment that the
// partitioned execution plane runs on.
//
// Per part, the plan holds a local node universe and a local CSR:
//  - locals: the part's owned nodes plus its halo (ghost) nodes — every
//    off-part node referenced by an owned node's adjacency row. Local id =
//    position in this list. Materialization lists them in ascending global
//    id; after that the numbering is append-only (Append): a node new to
//    the part takes the next local id and no existing local ever moves.
//  - adj: the local DeltaCsr. Owned rows replicate the global kSymNorm
//    rows with columns remapped to local ids, entries in the global row's
//    stored order; halo rows are empty (a part never computes a halo node —
//    it receives its hidden states through the HaloExchange). Bitwise
//    conformance rests on the rank-order invariant, not on the numbering:
//    every local column carries a rank (SetColRank) equal to its global
//    node's rank in the global CSR, so a local row accumulates exactly the
//    global row's entries in the same order, and the per-row SpMM kernels
//    give owned rows bitwise identical to the lone-engine product. The
//    shape may exceed num_local(): the engine grows it in row blocks, and
//    no entry references the slack rows. DeltaCsr so dynamic mutation
//    batches patch individual rows copy-on-write, as on the single engine.
//
// Plans are deterministic: Build runs the seeded partitioner
// (single-threaded) and every derived structure is assembled by sorted
// traversal, so Fingerprint() is identical across runs and thread counts
// for the same (graph, num_parts, seed).
#ifndef AUTOHENS_PARTITION_PLAN_H_
#define AUTOHENS_PARTITION_PLAN_H_

#include <cstdint>
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
    // Local -> global id; locals.size() = n_local. Append-only.
    std::vector<int> locals;
    // owned[l] != 0 iff locals[l] is owned (not halo) here.
    std::vector<uint8_t> owned;
    // Local ids of owned nodes, ascending (the rows this part computes).
    std::vector<int> owned_locals;
    // Global ids of halo nodes, ascending (HaloExchange routes by it).
    std::vector<int> halo_globals;
    // Global -> local for this part's universe only.
    std::unordered_map<int, int> local_of;
    // Local adjacency, at least n_local x n_local (see file comment).
    dyn::DeltaCsr adj;

    int num_local() const { return static_cast<int>(locals.size()); }
    int num_owned() const { return static_cast<int>(owned_locals.size()); }
    int num_halo() const { return static_cast<int>(halo_globals.size()); }

    // Gives global g the next local id, as an owned or a halo node. Does
    // not touch adj.
    void Append(int g, bool is_owned);

    // Column rank of local l = rank of its global node in the global CSR:
    // the external id under `perm` (nodes appended past it keep their id),
    // the global id itself when `perm` is null. Call after Append.
    void SetColRank(const NodePermutation* perm);
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

  // Canonical text form of the assignment, metrics, and per-part sorted
  // owned/halo global sets — independent of local numbering. Identical for
  // identical plans; the determinism tests compare it.
  std::string Fingerprint() const;
};

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PLAN_H_
