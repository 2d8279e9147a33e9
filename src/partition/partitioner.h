// Deterministic multilevel edge-cut partitioner (METIS-style, in-process).
//
// Three classic phases: greedy heavy-edge matching coarsens the graph level
// by level, a balanced greedy assignment partitions the coarsest level, and
// FM-style boundary refinement improves the cut while projecting back up.
// Everything is single-threaded and seeded: the only randomness is the
// Rng(seed + level)-shuffled visit order of the matching pass, so the same
// (graph, num_parts, seed) triple produces byte-identical assignments on
// every run and at every thread-pool size — the property the partition
// plan's Fingerprint() determinism test compares.
//
// Quality is reported, not assumed: edge-cut fraction (cut edges / total
// edges, self loops excluded) and balance factor (heaviest part over ideal
// n/P). The refinement pass never moves a node when the move would overflow
// the 1.1 * ceil(n/P) capacity or empty its source part, and a final
// rebalance step guarantees every part owns at least one node whenever
// num_parts <= num_nodes.
#ifndef AUTOHENS_PARTITION_PARTITIONER_H_
#define AUTOHENS_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace ahg::partition {

struct PartitionerOptions {
  uint64_t seed = 1;  // seeds the matching pass's visit order
};

struct PartitionMetrics {
  int64_t total_edges = 0;  // distinct undirected edges, self loops excluded
  int64_t cut_edges = 0;    // edges whose endpoints land in different parts
  double edge_cut_fraction = 0.0;  // cut_edges / max(total_edges, 1)
  double balance_factor = 0.0;     // max part size / (n / P)
};

// Node -> part assignment for `graph` into `num_parts` parts.
// InvalidArgument when num_parts < 1 or num_parts > num_nodes. Every part
// is guaranteed non-empty. Self loops are ignored; parallel orientations of
// an undirected edge count once.
StatusOr<std::vector<int>> PartitionGraph(const Graph& graph, int num_parts,
                                          const PartitionerOptions& options,
                                          PartitionMetrics* metrics = nullptr);

// Metrics of an existing assignment (validation, BuildFromAssignment).
PartitionMetrics ComputeMetrics(const Graph& graph,
                                const std::vector<int>& part_of,
                                int num_parts);

}  // namespace ahg::partition

#endif  // AUTOHENS_PARTITION_PARTITIONER_H_
