// Descriptive graph statistics: degree distribution, edge homophily,
// average local clustering, connected components, and CSR-layout locality
// measures. Used by the dataset bench (Table I), for validating the
// synthetic generators, and for observing reordering quality
// (graph/reorder.h) before/after a locality pass.
#ifndef AUTOHENS_GRAPH_STATISTICS_H_
#define AUTOHENS_GRAPH_STATISTICS_H_

#include "graph/graph.h"

namespace ahg {

namespace obs {
class MetricsRegistry;
}

struct GraphStatistics {
  int num_nodes = 0;
  int64_t num_edges = 0;
  double avg_degree = 0.0;  // undirected-view mean degree
  int max_degree = 0;
  // Fraction of edges whose endpoints share a label (labeled endpoints only).
  double edge_homophily = 0.0;
  // Mean local clustering coefficient over nodes with degree >= 2.
  double avg_clustering = 0.0;
  int connected_components = 0;
  // Size of the largest connected component.
  int largest_component = 0;

  // Locality of the kSymNorm CSR layout in the graph's CURRENT (possibly
  // permuted) id order — these are what a reorder pass moves.
  // Max |row - col| over stored entries (matrix bandwidth).
  int64_t bandwidth = 0;
  // Mean |col_i - col_{i-1}| between consecutive STORED entries within a
  // row: the average stride a row's neighbor gather walks the dense operand
  // with. Small gaps = cache-resident gathers.
  double mean_column_gap = 0.0;
  // Fraction of stored entries in the top-1% highest-degree rows (hub
  // mass; what hub clustering targets).
  double hub_mass = 0.0;
};

// Computes all statistics in one pass (clustering is O(sum deg^2); fine at
// this library's graph sizes).
GraphStatistics ComputeStatistics(const Graph& graph);

// Mirrors the locality-relevant fields into `registry` as "graph.*" gauges
// (graph.nodes, graph.edges, graph.bandwidth, graph.mean_column_gap,
// graph.hub_mass), so reordering quality is observable alongside the serve
// metrics. `prefix` is inserted after "graph." when non-empty (e.g.
// "reordered_" -> "graph.reordered_bandwidth") to expose before/after pairs.
void PublishGraphGauges(const GraphStatistics& stats,
                        obs::MetricsRegistry* registry,
                        const std::string& prefix = "");

}  // namespace ahg

#endif  // AUTOHENS_GRAPH_STATISTICS_H_
