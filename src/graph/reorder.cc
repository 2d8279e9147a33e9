#include "graph/reorder.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ahg {

const char* ReorderStrategyName(ReorderStrategy strategy) {
  switch (strategy) {
    case ReorderStrategy::kNone:
      return "none";
    case ReorderStrategy::kRcm:
      return "rcm";
    case ReorderStrategy::kShuffle:
      return "shuffle";
  }
  return "none";
}

StatusOr<ReorderStrategy> ParseReorderStrategy(const std::string& name) {
  if (name == "none") return ReorderStrategy::kNone;
  if (name == "rcm") return ReorderStrategy::kRcm;
  if (name == "shuffle") return ReorderStrategy::kShuffle;
  return Status::InvalidArgument(
      StrFormat("unknown reorder strategy '%s' (none|rcm|shuffle)",
                name.c_str()));
}

NodePermutation NodePermutation::Identity(int num_nodes) {
  NodePermutation perm;
  perm.to_internal.resize(num_nodes);
  perm.to_external.resize(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    perm.to_internal[i] = i;
    perm.to_external[i] = i;
  }
  return perm;
}

NodePermutation NodePermutation::ComposedWith(
    const std::vector<int>& remap) const {
  AHG_CHECK_EQ(static_cast<int>(remap.size()), num_nodes());
  NodePermutation out;
  out.strategy = strategy;
  out.seed = seed;
  out.to_internal.resize(to_internal.size());
  out.to_external.resize(to_internal.size());
  for (int e = 0; e < num_nodes(); ++e) {
    const int i = remap[to_internal[e]];
    AHG_CHECK(i >= 0 && i < num_nodes());
    out.to_internal[e] = i;
    out.to_external[i] = e;
  }
  return out;
}

NodePermutation NodePermutation::ExtendedTo(int n) const {
  AHG_CHECK_GE(n, num_nodes());
  NodePermutation out = *this;
  out.to_internal.reserve(n);
  out.to_external.reserve(n);
  for (int i = num_nodes(); i < n; ++i) {
    out.to_internal.push_back(i);
    out.to_external.push_back(i);
  }
  return out;
}

std::string NodePermutation::Serialize() const {
  std::ostringstream out;
  out << "ahg-node-perm 1\n";
  out << "strategy " << ReorderStrategyName(strategy) << "\n";
  out << "seed " << seed << "\n";
  out << "nodes " << num_nodes() << "\n";
  for (int e = 0; e < num_nodes(); ++e) {
    out << to_internal[e] << (e + 1 == num_nodes() ? "" : " ");
  }
  out << "\n";
  return out.str();
}

StatusOr<NodePermutation> NodePermutation::Deserialize(
    const std::string& text) {
  std::istringstream in(text);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "ahg-node-perm" ||
      version != "1") {
    return Status::InvalidArgument("bad node-perm header");
  }
  std::string key, strategy_name;
  NodePermutation perm;
  if (!(in >> key >> strategy_name) || key != "strategy") {
    return Status::InvalidArgument("bad node-perm strategy line");
  }
  StatusOr<ReorderStrategy> strategy = ParseReorderStrategy(strategy_name);
  if (!strategy.ok()) return strategy.status();
  perm.strategy = strategy.value();
  uint64_t seed = 0;
  if (!(in >> key >> seed) || key != "seed") {
    return Status::InvalidArgument("bad node-perm seed line");
  }
  perm.seed = seed;
  int n = 0;
  if (!(in >> key >> n) || key != "nodes" || n < 0) {
    return Status::InvalidArgument("bad node-perm nodes line");
  }
  // Each entry needs a separator and a digit, so a count the rest of the
  // text cannot hold is rejected before anything is sized from it.
  const std::streamoff pos = in.tellg();
  const int64_t remaining =
      pos < 0 ? 0 : static_cast<int64_t>(text.size()) - pos;
  if (int64_t{n} > remaining / 2) {
    return Status::InvalidArgument(
        StrFormat("node-perm claims %d nodes but only %lld bytes follow", n,
                  static_cast<long long>(remaining)));
  }
  perm.to_internal.resize(n);
  perm.to_external.assign(n, -1);
  for (int e = 0; e < n; ++e) {
    int i = 0;
    if (!(in >> i) || i < 0 || i >= n) {
      return Status::InvalidArgument(
          StrFormat("node-perm entry %d missing or outside [0, %d)", e, n));
    }
    if (perm.to_external[i] != -1) {
      return Status::InvalidArgument(
          StrFormat("node-perm maps two externals to internal %d", i));
    }
    perm.to_internal[e] = i;
    perm.to_external[i] = e;
  }
  return perm;
}

namespace {

// Symmetrized, self-loop-free, ascending neighbor lists in external ids.
std::vector<std::vector<int>> NeighborLists(const Graph& graph) {
  std::vector<std::vector<int>> neighbors(graph.num_nodes());
  for (const Edge& e : graph.edges()) {
    if (e.src == e.dst) continue;
    neighbors[e.src].push_back(e.dst);
    neighbors[e.dst].push_back(e.src);
  }
  for (auto& list : neighbors) {
    std::sort(list.begin(), list.end());
    // Directed graphs may hold both orientations of a pair.
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return neighbors;
}

// Cuthill-McKee visit order, reversed. BFS from the minimum-(degree, id)
// unvisited node of each component; frontier neighbors appended in
// ascending (degree, id). Single-threaded and tie-break-pinned, so the
// order is byte-identical across runs.
std::vector<int> RcmOrder(const std::vector<std::vector<int>>& neighbors) {
  const int n = static_cast<int>(neighbors.size());
  std::vector<int> by_degree(n);
  for (int i = 0; i < n; ++i) by_degree[i] = i;
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](int a, int b) {
    return neighbors[a].size() < neighbors[b].size();
  });

  std::vector<int> order;
  order.reserve(n);
  std::vector<uint8_t> visited(n, 0);
  std::vector<int> frontier;
  size_t seed_cursor = 0;
  while (static_cast<int>(order.size()) < n) {
    while (visited[by_degree[seed_cursor]]) ++seed_cursor;
    const int seed = by_degree[seed_cursor];
    visited[seed] = 1;
    order.push_back(seed);
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      const int u = order[head];
      frontier.clear();
      for (int v : neighbors[u]) {
        if (!visited[v]) {
          visited[v] = 1;
          frontier.push_back(v);
        }
      }
      // Neighbor lists ascend by id, so a stable degree sort yields the
      // (degree, id) order.
      std::stable_sort(frontier.begin(), frontier.end(), [&](int a, int b) {
        return neighbors[a].size() < neighbors[b].size();
      });
      order.insert(order.end(), frontier.begin(), frontier.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<int> ShuffleOrder(int n, uint64_t seed) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  rng.Shuffle(&order);
  return order;
}

}  // namespace

NodePermutation ComputeReorderFromAdjacency(
    const std::vector<std::vector<int>>& neighbors, ReorderStrategy strategy,
    uint64_t seed) {
  const int n = static_cast<int>(neighbors.size());
  std::vector<int> order;  // order[i] = external id placed at internal i
  switch (strategy) {
    case ReorderStrategy::kNone:
      return NodePermutation::Identity(n);
    case ReorderStrategy::kRcm:
      order = RcmOrder(neighbors);
      break;
    case ReorderStrategy::kShuffle:
      order = ShuffleOrder(n, seed);
      break;
  }
  NodePermutation perm;
  perm.strategy = strategy;
  perm.seed = seed;
  perm.to_external = std::move(order);
  perm.to_internal.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    AHG_CHECK_EQ(perm.to_internal[perm.to_external[i]], -1);
    perm.to_internal[perm.to_external[i]] = i;
  }
  return perm;
}

NodePermutation ComputeReorder(const Graph& graph, ReorderStrategy strategy,
                               uint64_t seed) {
  if (strategy == ReorderStrategy::kNone ||
      strategy == ReorderStrategy::kShuffle) {
    // Topology-free strategies skip the neighbor-list build.
    return ComputeReorderFromAdjacency(
        std::vector<std::vector<int>>(graph.num_nodes()), strategy, seed);
  }
  return ComputeReorderFromAdjacency(NeighborLists(graph), strategy, seed);
}

SparseMatrix PermuteSparse(const SparseMatrix& external,
                           const NodePermutation& perm) {
  const int n = external.rows();
  AHG_CHECK_EQ(external.cols(), n);
  AHG_CHECK_EQ(perm.num_nodes(), n);
  const std::vector<int64_t>& src_ptr = external.row_ptr();
  const std::vector<int>& src_col = external.col_idx();
  const std::vector<double>& src_val = external.values();

  std::vector<int64_t> row_ptr(n + 1, 0);
  for (int e = 0; e < n; ++e) {
    row_ptr[perm.to_internal[e] + 1] = src_ptr[e + 1] - src_ptr[e];
  }
  for (int i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];

  std::vector<int> col_idx(external.nnz());
  std::vector<double> values(external.nnz());
  for (int e = 0; e < n; ++e) {
    const int64_t src_begin = src_ptr[e];
    const int64_t len = src_ptr[e + 1] - src_begin;
    const int64_t dst_begin = row_ptr[perm.to_internal[e]];
    for (int64_t k = 0; k < len; ++k) {
      col_idx[dst_begin + k] = perm.to_internal[src_col[src_begin + k]];
    }
    // Values byte-copied in stored order: the permuted row accumulates the
    // identical FP sequence, which is the whole bitwise-conformance story.
    if (len > 0) {
      std::memcpy(values.data() + dst_begin, src_val.data() + src_begin,
                  static_cast<size_t>(len) * sizeof(double));
    }
  }
  return SparseMatrix::FromCsrParts(n, n, std::move(row_ptr),
                                    std::move(col_idx), std::move(values));
}

Graph ApplyNodePermutation(const Graph& graph,
                           std::shared_ptr<const NodePermutation> perm) {
  AHG_CHECK(perm != nullptr);
  AHG_CHECK_MSG(graph.permutation() == nullptr,
                "graph already reordered; dynamic re-reorders go through "
                "GraphSnapshot::Reordered");
  AHG_CHECK_EQ(perm->num_nodes(), graph.num_nodes());
  const std::vector<int>& p = perm->to_internal;

  Graph out;
  out.num_nodes_ = graph.num_nodes_;
  out.directed_ = graph.directed_;
  out.num_classes_ = graph.num_classes_;
  out.edges_.reserve(graph.edges_.size());
  for (const Edge& e : graph.edges_) {
    out.edges_.push_back({p[e.src], p[e.dst], e.weight});
  }
  if (graph.features_.rows() > 0) {
    out.features_ = Matrix(graph.features_.rows(), graph.features_.cols());
    for (int e = 0; e < graph.num_nodes_; ++e) {
      const double* src = graph.features_.Row(e);
      std::copy(src, src + graph.features_.cols(), out.features_.Row(p[e]));
    }
  }
  out.labels_.resize(graph.labels_.size());
  for (int e = 0; e < graph.num_nodes_; ++e) {
    out.labels_[p[e]] = graph.labels_[e];
  }
  // Permute the prebuilt caches directly instead of rebuilding: a rebuild
  // would re-sort entries by internal id and re-accumulate degrees in a new
  // order, breaking bitwise identity with the unreordered graph.
  for (int k = 0; k < kNumAdjacencyKinds; ++k) {
    out.adjacency_[k] = PermuteSparse(graph.adjacency_[k], *perm);
  }
  out.perm_ = std::move(perm);
  return out;
}

Graph ReorderGraph(const Graph& graph, ReorderStrategy strategy,
                   uint64_t seed) {
  if (strategy == ReorderStrategy::kNone) return graph;
  return ApplyNodePermutation(
      graph, std::make_shared<const NodePermutation>(
                 ComputeReorder(graph, strategy, seed)));
}

int ToInternalId(const NodePermutation* perm, int external_id) {
  return perm == nullptr ? external_id : perm->to_internal[external_id];
}

int ToExternalId(const NodePermutation* perm, int internal_id) {
  return perm == nullptr ? internal_id : perm->to_external[internal_id];
}

std::vector<int> ToInternalIds(const NodePermutation* perm,
                               const std::vector<int>& external_ids) {
  if (perm == nullptr) return external_ids;
  std::vector<int> out;
  out.reserve(external_ids.size());
  for (int e : external_ids) out.push_back(perm->to_internal[e]);
  return out;
}

DataSplit ProjectSplit(const NodePermutation* perm, const DataSplit& split) {
  if (perm == nullptr) return split;
  DataSplit out;
  out.train = ToInternalIds(perm, split.train);
  out.val = ToInternalIds(perm, split.val);
  out.test = ToInternalIds(perm, split.test);
  return out;
}

}  // namespace ahg
