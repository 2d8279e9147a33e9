#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ahg::partition {

namespace {

// Parts may hold up to (1 + kBalanceEpsilon) * ceil(n / P) nodes.
constexpr double kBalanceEpsilon = 0.1;
// Boundary-refinement sweeps per level during uncoarsening.
constexpr int kRefinementPasses = 4;
// Coarsening stops once the graph has at most num_parts * kCoarsenTarget
// nodes (or matching stalls).
constexpr int kCoarsenTarget = 32;

// Weighted adjacency list of one coarsening level. Neighbor lists are
// sorted by id with duplicates merged, so every traversal below is
// deterministic without hashing.
struct LevelGraph {
  int n = 0;
  std::vector<int64_t> offsets;     // n + 1
  std::vector<int> nbr;             // flattened neighbor ids
  std::vector<double> wgt;          // parallel edge weights
  std::vector<double> vwgt;         // node weights (constituent counts)
};

LevelGraph FromEdges(int n, const std::vector<Edge>& edges) {
  std::vector<std::pair<int64_t, double>> sym;  // (u << 32 | v, w)
  sym.reserve(2 * edges.size());
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    sym.push_back({(int64_t{e.src} << 32) | static_cast<uint32_t>(e.dst),
                   e.weight});
    sym.push_back({(int64_t{e.dst} << 32) | static_cast<uint32_t>(e.src),
                   e.weight});
  }
  std::sort(sym.begin(), sym.end());
  LevelGraph g;
  g.n = n;
  g.offsets.assign(n + 1, 0);
  g.vwgt.assign(n, 1.0);
  for (size_t i = 0; i < sym.size();) {
    size_t j = i;
    double w = 0.0;
    while (j < sym.size() && sym[j].first == sym[i].first) w += sym[j++].second;
    const int u = static_cast<int>(sym[i].first >> 32);
    const int v = static_cast<int>(sym[i].first & 0xffffffff);
    g.nbr.push_back(v);
    g.wgt.push_back(w);
    g.offsets[u + 1] += 1;
    i = j;
  }
  for (int u = 0; u < n; ++u) g.offsets[u + 1] += g.offsets[u];
  return g;
}

// Greedy heavy-edge matching in a seeded-permutation visit order; ties on
// weight break to the smallest neighbor id. match[v] == v for singletons.
std::vector<int> HeavyEdgeMatching(const LevelGraph& g, uint64_t seed) {
  std::vector<int> perm(g.n);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&perm);
  std::vector<int> match(g.n, -1);
  for (int v : perm) {
    if (match[v] >= 0) continue;
    int best = -1;
    double best_w = 0.0;
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int u = g.nbr[e];
      if (match[u] >= 0 || u == v) continue;
      if (best < 0 || g.wgt[e] > best_w ||
          (g.wgt[e] == best_w && u < best)) {
        best = u;
        best_w = g.wgt[e];
      }
    }
    match[v] = best >= 0 ? best : v;
    if (best >= 0) match[best] = v;
  }
  return match;
}

// Collapses matched pairs. coarse_map[v] = coarse id, assigned in ascending
// order of the pair's smaller endpoint (deterministic).
LevelGraph Coarsen(const LevelGraph& g, const std::vector<int>& match,
                   std::vector<int>* coarse_map) {
  coarse_map->assign(g.n, -1);
  int cn = 0;
  for (int v = 0; v < g.n; ++v) {
    if (v <= match[v]) {
      (*coarse_map)[v] = cn;
      if (match[v] != v) (*coarse_map)[match[v]] = cn;
      ++cn;
    }
  }
  LevelGraph c;
  c.n = cn;
  c.vwgt.assign(cn, 0.0);
  for (int v = 0; v < g.n; ++v) c.vwgt[(*coarse_map)[v]] += g.vwgt[v];
  // Coarse edges: map endpoints, drop internal edges, sort-merge.
  std::vector<std::pair<int64_t, double>> coarse_edges;
  coarse_edges.reserve(g.nbr.size());
  for (int v = 0; v < g.n; ++v) {
    const int cv = (*coarse_map)[v];
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int cu = (*coarse_map)[g.nbr[e]];
      if (cu == cv) continue;
      coarse_edges.push_back(
          {(int64_t{cv} << 32) | static_cast<uint32_t>(cu), g.wgt[e]});
    }
  }
  std::sort(coarse_edges.begin(), coarse_edges.end());
  c.offsets.assign(cn + 1, 0);
  for (size_t i = 0; i < coarse_edges.size();) {
    size_t j = i;
    double w = 0.0;
    while (j < coarse_edges.size() &&
           coarse_edges[j].first == coarse_edges[i].first) {
      w += coarse_edges[j++].second;
    }
    const int u = static_cast<int>(coarse_edges[i].first >> 32);
    c.nbr.push_back(static_cast<int>(coarse_edges[i].first & 0xffffffff));
    c.wgt.push_back(w);
    c.offsets[u + 1] += 1;
    i = j;
  }
  for (int u = 0; u < cn; ++u) c.offsets[u + 1] += c.offsets[u];
  return c;
}

// Greedy balanced initial assignment at the coarsest level: nodes by
// descending weight (ties ascending id) onto the least-loaded part (ties
// lowest part id). Every part receives a node before any part receives two
// whenever there are at least num_parts nodes.
std::vector<int> InitialAssignment(const LevelGraph& g, int num_parts) {
  std::vector<int> order(g.n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return g.vwgt[a] != g.vwgt[b] ? g.vwgt[a] > g.vwgt[b] : a < b;
  });
  std::vector<double> load(num_parts, 0.0);
  std::vector<int> part(g.n, 0);
  for (int v : order) {
    int best = 0;
    for (int p = 1; p < num_parts; ++p) {
      if (load[p] < load[best]) best = p;
    }
    part[v] = best;
    load[best] += g.vwgt[v];
  }
  return part;
}

// Up to kRefinementPasses ascending-id sweeps of greedy boundary moves,
// stopping after a sweep that moves nothing. A node moves to the part
// it is most connected to when that strictly reduces the cut (or keeps it
// equal while strictly improving balance), the target stays under `cap`,
// and the source part keeps at least one node.
void RefineLevel(const LevelGraph& g, int num_parts, double cap,
                 std::vector<int>* part) {
  std::vector<double> load(num_parts, 0.0);
  std::vector<int> count(num_parts, 0);
  for (int v = 0; v < g.n; ++v) {
    load[(*part)[v]] += g.vwgt[v];
    count[(*part)[v]] += 1;
  }
  std::vector<double> conn(num_parts, 0.0);
  for (int pass = 0; pass < kRefinementPasses; ++pass) {
    bool moved = false;
    for (int v = 0; v < g.n; ++v) {
      const int cur = (*part)[v];
      if (count[cur] <= 1) continue;
      std::fill(conn.begin(), conn.end(), 0.0);
      for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        conn[(*part)[g.nbr[e]]] += g.wgt[e];
      }
      int best = -1;
      for (int p = 0; p < num_parts; ++p) {
        if (p == cur || load[p] + g.vwgt[v] > cap) continue;
        if (best < 0 || conn[p] > conn[best]) best = p;
      }
      if (best < 0) continue;
      const double gain = conn[best] - conn[cur];
      const bool balances = load[cur] > load[best] + g.vwgt[v];
      if (gain > 0.0 || (gain == 0.0 && balances)) {
        load[cur] -= g.vwgt[v];
        count[cur] -= 1;
        load[best] += g.vwgt[v];
        count[best] += 1;
        (*part)[v] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

// Guarantees every part owns at least one node: each empty part takes the
// smallest-id node of the currently largest part (ties lowest part id).
void FillEmptyParts(int n, int num_parts, std::vector<int>* part) {
  std::vector<int> count(num_parts, 0);
  for (int v = 0; v < n; ++v) count[(*part)[v]] += 1;
  for (int q = 0; q < num_parts; ++q) {
    while (count[q] == 0) {
      int donor = -1;
      for (int p = 0; p < num_parts; ++p) {
        if (count[p] > 1 && (donor < 0 || count[p] > count[donor])) donor = p;
      }
      AHG_CHECK_GE(donor, 0);  // n >= num_parts guarantees a donor
      for (int v = 0; v < n; ++v) {
        if ((*part)[v] == donor) {
          (*part)[v] = q;
          count[donor] -= 1;
          count[q] += 1;
          break;
        }
      }
    }
  }
}

}  // namespace

PartitionMetrics ComputeMetrics(const Graph& graph,
                                const std::vector<int>& part_of,
                                int num_parts) {
  PartitionMetrics m;
  for (const Edge& e : graph.edges()) {
    if (e.src == e.dst) continue;
    m.total_edges += 1;
    if (part_of[e.src] != part_of[e.dst]) m.cut_edges += 1;
  }
  m.edge_cut_fraction =
      static_cast<double>(m.cut_edges) / std::max<int64_t>(m.total_edges, 1);
  std::vector<int> count(num_parts, 0);
  for (int p : part_of) count[p] += 1;
  const int max_count = *std::max_element(count.begin(), count.end());
  const double ideal =
      static_cast<double>(graph.num_nodes()) / std::max(num_parts, 1);
  m.balance_factor = ideal > 0.0 ? max_count / ideal : 0.0;
  return m;
}

StatusOr<std::vector<int>> PartitionGraph(const Graph& graph, int num_parts,
                                          const PartitionerOptions& options,
                                          PartitionMetrics* metrics) {
  AHG_TRACE_SPAN_ARG("partition/partition_graph", graph.num_nodes());
  const int n = graph.num_nodes();
  if (num_parts < 1) {
    return Status::InvalidArgument(
        StrFormat("num_parts %d < 1", num_parts));
  }
  if (num_parts > n) {
    return Status::InvalidArgument(
        StrFormat("num_parts %d exceeds %d nodes", num_parts, n));
  }
  std::vector<int> part(n, 0);
  if (num_parts == 1) {
    if (metrics != nullptr) *metrics = ComputeMetrics(graph, part, 1);
    return part;
  }

  // Coarsening chain. levels[0] is the input graph; maps[l] projects
  // levels[l] node ids onto levels[l + 1].
  std::vector<LevelGraph> levels;
  std::vector<std::vector<int>> maps;
  levels.push_back(FromEdges(n, graph.edges()));
  const int target = num_parts * kCoarsenTarget;
  while (levels.back().n > target) {
    const LevelGraph& fine = levels.back();
    const std::vector<int> match = HeavyEdgeMatching(
        fine, options.seed + static_cast<uint64_t>(levels.size()));
    std::vector<int> coarse_map;
    LevelGraph coarse = Coarsen(fine, match, &coarse_map);
    // Stalled matching (isolated nodes, star centers) stops coarsening;
    // so does shrinking below the part count.
    if (coarse.n >= static_cast<int>(0.95 * fine.n) || coarse.n < num_parts) {
      break;
    }
    maps.push_back(std::move(coarse_map));
    levels.push_back(std::move(coarse));
  }

  // Coarsest-level assignment, then refine while projecting back up. The
  // capacity cap is in constituent node counts, so it is the same bound at
  // every level.
  const double cap = (1.0 + kBalanceEpsilon) *
                     std::ceil(static_cast<double>(n) / num_parts);
  std::vector<int> assign = InitialAssignment(levels.back(), num_parts);
  RefineLevel(levels.back(), num_parts, cap, &assign);
  for (int l = static_cast<int>(maps.size()) - 1; l >= 0; --l) {
    std::vector<int> finer(levels[l].n);
    for (int v = 0; v < levels[l].n; ++v) finer[v] = assign[maps[l][v]];
    assign = std::move(finer);
    RefineLevel(levels[l], num_parts, cap, &assign);
  }
  FillEmptyParts(n, num_parts, &assign);
  if (metrics != nullptr) *metrics = ComputeMetrics(graph, assign, num_parts);
  return assign;
}

}  // namespace ahg::partition
