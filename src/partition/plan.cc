#include "partition/plan.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/reorder.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::partition {

namespace {

// Materializes every per-part structure from a validated assignment.
PartitionPlan Materialize(const Graph& graph, std::vector<int> part_of,
                          int num_parts, uint64_t seed,
                          const PartitionMetrics& metrics) {
  AHG_TRACE_SPAN_ARG("partition/build_plan", graph.num_nodes());
  const SparseMatrix& adj = graph.Adjacency(AdjacencyKind::kSymNorm);
  PartitionPlan plan;
  plan.num_parts = num_parts;
  plan.seed = seed;
  plan.part_of = std::move(part_of);
  plan.metrics = metrics;
  plan.parts.resize(num_parts);

  // Owned sets in ascending global order.
  std::vector<std::vector<int>> owned(num_parts);
  for (int g = 0; g < graph.num_nodes(); ++g) {
    owned[plan.part_of[g]].push_back(g);
  }
  for (int p = 0; p < num_parts; ++p) {
    PartitionPlan::Part& part = plan.parts[p];
    // Halo = off-part columns referenced by any owned row. Collect, sort,
    // dedup; merged with the owned set this is the initial local universe.
    std::vector<int> halo;
    for (int g : owned[p]) {
      for (int64_t e = adj.row_ptr()[g]; e < adj.row_ptr()[g + 1]; ++e) {
        const int c = adj.col_idx()[e];
        if (plan.part_of[c] != p) halo.push_back(c);
      }
    }
    std::sort(halo.begin(), halo.end());
    halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
    plan.halo_nodes_total += static_cast<int64_t>(halo.size());
    std::vector<int> merged;
    std::merge(owned[p].begin(), owned[p].end(), halo.begin(), halo.end(),
               std::back_inserter(merged));
    for (int g : merged) part.Append(g, plan.part_of[g] == p);

    // Local CSR: owned rows replicate the global kSymNorm rows verbatim
    // with columns remapped (halo rows stay empty), entry order copied as
    // stored — a column re-sort would change the FP accumulation sequence.
    const int n_local = part.num_local();
    std::vector<int64_t> row_ptr(n_local + 1, 0);
    for (int l : part.owned_locals) {
      const int g = part.locals[l];
      row_ptr[l + 1] = adj.row_ptr()[g + 1] - adj.row_ptr()[g];
    }
    for (int l = 0; l < n_local; ++l) row_ptr[l + 1] += row_ptr[l];
    std::vector<int> col_idx(row_ptr[n_local]);
    std::vector<double> values(row_ptr[n_local]);
    for (int l : part.owned_locals) {
      const int g = part.locals[l];
      int64_t at = row_ptr[l];
      for (int64_t e = adj.row_ptr()[g]; e < adj.row_ptr()[g + 1]; ++e) {
        col_idx[at] = part.local_of.at(adj.col_idx()[e]);
        values[at++] = adj.values()[e];
      }
    }
    part.adj = dyn::DeltaCsr(std::make_shared<const SparseMatrix>(
        SparseMatrix::FromCsrParts(n_local, n_local, std::move(row_ptr),
                                   std::move(col_idx), std::move(values))));
    part.SetColRank(graph.permutation());
  }
  return plan;
}

}  // namespace

void PartitionPlan::Part::Append(int g, bool is_owned) {
  const int l = num_local();
  locals.push_back(g);
  local_of.emplace(g, l);
  owned.push_back(is_owned ? 1 : 0);
  if (is_owned) {
    owned_locals.push_back(l);
  } else {
    halo_globals.insert(
        std::upper_bound(halo_globals.begin(), halo_globals.end(), g), g);
  }
}

void PartitionPlan::Part::SetColRank(const NodePermutation* perm) {
  auto rank = std::make_shared<std::vector<int>>(num_local());
  for (int l = 0; l < num_local(); ++l) {
    const int g = locals[l];
    (*rank)[l] = perm != nullptr && g < perm->num_nodes()
                     ? perm->to_external[g]
                     : g;
  }
  adj.SetColRank(std::move(rank));
}

StatusOr<PartitionPlan> PartitionPlan::Build(const Graph& graph, int num_parts,
                                             const PartitionerOptions& options) {
  PartitionMetrics metrics;
  StatusOr<std::vector<int>> assignment =
      PartitionGraph(graph, num_parts, options, &metrics);
  if (!assignment.ok()) return assignment.status();
  return Materialize(graph, std::move(assignment).value(), num_parts,
                     options.seed, metrics);
}

StatusOr<PartitionPlan> PartitionPlan::BuildFromAssignment(
    const Graph& graph, std::vector<int> part_of, int num_parts) {
  if (num_parts < 1) {
    return Status::InvalidArgument(StrFormat("num_parts %d < 1", num_parts));
  }
  if (static_cast<int>(part_of.size()) != graph.num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("assignment covers %d nodes, graph has %d",
                  static_cast<int>(part_of.size()), graph.num_nodes()));
  }
  for (int g = 0; g < graph.num_nodes(); ++g) {
    if (part_of[g] < 0 || part_of[g] >= num_parts) {
      return Status::InvalidArgument(
          StrFormat("node %d assigned to part %d outside [0, %d)", g,
                    part_of[g], num_parts));
    }
  }
  const PartitionMetrics metrics = ComputeMetrics(graph, part_of, num_parts);
  return Materialize(graph, std::move(part_of), num_parts, /*seed=*/0,
                     metrics);
}

std::string PartitionPlan::Fingerprint() const {
  std::ostringstream os;
  os << "nodes " << part_of.size() << " parts " << num_parts << " seed "
     << seed << "\n";
  os << "metrics " << metrics.total_edges << " " << metrics.cut_edges << " "
     << StrFormat("%.17g", metrics.edge_cut_fraction) << " "
     << StrFormat("%.17g", metrics.balance_factor) << "\n";
  os << "assignment";
  for (int p : part_of) os << " " << p;
  os << "\n";
  for (int p = 0; p < num_parts; ++p) {
    const Part& part = parts[p];
    std::vector<int> owned_globals;
    for (int l : part.owned_locals) owned_globals.push_back(part.locals[l]);
    std::sort(owned_globals.begin(), owned_globals.end());
    os << "part " << p << " owned";
    for (int g : owned_globals) os << " " << g;
    os << " halo";
    for (int g : part.halo_globals) os << " " << g;
    os << "\n";
  }
  return os.str();
}

}  // namespace ahg::partition
