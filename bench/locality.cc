// Locality bench: the headline for the graph-reordering PR — how much of a
// SpMM-bound GCN step a locality pass recovers on a cache-hostile layout.
//
// Baseline: the same SBM graph with its node ids shuffled and rebuilt as a
// PLAIN graph (Graph::Create over relabeled edges, no permutation
// attached), so its CSR is column-sorted in shuffled order — the pessimal
// layout a real ingest pipeline can hand us. Candidates re-reorder that
// shuffled graph with the locality pass:
//   rcm  bandwidth-minimizing Reverse Cuthill-McKee
//
// Workload per layout: a 2-layer GCN step (H1 = relu((A X) W1 + b1),
// H2 = (A H1) W2 + b2) over the layout's kSymNorm CSR — SpMM-bound at
// these dims. Reported ms is the min over repeats.
//
// Conformance is a hard gate, not a report: every reordered layout must
// serve PredictAll probabilities bitwise identical (memcmp) to the
// baseline engine. Any mismatch exits non-zero regardless of flags.
// The speedup gate (best layout >= min_speedup over the shuffled
// baseline) is opt-in via --assert-speedup, since wall-clock thresholds
// are machine-dependent; the committed BENCH_locality.json records a full
// (non-fast) run.
//
// Usage: locality [--fast] [--json-out FILE] [--assert-speedup]
//                 [--min-speedup F] [--repeats N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "dyn/incremental.h"
#include "graph/reorder.h"
#include "graph/statistics.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "tensor/sparse_matrix.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace ahg {
namespace {

struct LayoutReport {
  std::string layout;
  int64_t bandwidth = 0;
  double mean_column_gap = 0.0;
  double hub_mass = 0.0;
  double step_ms = 0.0;
  double spmm_ms = 0.0;  // aggregation share of the best step
  double speedup = 1.0;  // vs the shuffled baseline
  bool conformant = true;
};

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.Row(r), b.Row(r),
                    static_cast<size_t>(a.cols()) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Min-of-repeats wall time of the 2-layer GCN step over `adj`. The
// aggregation (Spmm) share of the best repeat lands in *spmm_ms so the
// report can show the step really is SpMM-bound.
double TimeGcnStep(const SparseMatrix& adj, const Matrix& x, const Matrix& w1,
                   const Matrix& b1, const Matrix& w2, const Matrix& b2,
                   int repeats, Matrix* out, double* spmm_ms = nullptr) {
  double best_ms = 0.0;
  double best_spmm_ms = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    Stopwatch agg1;
    Matrix p1 = adj.Spmm(x);
    double agg_ms = agg1.ElapsedSeconds() * 1e3;
    Matrix h1 = dyn::DenseLayerTransform(p1, w1, b1, /*relu=*/true);
    Stopwatch agg2;
    Matrix p2 = adj.Spmm(h1);
    agg_ms += agg2.ElapsedSeconds() * 1e3;
    Matrix h2 = dyn::DenseLayerTransform(p2, w2, b2, /*relu=*/false);
    const double ms = watch.ElapsedSeconds() * 1e3;
    if (rep == 0 || ms < best_ms) {
      best_ms = ms;
      best_spmm_ms = agg_ms;
    }
    if (rep == 0) *out = std::move(h2);
  }
  if (spmm_ms != nullptr) *spmm_ms = best_spmm_ms;
  return best_ms;
}

// The shuffled-PLAIN baseline: relabel every node id through a seeded
// shuffle and rebuild from scratch. No permutation is attached — this is
// an ordinary graph whose CSR happens to have pessimal locality, which is
// exactly what the reorder pass exists to repair.
Graph ShuffledPlainGraph(const Graph& base, uint64_t seed) {
  const NodePermutation perm =
      ComputeReorder(base, ReorderStrategy::kShuffle, seed);
  std::vector<Edge> edges;
  edges.reserve(base.edges().size());
  for (const Edge& e : base.edges()) {
    edges.push_back(
        {perm.to_internal[e.src], perm.to_internal[e.dst], e.weight});
  }
  Matrix feats(base.num_nodes(), base.feature_dim());
  std::vector<int> labels(static_cast<size_t>(base.num_nodes()), 0);
  for (int v = 0; v < base.num_nodes(); ++v) {
    std::memcpy(feats.Row(perm.to_internal[v]), base.features().Row(v),
                static_cast<size_t>(base.feature_dim()) * sizeof(double));
    labels[perm.to_internal[v]] = base.labels()[v];
  }
  return Graph::Create(base.num_nodes(), std::move(edges),
                       /*directed=*/false, std::move(feats),
                       std::move(labels), base.num_classes());
}

std::string JsonReport(const SyntheticConfig& cfg, bool fast, uint64_t seed,
                       int repeats, int hidden_dim, bool conformance_pass,
                       const LayoutReport& baseline,
                       const std::vector<LayoutReport>& runs,
                       double min_speedup, double best_speedup,
                       bool speedup_asserted, bool speedup_pass) {
  std::string json = "{\n";
  json += "  \"bench\": \"locality\",\n";
  json += "  \"schema_version\": 1,\n";
  json += StrFormat(
      "  \"config\": {\"num_nodes\": %d, \"feature_dim\": %d, "
      "\"hidden_dim\": %d, \"avg_degree\": %.1f, \"fast\": %s, "
      "\"seed\": %llu, \"repeats\": %d},\n",
      cfg.num_nodes, cfg.feature_dim, hidden_dim, cfg.avg_degree,
      fast ? "true" : "false", static_cast<unsigned long long>(seed),
      repeats);
  json += StrFormat(
      "  \"conformance\": {\"bitwise_identical\": %s},\n",
      conformance_pass ? "true" : "false");
  auto layout_json = [](const LayoutReport& r) {
    return StrFormat(
        "{\"layout\": \"%s\", \"bandwidth\": %lld, "
        "\"mean_column_gap\": %.2f, \"hub_mass\": %.4f, "
        "\"step_ms\": %.4f, \"spmm_ms\": %.4f, \"speedup\": %.4f, "
        "\"conformant\": %s}",
        r.layout.c_str(), static_cast<long long>(r.bandwidth),
        r.mean_column_gap, r.hub_mass, r.step_ms, r.spmm_ms, r.speedup,
        r.conformant ? "true" : "false");
  };
  json += "  \"baseline\": " + layout_json(baseline) + ",\n";
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    json += "    " + layout_json(runs[i]) +
            (i + 1 < runs.size() ? ",\n" : "\n");
  }
  json += "  ],\n";
  json += StrFormat(
      "  \"assertions\": {\"conformance_pass\": %s, \"min_speedup\": %.2f, "
      "\"best_speedup\": %.4f, \"speedup_asserted\": %s, "
      "\"speedup_pass\": %s}\n",
      conformance_pass ? "true" : "false", min_speedup, best_speedup,
      speedup_asserted ? "true" : "false", speedup_pass ? "true" : "false");
  json += "}\n";
  return json;
}

int Main(int argc, char** argv) {
  const bool fast = bench::FastMode(argc, argv);
  std::string json_out;
  bool assert_speedup = false;
  double min_speedup = 1.2;
  int repeats_flag = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--assert-speedup") == 0) {
      assert_speedup = true;
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats_flag = std::atoi(argv[++i]);
    }
  }
  const int repeats = repeats_flag > 0 ? repeats_flag : (fast ? 3 : 15);
  const uint64_t seed = 29;
  // Hidden dim is kept small relative to the degree so the step stays
  // SpMM-bound: at degree 32 / hidden 16 the gathers are ~85% of the
  // step and the row-local GEMMs the rest.
  const int hidden_dim = 16;

  // Strong nested-community structure plus degree skew: the regime the
  // locality pass targets (real AutoGraph datasets are communities + hubs,
  // not expanders). A weak-structure SBM leaves nothing for ANY ordering
  // to recover — bandwidth stays ~n and the bench would measure noise.
  SyntheticConfig cfg;
  cfg.name = "locality-bench";
  cfg.num_nodes = fast ? 5000 : 50000;
  cfg.num_classes = 10;
  cfg.feature_dim = 32;
  cfg.avg_degree = 32.0;
  cfg.homophily = 0.97;
  cfg.communities_per_class = fast ? 5 : 50;
  cfg.community_bias = 0.97;
  cfg.power_law = 1.5;
  cfg.seed = 7;
  const Graph base = GenerateSbmGraph(cfg);
  const Graph shuffled = ShuffledPlainGraph(base, seed);

  // Shared weights for the timed step.
  Rng rng(seed ^ 0xbe9cULL);
  auto random_matrix = [&rng](int r, int c) {
    Matrix m(r, c);
    for (int i = 0; i < r; ++i) {
      for (int j = 0; j < c; ++j) m(i, j) = rng.Normal();
    }
    return m;
  };
  const Matrix x = random_matrix(shuffled.num_nodes(), cfg.feature_dim);
  const Matrix w1 = random_matrix(cfg.feature_dim, hidden_dim);
  const Matrix b1 = random_matrix(1, hidden_dim);
  const Matrix w2 = random_matrix(hidden_dim, hidden_dim);
  const Matrix b2 = random_matrix(1, hidden_dim);

  // Serving reference on the shuffled baseline (external = shuffled ids).
  serve::ServableModel model;
  model.version = 1;
  model.num_classes = shuffled.num_classes();
  model.config.family = ModelFamily::kGcn;
  model.config.in_dim = shuffled.feature_dim();
  model.config.hidden_dim = 32;
  model.config.num_layers = 2;
  model.config.seed = 11;
  std::unique_ptr<GnnModel> zoo = BuildModel(model.config);
  Rng head_rng(model.config.seed ^ 0x5ca1ab1eULL);
  Linear head(zoo->params(), model.config.hidden_dim, model.num_classes,
              /*bias=*/true, &head_rng);
  model.params = zoo->params()->Snapshot();
  serve::InferenceEngine baseline_engine(&shuffled, serve::EngineOptions{});
  auto reference_probs = baseline_engine.PredictAll(model);
  if (!reference_probs.ok()) {
    std::fprintf(stderr, "baseline forward failed\n");
    return 1;
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  auto layout_stats = [&](const std::string& name, const Graph& graph,
                          const std::string& gauge_prefix) {
    LayoutReport r;
    r.layout = name;
    const GraphStatistics stats = ComputeStatistics(graph);
    PublishGraphGauges(stats, &reg, gauge_prefix);
    r.bandwidth = stats.bandwidth;
    r.mean_column_gap = stats.mean_column_gap;
    r.hub_mass = stats.hub_mass;
    return r;
  };

  // Build phase: stats, gauges, and the conformance gates for every
  // layout. Timing comes after, interleaved, so all layouts face the same
  // interference profile on a shared machine instead of each getting its
  // own quiet-or-noisy window.
  bool conformance_pass = true;
  std::vector<LayoutReport> reports;
  std::vector<SparseMatrix> adjacencies;
  reports.push_back(layout_stats("shuffled", shuffled, "shuffled_"));
  adjacencies.push_back(shuffled.Adjacency(AdjacencyKind::kSymNorm));

  struct Candidate {
    const char* name;
    ReorderStrategy strategy;
  };
  const Candidate candidates[] = {
      {"rcm", ReorderStrategy::kRcm},
  };
  for (const Candidate& c : candidates) {
    const Graph reordered = ReorderGraph(shuffled, c.strategy, seed);
    LayoutReport r =
        layout_stats(std::string(c.name), reordered, std::string(c.name) + "_");

    // Hard gate: served probabilities bitwise identical to the baseline
    // engine (PredictAll rows are in external = shuffled-id order).
    serve::InferenceEngine engine(&reordered, serve::EngineOptions{});
    auto probs = engine.PredictAll(model);
    if (!probs.ok() || !BitwiseEqual(reference_probs.value(), probs.value())) {
      r.conformant = false;
      conformance_pass = false;
    }
    reports.push_back(std::move(r));
    adjacencies.push_back(reordered.Adjacency(AdjacencyKind::kSymNorm));
  }

  // Timing phase: round-robin over the layouts, min per layout.
  for (int rep = 0; rep < repeats; ++rep) {
    for (size_t i = 0; i < adjacencies.size(); ++i) {
      Matrix out;
      double spmm_ms = 0.0;
      const double ms = TimeGcnStep(adjacencies[i], x, w1, b1, w2, b2,
                                    /*repeats=*/1, &out, &spmm_ms);
      if (rep == 0 || ms < reports[i].step_ms) {
        reports[i].step_ms = ms;
        reports[i].spmm_ms = spmm_ms;
      }
    }
  }
  LayoutReport baseline = reports.front();
  std::vector<LayoutReport> runs(reports.begin() + 1, reports.end());
  for (LayoutReport& r : runs) {
    r.speedup = r.step_ms > 0.0 ? baseline.step_ms / r.step_ms : 0.0;
  }

  bench::TablePrinter table({"layout", "bandwidth", "mean_gap", "hub_mass",
                             "step_ms", "spmm_share", "speedup",
                             "conformant"});
  auto add_row = [&table](const LayoutReport& r) {
    table.AddRow({r.layout, std::to_string(r.bandwidth),
                  StrFormat("%.1f", r.mean_column_gap),
                  StrFormat("%.3f", r.hub_mass),
                  StrFormat("%.3f", r.step_ms),
                  StrFormat("%.0f%%",
                            r.step_ms > 0.0 ? 100.0 * r.spmm_ms / r.step_ms
                                            : 0.0),
                  StrFormat("%.3fx", r.speedup), r.conformant ? "yes" : "NO"});
  };
  add_row(baseline);
  for (const LayoutReport& r : runs) add_row(r);
  table.Print();

  double best_speedup = 0.0;
  for (const LayoutReport& r : runs) {
    best_speedup = std::max(best_speedup, r.speedup);
  }
  const bool speedup_pass = best_speedup >= min_speedup;
  std::printf("\nbest speedup over shuffled baseline: %.3fx (gate %.2fx, "
              "%s)\n",
              best_speedup, min_speedup,
              assert_speedup ? "asserted" : "informational");
  std::printf("conformance (bitwise vs baseline engine): %s\n",
              conformance_pass ? "PASS" : "FAIL");

  const std::string json = JsonReport(
      cfg, fast, seed, repeats, hidden_dim, conformance_pass, baseline, runs,
      min_speedup, best_speedup, assert_speedup,
      assert_speedup ? speedup_pass : true);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    out << json;
    if (!out.good()) {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_out.c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }

  if (!conformance_pass) {
    std::fprintf(stderr, "FAIL: a reordered layout is not bitwise "
                         "conformant\n");
    return 1;
  }
  if (assert_speedup && !speedup_pass) {
    std::fprintf(stderr,
                 "FAIL: best speedup %.3fx under --assert-speedup gate "
                 "%.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ahg

int main(int argc, char** argv) { return ahg::Main(argc, argv); }
