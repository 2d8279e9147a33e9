// Partitioned execution-plane demo: serving one graph from K edge-cut
// parts instead of K full replicas.
//
// Boots a ServingFabric in partitioned mode: the seeded multilevel
// partitioner cuts an SBM graph into num_shards parts, each part holds
// only its owned nodes plus a halo appendix, and one PartitionedEngine
// serves the whole graph through per-part batchers. The demo
//   1. prints the partition plan (owned/halo sizes, cut fraction, balance),
//   2. replays a seeded zipfian query mix and checks every answer bitwise
//      against a lone single-engine reference,
//   3. rolls the fleet to version 2 mid-replay (atomic pin flip),
//   4. streams a fixed sequence of cut-edge batches (one new cut edge and
//      one feature update each) through SubmitMutation/PublishStream — each
//      delta routes through the plan with per-stage halo exchange, appends
//      halo locals, and together they overflow a part's row growth block —
//      and re-verifies bitwise against a cold engine on the mutated graph.
//
// Usage:
//   autohens_partition [--shards N] [--nodes V] [--queries Q] [--seed S]
//                      [--reorder none|rcm|shuffle]
//                      [--registry-root DIR]
//
// --reorder runs the locality pass before the plan is built, so every part
// CSR, feature block, and layer state lives in permuted order. Query and
// mutation ids stay external; both the partitioned engine and the lone
// reference translate at their boundaries, so the bitwise verification is
// unchanged — CI runs `--reorder rcm` as the partitioned conformance gate.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "fabric/fabric.h"
#include "fabric/loadgen.h"
#include "graph/reorder.h"
#include "graph/synthetic.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "partition/partitioned_engine.h"
#include "partition/plan.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "util/rng.h"

namespace {

// Cut-edge batches streamed after the replay: each appends at least one
// local to part 0, more than the engine's 64-row growth block.
constexpr int kChurnBatches = 80;

const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

ahg::Status PublishVersion(const std::string& dir, const ahg::Graph& graph,
                           int version, uint64_t seed) {
  ahg::ModelConfig cfg;
  cfg.family = version == 1 ? ahg::ModelFamily::kGcn : ahg::ModelFamily::kSgc;
  cfg.in_dim = graph.feature_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = seed;
  std::unique_ptr<ahg::GnnModel> zoo = ahg::BuildModel(cfg);
  ahg::Rng head_rng(seed ^ 0x5ca1ab1eULL);
  ahg::Linear head(zoo->params(), cfg.hidden_dim, graph.num_classes(),
                   /*bias=*/true, &head_rng);
  return ahg::serve::ModelRegistry::Publish(
      dir, version, cfg, zoo->params()->Snapshot(), graph.num_classes());
}

// Bitwise check of `count` zipfian-sampled answers against reference rows.
int VerifyReplay(ahg::fabric::ServingFabric* fabric, const ahg::Matrix& ref1,
                 const ahg::Matrix* ref2, int count, ahg::Rng* rng,
                 ahg::fabric::ZipfianSampler* popularity, int* mismatches) {
  int flipped_at = -1;
  for (int q = 0; q < count; ++q) {
    if (ref2 != nullptr && q == count / 2) {
      if (!fabric->Rollout(2).ok()) return -2;
      flipped_at = q;
    }
    const int node = popularity->Sample(rng);
    const ahg::serve::QueryResult result = fabric->Query(node).get();
    if (!result.status.ok()) {
      ++*mismatches;
      continue;
    }
    const ahg::Matrix& ref = result.served_version == 2 && ref2 ? *ref2 : ref1;
    if (std::memcmp(result.probs.data(), ref.Row(node),
                    result.probs.size() * sizeof(double)) != 0) {
      ++*mismatches;
    }
  }
  fabric->Drain();
  return flipped_at;
}

int Main(int argc, char** argv) {
  const int shards = std::atoi(FlagValue(argc, argv, "--shards", "4"));
  const int nodes = std::atoi(FlagValue(argc, argv, "--nodes", "3000"));
  const int queries = std::atoi(FlagValue(argc, argv, "--queries", "2000"));
  const uint64_t seed = static_cast<uint64_t>(
      std::atoll(FlagValue(argc, argv, "--seed", "17")));
  const char* tmp = std::getenv("TMPDIR");
  const std::string root = FlagValue(
      argc, argv, "--registry-root",
      (std::string(tmp ? tmp : "/tmp") + "/autohens_partition").c_str());

  ahg::SyntheticConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_classes = 4;
  cfg.feature_dim = 16;
  cfg.avg_degree = 5.0;
  cfg.seed = seed;
  ahg::Graph graph = ahg::GenerateSbmGraph(cfg);

  ahg::StatusOr<ahg::ReorderStrategy> strategy_or =
      ahg::ParseReorderStrategy(FlagValue(argc, argv, "--reorder", "none"));
  if (!strategy_or.ok()) {
    std::fprintf(stderr, "%s\n", strategy_or.status().ToString().c_str());
    return 1;
  }
  if (strategy_or.value() != ahg::ReorderStrategy::kNone) {
    graph = ahg::ReorderGraph(graph, strategy_or.value(), seed);
    std::printf("reorder=%s applied before partitioning\n",
                ahg::ReorderStrategyName(strategy_or.value()));
  }

  std::filesystem::remove_all(root);
  for (int version : {1, 2}) {
    ahg::Status published =
        PublishVersion(root, graph, version, seed + 10 + version);
    if (!published.ok()) {
      std::fprintf(stderr, "publish v%d failed: %s\n", version,
                   published.ToString().c_str());
      return 1;
    }
  }
  ahg::serve::ModelRegistry registry(root);
  if (!registry.Refresh().ok()) {
    std::fprintf(stderr, "registry load failed\n");
    return 1;
  }

  ahg::fabric::FabricOptions options;
  options.num_shards = shards;
  options.batcher.max_batch_size = 16;
  options.batcher.deadline_ms = 0.0;
  options.batcher.max_queue_delay_ms = 2.0;
  ahg::fabric::ServingFabric fabric(options);
  ahg::Status served = fabric.ServePartitioned(&graph, &registry);
  if (!served.ok()) {
    std::fprintf(stderr, "ServePartitioned: %s\n", served.ToString().c_str());
    return 1;
  }
  if (!fabric.Rollout(1).ok()) {
    std::fprintf(stderr, "initial rollout failed\n");
    return 1;
  }

  const ahg::partition::PartitionPlan& plan =
      fabric.partitioned_engine()->plan();
  std::printf("partition plan: %d nodes -> %d parts, cut %.1f%%, "
              "balance %.3f\n",
              graph.num_nodes(), plan.num_parts,
              100.0 * plan.metrics.edge_cut_fraction,
              plan.metrics.balance_factor);
  for (int p = 0; p < plan.num_parts; ++p) {
    std::printf("  part %d: %5d owned + %5d halo\n", p,
                plan.parts[p].num_owned(), plan.parts[p].num_halo());
  }

  // Single-engine reference rows for both published versions.
  ahg::serve::InferenceEngine reference(&graph, ahg::serve::EngineOptions{});
  auto ref1 = reference.PredictAll(*registry.Version(1));
  auto ref2 = reference.PredictAll(*registry.Version(2));
  if (!ref1.ok() || !ref2.ok()) {
    std::fprintf(stderr, "reference forward failed\n");
    return 1;
  }

  ahg::Rng node_rng(seed ^ 0xfab51c);
  ahg::fabric::ZipfianSampler popularity(graph.num_nodes(), 0.99);
  int mismatches = 0;
  const int flipped_at = VerifyReplay(&fabric, ref1.value(), &ref2.value(),
                                      queries, &node_rng, &popularity,
                                      &mismatches);
  if (flipped_at == -2) {
    std::fprintf(stderr, "rollout failed\n");
    return 1;
  }
  std::printf("\nreplayed %d queries (rolled to v2 at query %d): "
              "%d bitwise mismatches\n",
              queries, flipped_at, mismatches);

  // Stream cut-edge batches through the plan and re-verify against a cold
  // engine on the mutated graph. Each batch joins a part-0 node to a node
  // part 0 does not hold yet, so every batch appends a halo local to part 0
  // and the batches overflow its row growth block.
  auto snap = ahg::dyn::GraphSnapshot::FromGraph(graph);
  if (!snap.ok()) return 1;
  ahg::dyn::GraphSnapshot current = std::move(snap).value();
  ahg::partition::PartitionedEngine& engine = *fabric.partitioned_engine();
  const int part0_locals = plan.parts[0].num_local();
  std::vector<double> feat(static_cast<size_t>(graph.feature_dim()), 0.25);
  for (int b = 0; b < kChurnBatches; ++b) {
    int u = 0, v = 0;
    do {
      u = static_cast<int>(node_rng.UniformInt(graph.num_nodes()));
      v = static_cast<int>(node_rng.UniformInt(graph.num_nodes()));
    } while (engine.OwnerOf(u).value() != 0 ||
             plan.parts[0].local_of.count(current.ToInternal(v)) > 0);
    feat[0] = 0.01 * b;
    const std::vector<ahg::dyn::Mutation> batch = {
        ahg::dyn::Mutation::AddEdge(u, v),
        ahg::dyn::Mutation::UpdateFeatures(v, feat),
    };
    for (const ahg::dyn::Mutation& m : batch) {
      auto seq = fabric.SubmitMutation(ahg::fabric::kDefaultTenant, m);
      if (!seq.ok()) {
        std::fprintf(stderr, "submit: %s\n", seq.status().ToString().c_str());
        return 1;
      }
    }
    ahg::Status published = fabric.PublishStream(ahg::fabric::kDefaultTenant);
    if (!published.ok()) {
      std::fprintf(stderr, "publish stream: %s\n",
                   published.ToString().c_str());
      return 1;
    }
    auto next = current.Apply(batch);
    if (!next.ok()) return 1;
    current = std::move(next).value().first;
  }
  std::printf("streamed %d cut-edge batches through the plan (snapshot "
              "v%llu, %lld halo rows exchanged so far); part 0 grew from %d "
              "to %d locals in %lld block growths\n",
              kChurnBatches,
              static_cast<unsigned long long>(engine.snapshot_version()),
              static_cast<long long>(engine.rows_exchanged()), part0_locals,
              plan.parts[0].num_local(),
              static_cast<long long>(ahg::obs::MetricsRegistry::Global()
                                         .GetCounter("partition.part_grows")
                                         ->Value()));

  ahg::Graph mutated = current.MaterializeGraph();
  ahg::serve::InferenceEngine cold(&mutated, ahg::serve::EngineOptions{});
  auto mref = cold.PredictAll(*registry.Version(2));
  if (!mref.ok()) return 1;
  int post_mismatches = 0;
  VerifyReplay(&fabric, mref.value(), nullptr, queries / 2, &node_rng,
               &popularity, &post_mismatches);
  std::printf("replayed %d post-mutation queries: %d bitwise mismatches\n",
              queries / 2, post_mismatches);

  if (mismatches + post_mismatches > 0) {
    std::fprintf(stderr, "FAIL: partitioned answers diverged\n");
    return 1;
  }
  std::printf("\nall answers bitwise identical to the single-engine "
              "reference\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
