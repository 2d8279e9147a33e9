// Workloads "stream" and "partitioned": open-loop reads from one generator
// thread beside mutation batches against the serving fabric.
//
//   stream       a one-tenant fabric with a StreamingServer attached (RCM
//                re-reorder at compaction). Reads at a fixed rate beside
//                mutation batches (SubmitMutation + PublishStream) at a
//                fixed rate. Headline op: a mutation batch.
//   partitioned  ServePartitioned at 2 parts, same graph size, read stream
//                and mutation mix as `stream`. Headline op: a batch.
//
// Every read is timed from its scheduled send time to its answer: the
// batcher's enqueue->answer clock plus the generator's lateness.
#include <algorithm>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dyn/incremental.h"
#include "dyn/mutation.h"
#include "dyn/snapshot.h"
#include "dyn/stream_server.h"
#include "fabric/fabric.h"
#include "fabric/loadgen.h"
#include "graph/synthetic.h"
#include "models/model.h"
#include "nn/linear.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "tensor/alloc_tracker.h"
#include "tensor/pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ahg::dyn::Mutation;
using ahg::fabric::ServingFabric;
using ahg::serve::QueryResult;

constexpr double kInf = std::numeric_limits<double>::infinity();
// A generator whose median lateness grows by more than this from the first
// to the last quarter of its schedule has fallen behind; the run is invalid.
constexpr double kLateLimitMs = 1.0;
constexpr double kReadQps = 1000.0;
// Mutation batches per second. A stream batch takes about 25 ms and keeps
// its published graph alive (peak memory grows by ~3 MB a batch), so stream
// runs half the partitioned rate; both leave the generator idle most of
// each slot.
double BatchesPerSecond(bool stream) { return stream ? 10.0 : 20.0; }
// The guarded batch tail. A partitioned batch takes anywhere from 1 to 15 ms
// (it depends on the rows a batch dirties and on the readers it waits for),
// and its p95 moved by 20-30% between seeds on a shared 4-core host, with
// 200 or 500 batches a run; p90 held within 10%. refresh_p95_ms is printed.
// Either workload's run holds at least 300 batches, 30 beyond the p90.
constexpr double kRefreshTail = 90.0;
constexpr double kWarmupSeconds = 0.5;  // reads before measuring
constexpr int kPredictNodes = 16;
// The dataset, model and partition plan are fixed; the workload seed draws
// the traffic (reads and mutation batches). A seed-dependent graph would
// change the partition cut and the publish cost, which reads as noise.
constexpr uint64_t kDatasetSeed = 2022;
constexpr int kParts = 2;  // partitioned

// A small sparse graph: StreamingServer::PublishTo materializes the whole
// graph on every publish and keeps every published graph alive, so a run of
// 300 batches costs 300 graph builds and copies.
ahg::Graph MakeGraph() {
  ahg::SyntheticConfig cfg;
  cfg.name = "perfbench-sbm";
  cfg.num_nodes = 5000;
  cfg.num_classes = 5;
  cfg.feature_dim = 32;
  cfg.avg_degree = 3.0;
  cfg.seed = kDatasetSeed;
  return ahg::GenerateSbmGraph(cfg);
}

ahg::Status PublishGcn(const std::string& dir, const ahg::Graph& graph) {
  ahg::ModelConfig cfg;
  cfg.family = ahg::ModelFamily::kGcn;
  cfg.in_dim = graph.feature_dim();
  cfg.hidden_dim = 32;
  cfg.num_layers = 2;
  cfg.seed = kDatasetSeed;
  std::unique_ptr<ahg::GnnModel> zoo = ahg::BuildModel(cfg);
  ahg::Rng head_rng(cfg.seed ^ 0x5ca1ab1eULL);
  ahg::Linear head(zoo->params(), cfg.hidden_dim, graph.num_classes(),
                   /*bias=*/true, &head_rng);
  return ahg::serve::ModelRegistry::Publish(dir, 1, cfg,
                                            zoo->params()->Snapshot(),
                                            graph.num_classes());
}

ahg::fabric::FabricOptions FabricOptionsFor(int shards) {
  // The fabric_load batcher settings.
  ahg::fabric::FabricOptions options;
  options.num_shards = shards;
  options.batcher.max_batch_size = 16;
  options.batcher.deadline_ms = 0.0;
  options.batcher.max_queue_delay_ms = 1.0;
  options.batcher.num_threads = kBatcherThreads;
  options.router_queue_limit = 512;
  options.partitioner.seed = kDatasetSeed;
  return options;
}

// The system under test. Members are declared in dependency order, so the
// fabric is destroyed (and drained) first.
struct Stack {
  std::unique_ptr<ahg::Graph> graph;
  std::unique_ptr<ahg::serve::ModelRegistry> registry;
  std::unique_ptr<ahg::dyn::StreamingServer> stream;
  std::unique_ptr<ServingFabric> fabric;
  double warm_ms = 0.0;  // Rollout(1)

  void Teardown() {
    fabric.reset();
    stream.reset();
    registry.reset();
    graph.reset();
  }
};

ahg::Status BuildStack(bool partitioned, const std::string& dir,
                       Stack* stack) {
  stack->graph = std::make_unique<ahg::Graph>(MakeGraph());
  ahg::Status s = PublishGcn(dir, *stack->graph);
  if (!s.ok()) return s;
  stack->registry = std::make_unique<ahg::serve::ModelRegistry>(dir);
  s = stack->registry->Refresh();
  if (!s.ok()) return s;
  stack->fabric =
      std::make_unique<ServingFabric>(FabricOptionsFor(partitioned ? kParts : 1));
  if (partitioned) {
    s = stack->fabric->ServePartitioned(stack->graph.get(),
                                        stack->registry.get());
  } else {
    ahg::dyn::StreamOptions options;
    options.reorder = ahg::ReorderStrategy::kRcm;
    options.reorder_seed = kDatasetSeed;
    auto stream = ahg::dyn::StreamingServer::Create(
        *stack->graph, *stack->registry->Active(), options);
    if (!stream.ok()) return stream.status();
    stack->stream = std::move(stream.value());
    s = stack->fabric->AddTenant("t0", stack->graph.get(),
                                 stack->registry.get());
    if (s.ok()) s = stack->fabric->AttachStream("t0", stack->stream.get());
  }
  if (!s.ok()) return s;
  const Clock::time_point start = Clock::now();
  s = stack->fabric->Rollout(1);
  stack->warm_ms = MsBetween(start, Clock::now());
  return s;
}

// One scheduled event: a read of `node`, or mutation batch `batch`.
struct Event {
  double t_ms = 0.0;
  int node = 0;
  int batch = -1;
};

std::vector<Event> Reads(uint64_t seed, int nodes, double seconds) {
  ahg::fabric::TrafficOptions traffic;
  traffic.seed = seed;
  traffic.num_nodes = nodes;
  traffic.zipf_exponent = 0.99;
  traffic.duration_s = seconds;
  traffic.base_qps = kReadQps;
  traffic.diurnal_amplitude = 0.0;
  traffic.burst_multiplier = 1.0;
  std::vector<Event> events;
  for (const ahg::fabric::Arrival& a :
       ahg::fabric::TrafficSimulator(traffic).OpenLoopSchedule()) {
    events.push_back({a.time_ms, a.node, -1});
  }
  return events;
}

// Seeded mutation batches that stay valid as they apply in order: each
// mixes feature updates with edge adds and removes (a few percent of rows
// dirty after two GCN hops), and the edge churn overlays enough adjacency
// rows that DeltaCsr compaction fires several times a run. Given the
// partition of every node (`part_of`), the first add of a batch joins two
// parts and the second stays inside one, so every batch takes the same
// ApplyDelta path (new halo rows, part rebuilds); a batch that happened to
// add no cut edge would cost a fraction of one that did, and the median
// batch would flip between the two.
std::vector<std::vector<Mutation>> MutationBatches(
    const ahg::Graph& graph, const std::vector<int>& part_of, int count,
    uint64_t seed) {
  constexpr int kFeatureUpdates = 1, kAdds = 2, kRemoves = 1;
  ahg::Rng rng(seed ^ 0x6d757461ULL);
  const int n = graph.num_nodes();
  auto key = [n](int u, int v) {
    return static_cast<uint64_t>(std::min(u, v)) * n + std::max(u, v);
  };
  std::unordered_set<uint64_t> present;
  std::vector<std::pair<int, int>> edges;
  for (const ahg::Edge& e : graph.edges()) {
    if (e.src != e.dst && present.insert(key(e.src, e.dst)).second) {
      edges.emplace_back(e.src, e.dst);
    }
  }
  std::vector<std::vector<Mutation>> batches(count);
  for (std::vector<Mutation>& batch : batches) {
    for (int i = 0; i < kFeatureUpdates; ++i) {
      std::vector<double> features(graph.feature_dim());
      for (double& f : features) f = rng.Normal();
      batch.push_back(Mutation::UpdateFeatures(
          static_cast<int>(rng.UniformInt(n)), std::move(features)));
    }
    for (int i = 0; i < kAdds; ++i) {
      const bool cut = i == 0;
      int u = 0, v = 0;
      do {
        u = static_cast<int>(rng.UniformInt(n));
        v = static_cast<int>(rng.UniformInt(n));
      } while (u == v || present.count(key(u, v)) > 0 ||
               (!part_of.empty() && (part_of[u] != part_of[v]) != cut));
      present.insert(key(u, v));
      edges.emplace_back(u, v);
      batch.push_back(Mutation::AddEdge(u, v));
    }
    for (int i = 0; i < kRemoves; ++i) {
      const size_t at = static_cast<size_t>(rng.UniformInt(edges.size()));
      const auto [u, v] = edges[at];
      edges[at] = edges.back();
      edges.pop_back();
      present.erase(key(u, v));
      batch.push_back(Mutation::RemoveEdge(u, v));
    }
  }
  return batches;
}

// What one open-loop pass measured.
struct Pass {
  std::vector<double> query_ms;  // send order; failures are +inf
  std::vector<double> late_ms;   // every event
  std::vector<double> route_us;  // traced passes only
  std::vector<double> refresh_ms;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> refreshes;
  int64_t query_failed = 0;
  int64_t refresh_failed = 0;
};

// Replays `events` on the wall clock from this thread. Reads go through
// `query`; batch events run `publish` synchronously (submit to return is
// the refresh latency).
Pass RunPass(const std::vector<Event>& events,
             const std::function<std::future<QueryResult>(int)>& query,
             const std::function<ahg::Status(int)>& publish,
             ServingFabric* fabric, bool time_routes) {
  Pass pass;
  struct Sent {
    double late_ms;
    std::future<QueryResult> answer;
  };
  std::vector<Sent> sent;
  sent.reserve(events.size());
  const Clock::time_point start = Clock::now();
  for (const Event& event : events) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(event.t_ms));
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    pass.late_ms.push_back(MsBetween(due, now));
    if (event.batch >= 0) {
      const ahg::Status s = publish(event.batch);
      const Clock::time_point done = Clock::now();
      if (!s.ok()) {
        std::fprintf(stderr, "mutation batch %d failed: %s\n", event.batch,
                     s.ToString().c_str());
        ++pass.refresh_failed;
      }
      pass.refresh_ms.push_back(MsBetween(now, done));
      pass.refreshes.emplace_back(now, done);
      continue;
    }
    sent.push_back({pass.late_ms.back(), query(event.node)});
    if (time_routes) {
      pass.route_us.push_back(MsBetween(now, Clock::now()) * 1e3);
    }
  }
  fabric->Drain();
  for (Sent& s : sent) {
    const QueryResult result = s.answer.get();
    if (!result.status.ok()) {
      ++pass.query_failed;
      pass.query_ms.push_back(kInf);
      continue;
    }
    pass.query_ms.push_back(s.late_ms + result.latency_ms);
  }
  return pass;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

// Cache hits / lookups summed over the fabric's shards.
std::pair<int64_t, int64_t> CacheCounts(ServingFabric* fabric) {
  int64_t hits = 0, lookups = 0;
  for (int s = 0; s < fabric->num_shards(); ++s) {
    const ahg::serve::ServeStatsSnapshot snap =
        fabric->shard(s).stats().Snapshot();
    hits += snap.cache_hits;
    lookups += snap.cache_hits + snap.cache_misses;
  }
  return {hits, lookups};
}

// Median microseconds of PredictNodes on `kPredictNodes` warm nodes.
double PredictMicros(ahg::serve::NodePredictor* predictor,
                     const ahg::serve::ServableModel& model, int nodes,
                     uint64_t seed) {
  ahg::Rng rng(seed ^ 0x70726564ULL);
  std::vector<int> ids;
  for (int i = 0; i < kPredictNodes; ++i) {
    ids.push_back(static_cast<int>(rng.UniformInt(nodes)));
  }
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point start = Clock::now();
    (void)predictor->PredictNodes(model, ids);
    us.push_back(MsBetween(start, Clock::now()) * 1e3);
  }
  return Median(std::move(us));
}

}  // namespace

RunResult RunServing(const RunConfig& config) {
  RunResult out;
  Report& report = out.report;
  const bool stream = config.workload == "stream";
  LayerRecorder& recorder = LayerRecorder::Instance();
  recorder.Enable(config.trace);  // set-up calls feed partition.create/warm

  // Set-up: load the dataset, publish the model, build the fabric and warm
  // it. Each repetition builds a fresh stack; the last one is measured.
  Stack stack;
  int rep = 0;
  std::vector<double> warm_ms;
  ahg::Status setup_status;
  const double setup_s = MedianSetupSeconds(
      [&] {
        const ahg::Status s = BuildStack(
            !stream, config.scratch + "/registry" + std::to_string(rep++),
            &stack);
        if (!s.ok()) setup_status = s;
        warm_ms.push_back(stack.warm_ms);
      },
      [&] { stack.Teardown(); });
  recorder.Enable(false);
  if (!setup_status.ok()) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", config.workload.c_str(),
                 setup_status.ToString().c_str());
    out.correct = false;
    return out;
  }
  ServingFabric* fabric = stack.fabric.get();
  const ahg::Graph& graph = *stack.graph;
  const std::shared_ptr<const ahg::serve::ServableModel> model =
      stack.registry->Active();

  // Inputs, all from the seed: reads and one batch event every
  // 1/BatchesPerSecond s. A traced run measures an untraced pass and then
  // a traced pass, each over half the seconds.
  const double pass_s = config.trace ? config.seconds / 2 : config.seconds;
  const int passes = config.trace ? 2 : 1;
  const double batch_rate = BatchesPerSecond(stream);
  const int batches_per_pass = static_cast<int>(pass_s * batch_rate);
  const std::vector<std::vector<Mutation>> batches = MutationBatches(
      graph, stream ? std::vector<int>{}
                    : fabric->partitioned_engine()->plan().part_of,
      batches_per_pass * passes, config.seed);
  auto events_for = [&](int pass_index) {
    std::vector<Event> events =
        Reads(config.seed + 7919 * pass_index, graph.num_nodes(), pass_s);
    for (int b = 0; b < batches_per_pass; ++b) {
      events.push_back({(b + 0.5) * 1e3 / batch_rate, 0,
                        pass_index * batches_per_pass + b});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.t_ms < b.t_ms;
                     });
    return events;
  };

  const std::string tenant =
      stream ? "t0" : std::string(ahg::fabric::kDefaultTenant);
  auto query = [&](int node) {
    return stream ? fabric->QueryTenant(tenant, node) : fabric->Query(node);
  };
  auto publish = [&](int b) {
    for (const Mutation& m : batches[b]) {
      auto seq = fabric->SubmitMutation(tenant, m);
      if (!seq.ok()) return seq.status();
    }
    return fabric->PublishStream(tenant);
  };

  // Warm-up reads (discarded) so lazy first-use work is not measured.
  RunPass(Reads(config.seed ^ 0x7761726dULL, graph.num_nodes(),
                kWarmupSeconds),
          query, publish, fabric, false);

  // --- Measured passes ---
  std::vector<Pass> done;
  int64_t allocs = 0, pool_hits = 0, pool_lookups = 0, shed = 0;
  int64_t rows_refreshed = 0, full_refreshes = 0, dyn_batches = 0, halo = 0;
  HistogramTotals queue_wait, batch_size;
  std::pair<int64_t, int64_t> cache = {0, 0};
  double peak_mb = 0.0;
  for (int p = 0; p < passes; ++p) {
    const bool traced = config.trace && p == passes - 1;
    const std::vector<Event> events = events_for(p);
    const int64_t allocs0 = ahg::AllocTracker::AllocationCount();
    const ahg::MatrixPoolStats pool0 = ahg::MatrixPool::Global().Stats();
    const int64_t shed0 = CounterValue("fabric.shed");
    const int64_t rows0 = CounterValue("dyn.rows_refreshed");
    const int64_t full0 = CounterValue("dyn.full_refreshes");
    const int64_t dyn0 = CounterValue("dyn.batches");
    const int64_t halo0 = CounterValue("partition.halo_rows_exchanged");
    const HistogramTotals wait0 = HistogramValue("serve.queue_wait_ms");
    const HistogramTotals size0 = HistogramValue("serve.batch_size");
    const std::pair<int64_t, int64_t> cache0 = CacheCounts(fabric);
    ahg::AllocTracker::ResetPeak();
    recorder.Enable(traced);
    done.push_back(RunPass(events, query, publish, fabric, traced));
    recorder.Enable(false);
    peak_mb = static_cast<double>(ahg::AllocTracker::PeakBytes()) / (1 << 20);
    const ahg::MatrixPoolStats pool1 = ahg::MatrixPool::Global().Stats();
    allocs = ahg::AllocTracker::AllocationCount() - allocs0;
    pool_hits = pool1.hits - pool0.hits;
    pool_lookups = pool1.hits + pool1.misses - pool0.hits - pool0.misses;
    shed = CounterValue("fabric.shed") - shed0;
    rows_refreshed = CounterValue("dyn.rows_refreshed") - rows0;
    full_refreshes = CounterValue("dyn.full_refreshes") - full0;
    dyn_batches = CounterValue("dyn.batches") - dyn0;
    halo = CounterValue("partition.halo_rows_exchanged") - halo0;
    const HistogramTotals wait1 = HistogramValue("serve.queue_wait_ms");
    const HistogramTotals size1 = HistogramValue("serve.batch_size");
    queue_wait = {wait1.count - wait0.count, wait1.sum - wait0.sum};
    batch_size = {size1.count - size0.count, size1.sum - size0.sum};
    const std::pair<int64_t, int64_t> cache1 = CacheCounts(fabric);
    cache = {cache1.first - cache0.first, cache1.second - cache0.second};
  }
  const Pass& measured = done.back();

  // --- Correctness gates ---
  for (const Pass& pass : done) {
    out.attempted += static_cast<int64_t>(pass.query_ms.size()) +
                     static_cast<int64_t>(pass.refresh_ms.size());
    out.failed += pass.query_failed + pass.refresh_failed;
    if (pass.refresh_failed > 0) out.correct = false;
    RequireOnSchedule(SummarizeLateness(pass.late_ms, kLateLimitMs),
                      &out.correct);
  }
  if (stream) {
    // The final published hidden states against a from-scratch recompute.
    std::vector<ahg::Matrix> layer_params(model->params.begin(),
                                          model->params.end() - 2);
    const ahg::dyn::IncrementalPropagator oracle(model->config,
                                                 std::move(layer_params));
    const ahg::Matrix full = oracle.ComputeFull(*stack.stream->snapshot());
    const std::shared_ptr<const ahg::Matrix> hidden = stack.stream->hidden();
    if (hidden->rows() != full.rows() || hidden->cols() != full.cols() ||
        std::memcmp(hidden->data(), full.data(),
                    sizeof(double) * full.rows() * full.cols()) != 0) {
      std::fprintf(stderr, "stream: published states differ from "
                           "ComputeFull on the final snapshot\n");
      out.correct = false;
    }
  } else {
    // Replay the batches onto a snapshot chain and compare a node sample
    // served by the fabric with a lone engine on the final graph.
    auto snap = ahg::dyn::GraphSnapshot::FromGraph(graph);
    bool chain_ok = snap.ok();
    ahg::dyn::GraphSnapshot current = chain_ok ? snap.value()
                                               : ahg::dyn::GraphSnapshot();
    for (size_t b = 0; chain_ok && b < batches.size(); ++b) {
      auto next = current.Apply(batches[b]);
      chain_ok = next.ok();
      if (chain_ok) current = std::move(next.value().first);
    }
    const ahg::Graph final_graph = current.MaterializeGraph();
    ahg::serve::InferenceEngine engine(&final_graph,
                                       ahg::serve::EngineOptions{});
    std::vector<Event> sample =
        Reads(config.seed ^ 0x5a3b1eULL, graph.num_nodes(), 0.5);
    std::vector<int> nodes;
    for (const Event& e : sample) nodes.push_back(e.node);
    auto expected = engine.PredictNodes(*model, nodes);
    int64_t mismatches = chain_ok && expected.ok() ? 0 : 1;
    for (size_t i = 0; mismatches == 0 && i < nodes.size(); ++i) {
      const QueryResult got = fabric->Query(nodes[i]).get();
      if (!got.status.ok() ||
          std::memcmp(got.probs.data(), expected.value().Row(i),
                      got.probs.size() * sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    if (mismatches > 0) {
      std::fprintf(stderr, "partitioned: answers differ from a lone engine "
                           "on the final snapshot\n");
      out.correct = false;
    }
  }

  // --- Report ---
  const Lateness late = SummarizeLateness(measured.late_ms, kLateLimitMs);
  const double refresh_tail =
      std::min(kRefreshTail, TailLevel(measured.refresh_ms.size()));
  std::printf(
      "%s: %zu reads, query_p50_ms = %.4f, query_p99_ms = %.4f (ms, lower is "
      "better), %zu batches, refresh_p50_ms = %.4f, refresh_p%.0f_ms = %.4f, "
      "refresh_p95_ms = %.4f (ms, lower is better)\n",
      config.workload.c_str(), measured.query_ms.size(),
      Percentile(measured.query_ms, 50), Percentile(measured.query_ms, 99),
      measured.refresh_ms.size(), Percentile(measured.refresh_ms, 50),
      refresh_tail, Percentile(measured.refresh_ms, refresh_tail),
      Percentile(measured.refresh_ms, 95));
  std::printf("loadgen: generator lateness p99 %.4f ms, max %.4f ms over "
              "%lld sends: run %s\n",
              late.p99_ms, late.max_ms, static_cast<long long>(late.sends),
              late.valid ? "valid" : "INVALID (generator fell behind)");

  const std::vector<double>& headline = measured.refresh_ms;
  if (!config.trace) {
    report.Set("setup_s", setup_s);
    report.Set("p50_ms", Percentile(headline, 50));
    report.Set("tail_ms", Percentile(headline, refresh_tail));
    report.Set("peak_mb", peak_mb);
    return out;
  }

  const std::vector<LayerCall> calls = recorder.Take();
  RequireLayerCalls(calls,
                    stream ? std::vector<std::string>{"dyn.apply", "dyn.refresh",
                                                      "dyn.publish",
                                                      "graph.reorder"}
                           : std::vector<std::string>{"dyn.apply",
                                                      "partition.create",
                                                      "partition.warm",
                                                      "partition.apply_delta"},
                    &out.correct);
  const double ops = static_cast<double>(std::max<size_t>(headline.size(), 1));
  report.Set("tensor.allocs", allocs / ops);
  report.Set("tensor.pool_hit_rate",
             pool_lookups > 0 ? static_cast<double>(pool_hits) / pool_lookups
                              : 0.0);
  report.Set("fabric.route_us", Mean(measured.route_us));
  report.Set("fabric.shed", static_cast<double>(shed));
  report.Set("serve.queue_wait_ms",
             queue_wait.count > 0 ? queue_wait.sum / queue_wait.count : 0.0);
  report.Set("serve.batch_size_mean",
             batch_size.count > 0 ? batch_size.sum / batch_size.count : 0.0);
  report.Set("loadgen.late_p99_ms", late.p99_ms);
  report.Set("dyn.apply_ms", Totals(calls, "dyn.apply").mean_ms());
  if (stream) {
    if (cache.second > 0) {
      report.Set("serve.cache_hit_rate",
                 static_cast<double>(cache.first) / cache.second);
    }
    report.Set("serve.warm_ms", Median(warm_ms));
    ahg::serve::InferenceEngine lone(&graph, ahg::serve::EngineOptions{});
    report.Set("serve.predict_us", PredictMicros(&lone, *model,
                                                 graph.num_nodes(),
                                                 config.seed));
    const double batches_done = static_cast<double>(
        std::max<size_t>(measured.refresh_ms.size(), 1));
    report.Set("dyn.refresh_ms", Totals(calls, "dyn.refresh").mean_ms());
    report.Set("dyn.publish_ms", Totals(calls, "dyn.publish").mean_ms());
    report.Set("dyn.rows_refreshed", rows_refreshed / batches_done);
    report.Set("dyn.full_share",
               dyn_batches > 0
                   ? static_cast<double>(full_refreshes) / dyn_batches
                   : 0.0);
    const CallTotals reorder = Totals(calls, "graph.reorder");
    report.Set("graph.reorder_ms", reorder.mean_ms());
    const HistogramTotals dirty = HistogramValue("dyn.dirty_fraction");
    std::printf("stream: %lld compaction re-reorder(s) in the traced pass; "
                "mean dirty fraction %.4f over the run\n",
                static_cast<long long>(reorder.calls),
                dirty.count > 0 ? dirty.sum / dirty.count : 0.0);
  } else {
    ahg::partition::PartitionedEngine* engine = fabric->partitioned_engine();
    report.Set("partition.create_s",
               Totals(calls, "partition.create").mean_ms() / 1e3);
    report.Set("partition.warm_ms", Totals(calls, "partition.warm").mean_ms());
    report.Set("partition.apply_delta_ms",
               Totals(calls, "partition.apply_delta").mean_ms());
    report.Set("partition.halo_rows", halo / ops);
    report.Set("partition.predict_us",
               PredictMicros(engine, *model, graph.num_nodes(), config.seed));
    int64_t resident = 0;
    for (int p = 0; p < engine->num_parts(); ++p) {
      resident = std::max(resident, engine->PartResidentBytes(p));
    }
    report.Set("partition.part_resident_mb",
               static_cast<double>(resident) / (1 << 20));
  }

  // Unattributed share: the part of each batch's submit->return time that
  // no timed main-thread layer call covers.
  double covered = 0.0, total = 0.0;
  for (const auto& [begin, end] : measured.refreshes) {
    covered += CoveredMs(calls, begin, end);
    total += MsBetween(begin, end);
  }
  report.Set("trace.unattributed_share",
             total > 0 ? 1.0 - covered / total : 0.0);
  report.Set("trace.overhead_ms",
             Percentile(headline, 50) - Percentile(done.front().refresh_ms, 50));
  TimeKernels(graph, 32, config.seed, &report);
  return out;
}

}  // namespace perfbench
