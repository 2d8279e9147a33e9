// google-benchmark microbenchmarks of the tensor/autodiff kernels the whole
// system is built on: GEMM, SpMM, the GAT edge-softmax aggregation, and a
// full GCN forward+backward step — plus a threads=1/2/4 sweep of the
// row-parallel SpMM/GEMM kernels on a 50k-node SBM graph that reports the
// parallel speedup directly (counters `speedup_vs_1t`).
//
// Accepts --trace-out FILE / --metrics-out FILE in addition to the standard
// google-benchmark flags (ours are stripped before benchmark::Initialize,
// which rejects flags it does not know). --json-out FILE switches to a
// deterministic measurement suite (GEMM/SpMM ns/op, GEMMs on dropout,
// bag-of-words and ReLU-head operands, the thin backward products, the
// dropout keep-mask per tier and the fused dropout->linear layer, plus the
// GCN train step on the scalar and the active tier) and writes the
// BENCH_kernels.json schema the perf-smoke CI job diffs against.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "autodiff/graph_ops.h"
#include "common/bench_util.h"
#include "autodiff/ops.h"
#include "kernels/dispatch.h"
#include "kernels/kernel_ops.h"
#include "graph/synthetic.h"
#include "models/model.h"
#include "models/model_zoo.h"
#include "nn/linear.h"
#include "tensor/alloc_tracker.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace ahg;

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Matrix a = Matrix::Gaussian(n, 64, 1.0, &rng);
  Matrix b = Matrix::Gaussian(64, 64, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * 64 * 64);
}
BENCHMARK(BM_MatMul)->Arg(256)->Arg(1024)->Arg(4096);

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    SyntheticConfig cfg;
    cfg.num_nodes = 3000;
    cfg.num_classes = 5;
    cfg.feature_dim = 64;
    cfg.avg_degree = 8.0;
    cfg.seed = 3;
    return new Graph(GenerateSbmGraph(cfg));
  }();
  return *graph;
}

void BM_Spmm(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(2);
  Matrix x = Matrix::Gaussian(g.num_nodes(), static_cast<int>(state.range(0)),
                              1.0, &rng);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kSymNorm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Spmm(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * state.range(0));
}
BENCHMARK(BM_Spmm)->Arg(16)->Arg(64);

void BM_GatAggregate(benchmark::State& state) {
  const Graph& g = BenchGraph();
  Rng rng(4);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kRawSelfLoops);
  Var h = MakeConstant(Matrix::Gaussian(g.num_nodes(), 32, 1.0, &rng));
  Var s_src = MakeConstant(Matrix::Gaussian(g.num_nodes(), 1, 1.0, &rng));
  Var s_dst = MakeConstant(Matrix::Gaussian(g.num_nodes(), 1, 1.0, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GatAggregate(adj, s_src, s_dst, h, 0.2));
  }
}
BENCHMARK(BM_GatAggregate);

// One full GCN train step (forward, masked loss, backward) on the bench
// graph. Shared by the google-benchmark wrapper and the --json-out suite.
class GcnStepHarness {
 public:
  explicit GcnStepHarness(int hidden_dim = 32)
      : g_(BenchGraph()), dropout_rng_(7) {
    ModelConfig cfg;
    cfg.family = ModelFamily::kGcn;
    cfg.in_dim = g_.feature_dim();
    cfg.hidden_dim = hidden_dim;
    cfg.num_layers = 2;
    cfg.dropout = 0.0;
    cfg.seed = 5;
    model_ = BuildModel(cfg);
    Rng head_rng(6);
    head_ = std::make_unique<Linear>(model_->params(), hidden_dim,
                                     g_.num_classes(), true, &head_rng);
    features_ = MakeConstant(g_.features());
    for (int i = 0; i < g_.num_nodes(); i += 3) mask_.push_back(i);
  }

  double Step() {
    model_->params()->ZeroGrad();
    GnnContext ctx{&g_, true, &dropout_rng_};
    Var logits = head_->Apply(model_->LayerOutputs(ctx, features_).back());
    Var loss = MaskedCrossEntropy(logits, g_.labels(), mask_);
    Backward(loss);
    return loss->value(0, 0);
  }

 private:
  const Graph& g_;
  Rng dropout_rng_;
  std::unique_ptr<GnnModel> model_;
  std::unique_ptr<Linear> head_;
  Var features_;
  std::vector<int> mask_;
};

void BM_GcnTrainStep(benchmark::State& state) {
  GcnStepHarness harness;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.Step());
  }
}
BENCHMARK(BM_GcnTrainStep);

// ---------------------------------------------------------------------------
// Thread-scaling sweep: the same kernels at threads = 1/2/4 on a graph big
// enough (50k nodes, ~800k directed edges) that row-parallelism dominates
// scheduling overhead. items_per_second across the /threads:N lines gives
// the scaling curve; BM_SpmmSpeedup additionally reports the ratio.
// ---------------------------------------------------------------------------

const Graph& BenchGraphLarge() {
  static const Graph* graph = [] {
    SyntheticConfig cfg;
    cfg.num_nodes = 50000;
    cfg.num_classes = 10;
    cfg.feature_dim = 16;
    cfg.avg_degree = 16.0;
    cfg.seed = 11;
    return new Graph(GenerateSbmGraph(cfg));
  }();
  return *graph;
}

void BM_SpmmThreads(benchmark::State& state) {
  ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const Graph& g = BenchGraphLarge();
  Rng rng(12);
  Matrix x = Matrix::Gaussian(g.num_nodes(), 64, 1.0, &rng);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kSymNorm);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Spmm(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 64);
}
BENCHMARK(BM_SpmmThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SpmmTransposedThreads(benchmark::State& state) {
  ScopedNumThreads threads(static_cast<int>(state.range(0)));
  const Graph& g = BenchGraphLarge();
  Rng rng(13);
  Matrix x = Matrix::Gaussian(g.num_nodes(), 64, 1.0, &rng);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kSymNorm);
  adj.TransposedCached();  // exclude the one-time transpose build
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.SpmmTransposed(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 64);
}
BENCHMARK(BM_SpmmTransposedThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_MatMulThreads(benchmark::State& state) {
  ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(14);
  Matrix a = Matrix::Gaussian(50000, 64, 1.0, &rng);
  Matrix b = Matrix::Gaussian(64, 64, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{50000} * 64 * 64);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_MatMulTransAThreads(benchmark::State& state) {
  // The backward GEMM (grad_W = X^T dY): chunked deterministic reduction.
  ScopedNumThreads threads(static_cast<int>(state.range(0)));
  Rng rng(15);
  Matrix a = Matrix::Gaussian(50000, 64, 1.0, &rng);
  Matrix b = Matrix::Gaussian(50000, 64, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{50000} * 64 * 64);
}
BENCHMARK(BM_MatMulTransAThreads)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Times SpMM at 1/2/4 threads inside one benchmark run and reports the
// speedup ratios as counters (speedup_2t, speedup_4t).
void BM_SpmmSpeedup(benchmark::State& state) {
  const Graph& g = BenchGraphLarge();
  Rng rng(16);
  Matrix x = Matrix::Gaussian(g.num_nodes(), 64, 1.0, &rng);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kSymNorm);
  auto best_seconds = [&](int nthreads) {
    ScopedNumThreads scoped(nthreads);
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch watch;
      benchmark::DoNotOptimize(adj.Spmm(x));
      best = std::min(best, watch.ElapsedSeconds());
    }
    return best;
  };
  double t1 = 0.0, t2 = 0.0, t4 = 0.0;
  for (auto _ : state) {
    t1 = best_seconds(1);
    t2 = best_seconds(2);
    t4 = best_seconds(4);
  }
  state.counters["t1_ms"] = 1e3 * t1;
  state.counters["speedup_2t"] = t1 / t2;
  state.counters["speedup_4t"] = t1 / t4;
}
BENCHMARK(BM_SpmmSpeedup)->Iterations(1)->UseRealTime();

// ---------------------------------------------------------------------------
// --json-out FILE: a small deterministic measurement suite for the
// perf-smoke CI job. Timing fields are informational (machine-dependent);
// the allocation counters are deterministic per build and are what CI
// hard-fails on, with the SIMD step's page faults held to a fixed ceiling.
// Schema: bench/BENCH_kernels.json (the committed baseline).
// ---------------------------------------------------------------------------

struct StepSuiteResult {
  double ns_op = 0.0;
  int64_t allocs_per_step = 0;
  int64_t bytes_per_step = 0;
  // Minor page faults per step (MeasureStepFaults): freed buffers the
  // allocator gave back to the kernel and the next step touched again. One
  // model stepped over and over reads 0 with or without the heap policy
  // (tensor/matrix.cc), because glibc's adaptive thresholds settle during
  // warm-up.
  int64_t minflt_per_step = 0;
};

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_minflt);
}

StepSuiteResult MeasureGcnStep() {
  constexpr int kWarmup = 3;
  constexpr int kSteps = 10;
  GcnStepHarness harness;
  for (int i = 0; i < kWarmup; ++i) harness.Step();
  const int64_t allocs0 = AllocTracker::AllocationCount();
  const int64_t bytes0 = AllocTracker::TotalAllocatedBytes();
  Stopwatch watch;
  for (int i = 0; i < kSteps; ++i) harness.Step();
  const double seconds = watch.ElapsedSeconds();
  StepSuiteResult r;
  r.ns_op = 1e9 * seconds / kSteps;
  r.allocs_per_step = (AllocTracker::AllocationCount() - allocs0) / kSteps;
  r.bytes_per_step = (AllocTracker::TotalAllocatedBytes() - bytes0) / kSteps;
  return r;
}

// Minor page faults per step while fresh models of two widths alternate,
// as a search job trains them: each round frees its model, so only a heap
// that keeps its pages reuses them. One thread: a worker pool's new thread
// stacks would fault too. Runs before the suite's large matrices: freeing
// one raises glibc's adaptive thresholds for good, which hides faults.
int64_t MeasureStepFaults() {
  constexpr int kWarmup = 3;
  constexpr int kRounds = 20;
  ScopedNumThreads one_thread(1);
  const auto round = [](int i) {
    GcnStepHarness model(i % 2 == 0 ? 32 : 96);
    model.Step();
  };
  for (int i = 0; i < kWarmup; ++i) round(i);
  const int64_t faults0 = MinorFaults();
  for (int i = 0; i < kRounds; ++i) round(i);
  return (MinorFaults() - faults0) / kRounds;
}

double MeasureNsPerOp(int reps, const std::function<void()>& op) {
  op();  // warm
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    op();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return 1e9 * best;
}

// Gaussian entries, each kept with probability `keep` and exactly zero
// otherwise (a dropout mask, a ReLU output or a bag-of-words row).
Matrix MaskedGaussian(int rows, int cols, double keep, Rng* rng) {
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const double v = rng->Normal(0.0, 1.0);
    m.data()[i] = rng->Bernoulli(keep) ? v : 0.0;
  }
  return m;
}

// The GEMM shapes a search job's training step produces, where the zero
// share of the left operand decides the kernel's walk: the dropped-out
// 12000x48 input features against a 48x8 layer (forward MatMul and the
// weight gradient MatMulTransA), a 1.3%-dense bag-of-words feature matrix,
// and the narrow 12000x8 ReLU output against a 8x16 head.
struct ZeroShapeTimes {
  double dropout_ns = 0.0;
  double dropout_ta_ns = 0.0;
  double bow_ns = 0.0;
  double head_ns = 0.0;
};

ZeroShapeTimes MeasureZeroShapes(Rng* rng) {
  const Matrix dropped = MaskedGaussian(12000, 48, 0.5, rng);
  const Matrix w = Matrix::Gaussian(48, 8, 1.0, rng);
  const Matrix grad = Matrix::Gaussian(12000, 8, 1.0, rng);
  const Matrix bow = MaskedGaussian(2708, 1433, 0.013, rng);
  const Matrix bow_w = Matrix::Gaussian(1433, 64, 1.0, rng);
  const Matrix hidden = MaskedGaussian(12000, 8, 0.5, rng);
  const Matrix head = Matrix::Gaussian(8, 16, 1.0, rng);
  ZeroShapeTimes t;
  t.dropout_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMul(dropped, w)); });
  t.dropout_ta_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMulTransA(dropped, grad)); });
  t.bow_ns =
      MeasureNsPerOp(9, [&] { benchmark::DoNotOptimize(MatMul(bow, bow_w)); });
  t.head_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMul(hidden, head)); });
  return t;
}

// The thin products of a search job's backward pass, where the output is
// one vector or less wide: the proxy graph's 1200x48 dropped features
// against a 4-wide grad, a 12000x8 ReLU output against a 1-wide gate grad,
// and a 12000x16 grad times a 8x16 weight transposed. Plus the bag-of-words
// weight gradient, whose 1.3%-dense left operand takes the compacted walk.
// One thread, as a search job runs its kernels: at these sizes starting a
// worker pool would cost more than the product.
struct ThinShapeTimes {
  double ta_proxy_ns = 0.0;
  double ta_gate_ns = 0.0;
  double tb_grad_ns = 0.0;
  double ta_bow_ns = 0.0;
};

ThinShapeTimes MeasureThinShapes() {
  ScopedNumThreads one_thread(1);
  Rng rng(22);
  const Matrix proxy = MaskedGaussian(1200, 48, 0.5, &rng);
  const Matrix proxy_grad = Matrix::Gaussian(1200, 4, 1.0, &rng);
  const Matrix hidden = MaskedGaussian(12000, 8, 0.5, &rng);
  const Matrix gate_grad = Matrix::Gaussian(12000, 1, 1.0, &rng);
  const Matrix grad = Matrix::Gaussian(12000, 16, 1.0, &rng);
  const Matrix w = Matrix::Gaussian(8, 16, 1.0, &rng);
  const Matrix bow = MaskedGaussian(2708, 1433, 0.013, &rng);
  const Matrix bow_grad = Matrix::Gaussian(2708, 64, 1.0, &rng);
  ThinShapeTimes t;
  t.ta_proxy_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMulTransA(proxy, proxy_grad)); });
  t.ta_gate_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMulTransA(hidden, gate_grad)); });
  t.tb_grad_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMulTransB(grad, w)); });
  t.ta_bow_ns = MeasureNsPerOp(
      9, [&] { benchmark::DoNotOptimize(MatMulTransA(bow, bow_grad)); });
  return t;
}

// The keep-mask kernel of a dropout over the search job's 12000x48
// features and the proxy graph's 1200x48, on each supported tier. The
// scalar tier is the one-lane element-order loop every tier must
// reproduce; below kMinLanedDraws the SIMD tiers run that loop too.
struct MaskTierTimes {
  const char* tier = "";
  double mask_12000x48_ns = 0.0;
  double mask_1200x48_ns = 0.0;
};

std::vector<MaskTierTimes> MeasureKeepMasks() {
  std::vector<MaskTierTimes> out;
  const uint64_t threshold = Rng::BernoulliThreshold(0.5);
  std::vector<uint64_t> bits((12000 * 48 + 63) / 64);
  for (auto tier : {ahg::kernels::Tier::kScalar, ahg::kernels::Tier::kAvx2,
                    ahg::kernels::Tier::kAvx512}) {
    if (!ahg::kernels::TierSupported(tier)) continue;
    const ahg::kernels::TierOps& ops = ahg::kernels::OpsFor(tier);
    RngState state = Rng(31).ExportState();
    const auto time_mask = [&](int64_t n) {
      return MeasureNsPerOp(15, [&] {
        ops.keep_mask(state.s, threshold, n, bits.data());
        benchmark::DoNotOptimize(bits.data());
      });
    };
    MaskTierTimes t;
    t.tier = ahg::kernels::TierName(tier);
    t.mask_12000x48_ns = time_mask(12000 * 48);
    t.mask_1200x48_ns = time_mask(1200 * 48);
    out.push_back(t);
  }
  return out;
}

// The fused first layer of a dense-first family on the search job's
// shapes, ReLU form, p = 0.5: the forward alone (mask draw plus the GEMM on
// masked row blocks), and forward plus the backward to W and b. Beside
// matmul_dropout_12000x48x8, the forward GEMM on a materialized dropped
// copy. One thread, as a search job runs its kernels.
struct DropoutLinearTimes {
  double fwd_ns = 0.0;
  double fwd_bwd_ns = 0.0;
};

DropoutLinearTimes MeasureDropoutLinear() {
  ScopedNumThreads one_thread(1);
  Rng rng(23);
  const Var x = MakeConstant(Matrix::Gaussian(12000, 48, 1.0, &rng));
  const Var w = MakeParam(Matrix::Gaussian(48, 8, 1.0, &rng));
  const Var b = MakeParam(Matrix::Gaussian(1, 8, 1.0, &rng));
  Rng dropout_rng(24);
  DropoutLinearTimes t;
  t.fwd_ns = MeasureNsPerOp(9, [&] {
    benchmark::DoNotOptimize(
        DropoutLinear(x, w, b, 0.5, /*relu=*/true, &dropout_rng));
  });
  t.fwd_bwd_ns = MeasureNsPerOp(9, [&] {
    w->ZeroGrad();
    b->ZeroGrad();
    Backward(SumAll(DropoutLinear(x, w, b, 0.5, /*relu=*/true, &dropout_rng)));
  });
  return t;
}

// {"scalar": ns, "avx2": ns, ...} over the measured tiers.
std::string TierObject(const std::vector<MaskTierTimes>& times,
                       double MaskTierTimes::*field) {
  std::string json = "{";
  for (size_t i = 0; i < times.size(); ++i) {
    char entry[64];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.0f", i ? ", " : "",
                  times[i].tier, times[i].*field);
    json += entry;
  }
  return json + "}";
}

bool WriteKernelsJson(const std::string& path) {
  int64_t scalar_faults = 0;
  {
    ahg::kernels::ScopedTier scalar(ahg::kernels::Tier::kScalar);
    scalar_faults = MeasureStepFaults();
  }
  const int64_t simd_faults = MeasureStepFaults();

  Rng rng(21);
  Matrix a = Matrix::Gaussian(1024, 64, 1.0, &rng);
  Matrix b = Matrix::Gaussian(64, 64, 1.0, &rng);
  const Graph& g = BenchGraph();
  Matrix x = Matrix::Gaussian(g.num_nodes(), 64, 1.0, &rng);
  const SparseMatrix& adj = g.Adjacency(AdjacencyKind::kSymNorm);

  // Scalar-tier reference timings for the kernel-level speedup rows.
  double matmul_scalar_ns = 0.0, spmm_scalar_ns = 0.0;
  {
    ahg::kernels::ScopedTier scalar(ahg::kernels::Tier::kScalar);
    matmul_scalar_ns =
        MeasureNsPerOp(5, [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
    spmm_scalar_ns =
        MeasureNsPerOp(5, [&] { benchmark::DoNotOptimize(adj.Spmm(x)); });
  }
  // Active (best supported / env-forced) tier at its fixed block widths.
  const char* tier_name = ahg::kernels::TierName(ahg::kernels::ActiveTier());
  const double matmul_ns =
      MeasureNsPerOp(5, [&] { benchmark::DoNotOptimize(MatMul(a, b)); });
  const double spmm_ns =
      MeasureNsPerOp(5, [&] { benchmark::DoNotOptimize(adj.Spmm(x)); });
  const ZeroShapeTimes zero_shapes = MeasureZeroShapes(&rng);
  const ThinShapeTimes thin_shapes = MeasureThinShapes();
  const std::vector<MaskTierTimes> masks = MeasureKeepMasks();
  const DropoutLinearTimes dropout_linear = MeasureDropoutLinear();

  // The same train step on the scalar tier and on the active tier.
  StepSuiteResult scalar_step;
  {
    ahg::kernels::ScopedTier scalar(ahg::kernels::Tier::kScalar);
    scalar_step = MeasureGcnStep();
  }
  StepSuiteResult simd_step = MeasureGcnStep();
  scalar_step.minflt_per_step = scalar_faults;
  simd_step.minflt_per_step = simd_faults;
  const double step_speedup =
      simd_step.ns_op > 0.0 ? scalar_step.ns_op / simd_step.ns_op : 0.0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"matmul_1024x64x64_ns_op\": %.0f,\n"
               "  \"spmm_3000n_64c_ns_op\": %.0f,\n"
               "  \"matmul_dropout_12000x48x8_ns_op\": %.0f,\n"
               "  \"dropout_linear_fwd_12000x48x8_ns_op\": %.0f,\n"
               "  \"dropout_linear_fwd_bwd_12000x48x8_ns_op\": %.0f,\n"
               "  \"dropout_mask_12000x48_ns_op\": %s,\n"
               "  \"dropout_mask_1200x48_ns_op\": %s,\n"
               "  \"matmul_ta_dropout_12000x48x8_ns_op\": %.0f,\n"
               "  \"matmul_bow_2708x1433x64_ns_op\": %.0f,\n"
               "  \"matmul_head_12000x8x16_ns_op\": %.0f,\n"
               "  \"matmul_ta_proxy_1200x48x4_ns_op\": %.0f,\n"
               "  \"matmul_ta_gate_12000x8x1_ns_op\": %.0f,\n"
               "  \"matmul_tb_grad_12000x16x8_ns_op\": %.0f,\n"
               "  \"matmul_ta_bow_2708x1433x64_ns_op\": %.0f,\n"
               "  \"kernel_tier\": \"%s\",\n"
               "  \"simd\": {\n"
               "    \"matmul_scalar_ns_op\": %.0f,\n"
               "    \"matmul_speedup\": %.3f,\n"
               "    \"spmm_scalar_ns_op\": %.0f,\n"
               "    \"spmm_speedup\": %.3f\n"
               "  },\n"
               "  \"gcn_train_step\": {\n"
               "    \"scalar\": {\"ns_op\": %.0f, \"allocs_per_step\": "
               "%lld, \"bytes_per_step\": %lld, \"minflt_per_step\": %lld},\n"
               "    \"simd\": {\"ns_op\": %.0f, \"allocs_per_step\": %lld, "
               "\"bytes_per_step\": %lld, \"minflt_per_step\": %lld, "
               "\"tier\": \"%s\",\n"
               "      \"speedup_vs_scalar\": %.3f}\n"
               "  }\n"
               "}\n",
               matmul_ns, spmm_ns, zero_shapes.dropout_ns,
               dropout_linear.fwd_ns, dropout_linear.fwd_bwd_ns,
               TierObject(masks, &MaskTierTimes::mask_12000x48_ns).c_str(),
               TierObject(masks, &MaskTierTimes::mask_1200x48_ns).c_str(),
               zero_shapes.dropout_ta_ns, zero_shapes.bow_ns,
               zero_shapes.head_ns, thin_shapes.ta_proxy_ns,
               thin_shapes.ta_gate_ns, thin_shapes.tb_grad_ns,
               thin_shapes.ta_bow_ns, tier_name, matmul_scalar_ns,
               matmul_ns > 0.0 ? matmul_scalar_ns / matmul_ns : 0.0,
               spmm_scalar_ns, spmm_ns > 0.0 ? spmm_scalar_ns / spmm_ns : 0.0,
               scalar_step.ns_op,
               static_cast<long long>(scalar_step.allocs_per_step),
               static_cast<long long>(scalar_step.bytes_per_step),
               static_cast<long long>(scalar_step.minflt_per_step),
               simd_step.ns_op,
               static_cast<long long>(simd_step.allocs_per_step),
               static_cast<long long>(simd_step.bytes_per_step),
               static_cast<long long>(simd_step.minflt_per_step), tier_name,
               step_speedup);
  std::fclose(f);
  std::printf("wrote %s (gcn step: scalar %lld allocs/step, simd[%s] %lld "
              "allocs/step, %.2fx vs scalar)\n",
              path.c_str(), static_cast<long long>(scalar_step.allocs_per_step),
              tier_name, static_cast<long long>(simd_step.allocs_per_step),
              step_speedup);
  return true;
}

void BM_BackwardOverhead(benchmark::State& state) {
  // Chain of elementwise ops: measures tape traversal cost.
  Rng rng(8);
  Var p = MakeParam(Matrix::Gaussian(512, 32, 1.0, &rng));
  for (auto _ : state) {
    p->ZeroGrad();
    Var h = p;
    for (int i = 0; i < 16; ++i) h = Tanh(h);
    Backward(SumAll(h));
    benchmark::DoNotOptimize(p->grad.data());
  }
}
BENCHMARK(BM_BackwardOverhead);

}  // namespace

int main(int argc, char** argv) {
  const ahg::bench::ObsFlags obs_flags =
      ahg::bench::ParseObsFlags(argc, argv);
  std::string json_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if ((std::strcmp(argv[i], "--trace-out") == 0 ||
         std::strcmp(argv[i], "--metrics-out") == 0) &&
        i + 1 < argc) {
      ++i;  // skip the flag and its value
      continue;
    }
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!json_out.empty()) {
    // Deterministic perf-smoke suite instead of the google-benchmark
    // harness: writes the BENCH_kernels.json schema CI diffs against.
    return WriteKernelsJson(json_out) ? 0 : 1;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ahg::bench::FlushObsOutputs(obs_flags) ? 0 : 1;
}
