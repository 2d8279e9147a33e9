// Memory model: AllocTracker accounting, and the bitwise identity of the
// always-on fused kernels and the in-place inference path against explicit
// unfused references, over every zoo family and kernel thread count.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "autodiff/ops.h"
#include "graph/split.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"
#include "models/model.h"
#include "tasks/train_node.h"
#include "tensor/alloc_tracker.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace ahg {
namespace {

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(AllocTrackerTest, AllocationCountAndTotalBytesAreMonotonic) {
  const int64_t count_before = AllocTracker::AllocationCount();
  const int64_t total_before = AllocTracker::TotalAllocatedBytes();
  { Matrix m(6, 10); }
  EXPECT_EQ(AllocTracker::AllocationCount(), count_before + 1);
  EXPECT_EQ(AllocTracker::TotalAllocatedBytes(),
            total_before + 6 * 10 * static_cast<int64_t>(sizeof(double)));
}

TEST(AllocTrackerTest, ResetPeakLowersToCurrent) {
  Matrix keep(4, 4);
  { Matrix transient(128, 128); }
  EXPECT_GT(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
  AllocTracker::ResetPeak();
  EXPECT_EQ(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
}

TEST(AllocTrackerTest, ResetPeakRaceKeepsPeakAboveCurrent) {
  // Regression for the blind-store ResetPeak: concurrent Add/Remove while
  // another thread resets must never leave peak < current.
  std::atomic<bool> stop{false};
  std::thread churn([&stop] {
    while (!stop.load()) {
      Matrix a(32, 32);
      Matrix b(64, 64);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    AllocTracker::ResetPeak();
    EXPECT_GE(AllocTracker::PeakBytes(), 0);
  }
  stop.store(true);
  churn.join();
  EXPECT_GE(AllocTracker::PeakBytes(), AllocTracker::CurrentBytes());
}

// LinearRelu against the explicit relu(x * W + b) op chain: values and the
// grads of every leaf.
TEST(FusedOpsTest, LinearReluMatchesExplicitChainBitwise) {
  Rng rng(11);
  for (bool with_bias : {true, false}) {
    Matrix xv = Matrix::Gaussian(9, 6, 1.0, &rng);
    Matrix wv = Matrix::Gaussian(6, 5, 1.0, &rng);
    Matrix bv = Matrix::Gaussian(1, 5, 1.0, &rng);

    auto run = [&](bool fused) {
      Var x = MakeParam(xv);
      Var w = MakeParam(wv);
      Var b = with_bias ? MakeParam(bv) : Var();
      Var out;
      if (fused) {
        out = LinearRelu(x, w, b);
      } else {
        Var pre = MatMul(x, w);
        if (b) pre = AddRowVector(pre, b);
        out = Relu(pre);
      }
      std::vector<Matrix> r = {out->value};
      Backward(SumAll(out));
      r.push_back(x->grad);
      r.push_back(w->grad);
      if (b) r.push_back(b->grad);
      return r;
    };

    const std::vector<Matrix> chain = run(false);
    const std::vector<Matrix> fused = run(true);
    ASSERT_EQ(chain.size(), fused.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(chain[i], fused[i]))
          << "with_bias=" << with_bias << " tensor " << i;
    }
  }
}

// Features with NaN, +-inf and -0.0 among Gaussian entries: a dropped
// inf or NaN stays NaN, and a dropped -x is -0.0.
Matrix FeaturesWithSpecials(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::Gaussian(rows, cols, 1.0, &rng);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (int64_t i = 0; i < m.size(); i += 97) {
    m.data()[i] = specials[(i / 97) % 4];
  }
  return m;
}

// One forward and backward of Linear(Dropout(x)) at p = 0.4, fused into
// DropoutLinear or as the explicit Dropout -> MatMul [-> AddRowVector] or
// Dropout -> LinearRelu chain, with a random upstream grad. Returns the
// output, the grads of x, W and b, and the generator state as a 1x4 row.
std::vector<Matrix> DropoutLinearRun(const Matrix& xv, const Matrix& wv,
                                     const Matrix& bv, bool relu, bool bias,
                                     bool fused) {
  Rng rng(99);
  Var x = MakeParam(xv);
  Var w = MakeParam(wv);
  Var b = bias ? MakeParam(bv) : Var();
  Var out;
  if (fused) {
    out = DropoutLinear(x, w, b, 0.4, relu, &rng);
  } else {
    Var dropped = Dropout(x, 0.4, /*training=*/true, &rng);
    if (relu) {
      out = LinearRelu(dropped, w, b);
    } else {
      out = MatMul(dropped, w);
      if (b) out = AddRowVector(out, b);
    }
  }
  Rng upstream_rng(7);
  const Var upstream = MakeConstant(
      Matrix::Gaussian(out->rows(), out->cols(), 1.0, &upstream_rng));
  std::vector<Matrix> r = {out->value};
  Backward(SumAll(CWiseMul(out, upstream)));
  r.push_back(x->grad);
  r.push_back(w->grad);
  if (b) r.push_back(b->grad);
  const RngState state = rng.ExportState();
  Matrix s(1, 4);
  std::memcpy(s.data(), state.s, sizeof(state.s));
  r.push_back(s);
  return r;
}

// DropoutLinear against the explicit chain by memcmp: values, the grads of
// x, W and b, and the generator state, for ReLU on and off and bias on and
// off, across the masked GEMMs' row blocks (2048 rows at 48 columns, 68 at
// 1433) and MatMulTransA's 2048-row reduction chunks, on features holding
// NaN, +-inf and -0.0. The 12000-row case runs at 48 columns only: at
// 1433 its chain would hold about 0.5 GB.
TEST(FusedOpsTest, DropoutLinearMatchesExplicitChainBitwise) {
  for (const int cols : {48, 1433}) {
    for (const int rows : {1, 7, 2047, 2048, 2049, 12000}) {
      if (cols > 48 && rows > 2049) continue;
      const int out_dim = rows % 2 == 1 ? 5 : 8;
      const Matrix xv = FeaturesWithSpecials(rows, cols, 3 + rows);
      Rng rng(5);
      const Matrix wv = Matrix::Gaussian(cols, out_dim, 0.3, &rng);
      const Matrix bv = Matrix::Gaussian(1, out_dim, 1.0, &rng);
      for (const bool relu : {false, true}) {
        for (const bool bias : {false, true}) {
          const std::vector<Matrix> chain =
              DropoutLinearRun(xv, wv, bv, relu, bias, /*fused=*/false);
          const std::vector<Matrix> fused =
              DropoutLinearRun(xv, wv, bv, relu, bias, /*fused=*/true);
          ASSERT_EQ(chain.size(), fused.size());
          for (size_t i = 0; i < chain.size(); ++i) {
            EXPECT_TRUE(BitwiseEqual(chain[i], fused[i]))
                << rows << "x" << cols << " relu=" << relu
                << " bias=" << bias << " tensor " << i;
          }
        }
      }
    }
  }
}

// A taped training forward of a dense-first family keeps no buffer the
// size of the features alive: its first layer keeps the dropout's bits,
// not the dropped copy.
TEST(FusedOpsTest, DenseFirstForwardKeepsNoFeatureSizedBuffer) {
  SyntheticConfig graph_cfg;
  graph_cfg.num_nodes = 600;
  graph_cfg.num_classes = 3;
  graph_cfg.feature_dim = 384;
  graph_cfg.avg_degree = 4.0;
  graph_cfg.seed = 8;
  const Graph g = GenerateSbmGraph(graph_cfg);
  const Var features = MakeConstant(g.features());
  const int64_t feature_bytes =
      static_cast<int64_t>(g.features().size()) * sizeof(double);
  for (ModelFamily family :
       {ModelFamily::kSgc, ModelFamily::kDagnn, ModelFamily::kAppnp,
        ModelFamily::kGcnii, ModelFamily::kAgnn, ModelFamily::kGatedGnn}) {
    ModelConfig cfg;
    cfg.family = family;
    cfg.in_dim = g.feature_dim();
    cfg.hidden_dim = 4;
    cfg.num_layers = 2;
    cfg.dropout = 0.5;
    std::unique_ptr<GnnModel> model = BuildModel(cfg);
    Rng rng(3);
    GnnContext ctx{&g, /*training=*/true, &rng};
    const int64_t before = AllocTracker::CurrentBytes();
    const std::vector<Var> layers = model->LayerOutputs(ctx, features);
    const int64_t kept = AllocTracker::CurrentBytes() - before;
    EXPECT_LT(kept, feature_bytes) << ModelFamilyName(family);
    EXPECT_TRUE(layers.back()->requires_grad) << ModelFamilyName(family);
  }
}

// MaskedCrossEntropy against a gather of RowLogSoftmax (the loss) and
// against upstream * (RowSoftmax - onehot) / |mask| on the masked rows (the
// grad), with an upstream grad of 1 and of 2.5, and with a mask that repeats
// a row (its loss term and grad count twice). The grad rows the forward
// keeps for the backward are the only extra tensor, and a call no backward
// can reach (constant logits, inference mode) keeps none.
TEST(FusedOpsTest, MaskedCrossEntropyMatchesLogSoftmaxGather) {
  Rng rng(5);
  const Matrix logits_v = Matrix::Gaussian(20, 4, 1.5, &rng);
  std::vector<int> labels(20);
  for (int i = 0; i < 20; ++i) labels[i] = i % 4;
  const Matrix logp = RowLogSoftmax(logits_v);
  const Matrix probs = RowSoftmax(logits_v);

  struct Case {
    std::vector<int> mask;
    double upstream;
  };
  for (const Case& tc : {Case{{0, 3, 7, 11, 19}, 1.0},
                         Case{{0, 3, 7, 11, 19}, 2.5},
                         Case{{2, 5, 5, 9}, 1.0}}) {
    const double inv_m = 1.0 / static_cast<double>(tc.mask.size());
    const double g = tc.upstream * inv_m;
    double loss = 0.0;
    Matrix grad(logits_v.rows(), logits_v.cols());
    for (int idx : tc.mask) {
      loss -= logp(idx, labels[idx]);
      for (int c = 0; c < logits_v.cols(); ++c) {
        grad(idx, c) += g * (probs(idx, c) - (c == labels[idx] ? 1.0 : 0.0));
      }
    }
    Matrix loss_ref(1, 1);
    loss_ref(0, 0) = loss * inv_m;

    Var logits = MakeParam(logits_v);
    const int64_t allocs = AllocTracker::AllocationCount();
    Var out = MaskedCrossEntropy(logits, labels, tc.mask);
    EXPECT_EQ(AllocTracker::AllocationCount(), allocs + 2);  // loss, grad rows
    EXPECT_TRUE(BitwiseEqual(out->value, loss_ref)) << tc.upstream;
    Backward(tc.upstream == 1.0 ? out : ScalarMul(out, tc.upstream));
    EXPECT_TRUE(BitwiseEqual(logits->grad, grad))
        << "upstream " << tc.upstream << " mask size " << tc.mask.size();

    // No backward can run: the loss alone is allocated, bitwise the same.
    for (bool constant : {true, false}) {
      Var input = constant ? MakeConstant(logits_v) : MakeParam(logits_v);
      std::unique_ptr<ScopedInferenceMode> inference;
      if (!constant) inference = std::make_unique<ScopedInferenceMode>();
      const int64_t before = AllocTracker::AllocationCount();
      Var frozen = MaskedCrossEntropy(input, labels, tc.mask);
      EXPECT_EQ(AllocTracker::AllocationCount(), before + 1);
      EXPECT_FALSE(frozen->backward_fn) << "constant=" << constant;
      EXPECT_TRUE(BitwiseEqual(frozen->value, loss_ref));
    }
  }
}

Graph SmallGraph(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_nodes = 120;
  cfg.num_classes = 3;
  cfg.feature_dim = 10;
  cfg.avg_degree = 4.0;
  cfg.homophily = 0.8;
  cfg.feature_signal = 1.0;
  cfg.seed = seed;
  return GenerateSbmGraph(cfg);
}

ModelConfig ZooConfig(ModelFamily family) {
  ModelConfig cfg;
  cfg.family = family;
  cfg.hidden_dim = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.3;
  cfg.seed = 2;
  return cfg;
}

std::vector<ModelFamily> AllFamilies() {
  std::vector<ModelFamily> families;
  for (uint32_t f = 0; f < kNumModelFamilies; ++f) {
    families.push_back(static_cast<ModelFamily>(f));
  }
  return families;
}

// Trained probabilities are bitwise independent of the kernel thread count,
// for every zoo family.
TEST(MemoryBitwiseTest, TrainedProbsIdenticalAcrossThreadsForAllFamilies) {
  const Graph g = SmallGraph(21);
  Rng rng(4);
  const DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  for (ModelFamily family : AllFamilies()) {
    TrainConfig base;
    base.max_epochs = 6;
    base.patience = 6;
    base.seed = 9;
    base.num_threads = 1;
    const NodeTrainResult one =
        TrainSingleNodeModel(ZooConfig(family), g, split, base);
    for (int threads : {2, 4}) {
      TrainConfig cfg = base;
      cfg.num_threads = threads;
      const NodeTrainResult many =
          TrainSingleNodeModel(ZooConfig(family), g, split, cfg);
      EXPECT_TRUE(BitwiseEqual(one.probs, many.probs))
          << ModelFamilyName(family) << " threads=" << threads;
      EXPECT_EQ(one.best_epoch, many.best_epoch)
          << ModelFamilyName(family) << " threads=" << threads;
    }
  }
}

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// FNV-1a over the bytes of a result's probs, accuracies and best epoch.
uint64_t ResultDigest(const NodeTrainResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, r.probs.data(),
            static_cast<size_t>(r.probs.size()) * sizeof(double));
  h = Fnv1a(h, &r.val_accuracy, sizeof(double));
  h = Fnv1a(h, &r.test_accuracy, sizeof(double));
  return Fnv1a(h, &r.best_epoch, sizeof(int));
}

// Digests of TrainSingleNodeModel's result for every family in enum order,
// with a validation split and then without one (the train rows stand in).
// The first half is as the trainer computed it when its per-epoch eval
// forward still ran on the tape and took the softmax of every row. The
// second half was regenerated when the trainer, without val rows, began
// keeping the epoch of the best train accuracy instead of the worst.
constexpr uint64_t kGoldenNodeResults[2][kNumModelFamilies] = {
    {
        0xe00219035aeee877ULL, 0x27632658614c1f60ULL, 0xef2d3d1fde3216c5ULL,
        0xac206ce13f73e835ULL, 0x699aaac88d1ed6edULL, 0xc6b95f71badcd1f7ULL,
        0xa21a122de903c60fULL, 0xde4ec8ef944e6544ULL, 0x5635d964baf7eebeULL,
        0x98da998863c59f11ULL, 0x6f2ba96bfac64afcULL, 0xb402498e81207d1bULL,
        0xab4731951a2dc16aULL, 0x997de2a4b1619cc8ULL, 0xdce521a6538f0dedULL,
        0x4c6322c9b2ce1394ULL, 0xaf1e832167b0e37aULL, 0xed822c85df3b465dULL,
        0x538ad54399d65425ULL,
    },
    {
        0xdab43f396258535cULL, 0x71ef9e9ac478252bULL, 0x24cd09e278728f7fULL,
        0xb04b8d77d87353f4ULL, 0x9d606feba036fcdbULL, 0xe939cab8c967cc57ULL,
        0xf5553f0608e82f25ULL, 0xc9756ecfeb3a0c50ULL, 0x240c1bae617d05cbULL,
        0x8cdd8796c9afc55cULL, 0x6f2ba96bfac64afcULL, 0x5ccb569d5ead9d80ULL,
        0x3bc180510bb82b2dULL, 0x4aece5b1b2a2cfbdULL, 0x1f6ff6b855555a96ULL,
        0x2eb945dc0bef7633ULL, 0xe129015dd3161e3aULL, 0xc5594faf34881d62ULL,
        0x7e63b5af5b676d28ULL,
    }};

// The eval forward runs off the tape and the per-epoch softmax covers only
// the rows validation reads; neither changes a bit of the result.
TEST(MemoryBitwiseTest, NodeTrainResultMatchesGoldenForAllFamilies) {
  const Graph g = SmallGraph(21);
  Rng rng(4);
  const DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  DataSplit no_val = split;
  no_val.val.clear();
  const DataSplit* splits[2] = {&split, &no_val};
  for (int s = 0; s < 2; ++s) {
    for (ModelFamily family : AllFamilies()) {
      TrainConfig cfg;
      cfg.max_epochs = 8;
      cfg.patience = 3;
      cfg.seed = 9;
      cfg.num_threads = 1;
      const NodeTrainResult result =
          TrainSingleNodeModel(ZooConfig(family), g, *splits[s], cfg);
      EXPECT_EQ(ResultDigest(result),
                kGoldenNodeResults[s][static_cast<int>(family)])
          << ModelFamilyName(family) << (s == 0 ? "" : " without val");
    }
  }
}

// Inside ScopedInferenceMode an elementwise op consumes a solely-owned
// operand in place. Every layer that forward returns must equal the taped
// eval forward (training=false), for every zoo family.
TEST(MemoryBitwiseTest, InferenceModeLayersMatchTapedForwardForAllFamilies) {
  const Graph g = SmallGraph(33);
  for (ModelFamily family : AllFamilies()) {
    ModelConfig cfg = ZooConfig(family);
    cfg.in_dim = g.feature_dim();
    std::unique_ptr<GnnModel> model = BuildModel(cfg);
    const Var features = MakeConstant(g.features());
    GnnContext ctx;
    ctx.graph = &g;
    ctx.training = false;

    const std::vector<Var> taped = model->LayerOutputs(ctx, features);
    std::vector<Var> frozen;
    {
      ScopedInferenceMode inference;
      frozen = model->LayerOutputs(ctx, features);
    }
    ASSERT_EQ(taped.size(), frozen.size()) << ModelFamilyName(family);
    for (size_t l = 0; l < taped.size(); ++l) {
      EXPECT_TRUE(BitwiseEqual(taped[l]->value, frozen[l]->value))
          << ModelFamilyName(family) << " layer " << l;
    }
  }
}

// Steady-state training reuses the heap pages of the training before it.
// A search job trains members of several families back to back, and glibc's
// adaptive thresholds (mmap above the largest buffer freed so far, trim past
// twice that) hand the pages of one member back to the kernel before the
// next: without the heap policy each round below takes over a thousand
// minor page faults (run after this file's thread-count tests, as ctest
// runs it), with it almost none once two rounds have warmed the heap.
// Sanitizer allocators ignore the heap policy, and other libcs keep their
// own.
TEST(HeapPolicyTest, RepeatedTrainingTakesNoPageFaults) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__GLIBC__)
  GTEST_SKIP() << "the heap policy needs glibc's own allocator";
#else
  SyntheticConfig cfg;
  cfg.num_nodes = 3000;
  cfg.num_classes = 16;
  cfg.feature_dim = 48;
  cfg.avg_degree = 4.0;
  cfg.seed = 3;
  const Graph g = GenerateSbmGraph(cfg);
  ASSERT_GT(g.features().size() * sizeof(double), size_t{128} << 10);
  Rng rng(4);
  const DataSplit split = RandomSplit(g, 0.5, 0.2, &rng);
  TrainConfig train;
  train.max_epochs = 2;
  train.num_threads = 1;
  auto train_round = [&] {
    for (ModelFamily family : {ModelFamily::kGcn, ModelFamily::kGat,
                               ModelFamily::kSgc, ModelFamily::kAppnp}) {
      ModelConfig model = ZooConfig(family);
      model.hidden_dim = 8;
      TrainSingleNodeModel(model, g, split, train);
    }
  };
  auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<int64_t>(usage.ru_minflt);
  };

  // Two rounds warm the heap. A measured round can still touch a few
  // hundred fresh pages when fragmentation moves the heap's high-water
  // mark, so the quietest of three rounds is held to the ceiling; without
  // the policy every round takes over a thousand.
  train_round();
  train_round();
  std::vector<int64_t> faults;
  for (int round = 0; round < 3; ++round) {
    const int64_t before = minor_faults();
    train_round();
    faults.push_back(minor_faults() - before);
  }
  EXPECT_LT(*std::min_element(faults.begin(), faults.end()), 64)
      << faults[0] << ", " << faults[1] << ", " << faults[2];
#endif
}

}  // namespace
}  // namespace ahg
