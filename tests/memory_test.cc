// Memory model: AllocTracker accounting, and the bitwise identity of the
// always-on fused kernels and the in-place inference path against explicit
// unfused references, over every zoo family and kernel thread count.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
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
