// Tests of the paper's core machinery: GSE, proxy evaluation, both search
// algorithms, the hierarchical retraining stage, and the adaptive-beta rule.
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "core/autohens.h"
#include "core/gse.h"
#include "core/hierarchical.h"
#include "core/proxy_eval.h"
#include "core/search_adaptive.h"
#include "core/search_gradient.h"
#include "graph/synthetic.h"
#include "gtest/gtest.h"

namespace ahg {
namespace {

const Graph& TestGraph() {
  static const Graph* graph = [] {
    SyntheticConfig cfg;
    cfg.num_nodes = 150;
    cfg.num_classes = 3;
    cfg.feature_dim = 10;
    cfg.avg_degree = 5.0;
    cfg.homophily = 0.88;
    cfg.feature_signal = 1.0;
    cfg.seed = 21;
    return new Graph(GenerateSbmGraph(cfg));
  }();
  return *graph;
}

DataSplit TestSplit() {
  Rng rng(22);
  return RandomSplit(TestGraph(), 0.5, 0.2, &rng);
}

ModelConfig TinyConfig(ModelFamily family) {
  ModelConfig cfg;
  cfg.family = family;
  cfg.hidden_dim = 12;
  cfg.num_layers = 3;
  cfg.dropout = 0.2;
  return cfg;
}

TrainConfig FastTrain() {
  TrainConfig cfg;
  cfg.max_epochs = 40;
  cfg.patience = 8;
  cfg.learning_rate = 2e-2;
  return cfg;
}

std::vector<CandidateSpec> TinyPool() {
  std::vector<CandidateSpec> pool;
  pool.push_back({"GCN", TinyConfig(ModelFamily::kGcn)});
  pool.push_back({"SGC", TinyConfig(ModelFamily::kSgc)});
  return pool;
}

TEST(GseTest, ProbsAreRowStochastic) {
  GraphSelfEnsemble gse(TinyConfig(ModelFamily::kGcn), /*k=*/3,
                        TestGraph().feature_dim(), TestGraph().num_classes(),
                        /*seed_base=*/5, /*trainable_alpha=*/true);
  GnnContext ctx{&TestGraph(), false, nullptr};
  Var probs = gse.Probs(ctx, MakeConstant(TestGraph().features()));
  EXPECT_EQ(probs->rows(), TestGraph().num_nodes());
  EXPECT_EQ(probs->cols(), TestGraph().num_classes());
  for (int r = 0; r < probs->rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < probs->cols(); ++c) {
      EXPECT_GE(probs->value(r, c), 0.0);
      total += probs->value(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(GseTest, AlphaParamsExposedOnlyWhenTrainable) {
  GraphSelfEnsemble trainable(TinyConfig(ModelFamily::kGcn), 3, 10, 3, 1,
                              /*trainable_alpha=*/true);
  EXPECT_EQ(trainable.AlphaParams().size(), 3u);
  GraphSelfEnsemble fixed(TinyConfig(ModelFamily::kGcn), 3, 10, 3, 1,
                          /*trainable_alpha=*/false);
  EXPECT_TRUE(fixed.AlphaParams().empty());
  // Fixed mode defaults to the deepest layer.
  EXPECT_EQ(fixed.SelectedLayers(), (std::vector<int>{3, 3, 3}));
}

TEST(GseTest, SetFixedLayersOverridesAlpha) {
  GraphSelfEnsemble gse(TinyConfig(ModelFamily::kGcn), 3, 10, 3, 1,
                        /*trainable_alpha=*/true);
  gse.SetFixedLayers({1, 2, 3});
  EXPECT_EQ(gse.SelectedLayers(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(gse.AlphaParams().empty());
}

TEST(GseTest, WeightParamsCoverAllMembers) {
  GraphSelfEnsemble gse(TinyConfig(ModelFamily::kGcn), 2, 10, 3, 1, true);
  // Two members, each: 3 GCN layers (W+b each) + head (W+b) = 8 params.
  EXPECT_EQ(gse.WeightParams().size(), 16u);
}

TEST(ProxyEvalTest, RanksAllCandidatesDescending) {
  ProxyConfig pcfg;
  pcfg.dataset_ratio = 0.6;
  pcfg.bagging = 2;
  pcfg.model_ratio = 0.5;
  pcfg.train = FastTrain();
  pcfg.train.max_epochs = 25;
  ProxyEvalResult result =
      ProxyEvaluate(TinyPool(), TestGraph(), pcfg, /*seed=*/3);
  ASSERT_EQ(result.ranked.size(), 2u);
  EXPECT_GE(result.ranked[0].mean_val_accuracy,
            result.ranked[1].mean_val_accuracy);
  EXPECT_GT(result.total_seconds, 0.0);
  // Proxy hidden size applied.
  EXPECT_EQ(result.ranked[0].config.hidden_dim, 6);
  EXPECT_EQ(result.ranked[0].original_config.hidden_dim, 12);
}

TEST(ProxyEvalTest, SelectTopRestoresOriginalConfig) {
  ProxyConfig pcfg;
  pcfg.dataset_ratio = 0.5;
  pcfg.bagging = 1;
  pcfg.train = FastTrain();
  pcfg.train.max_epochs = 15;
  ProxyEvalResult result =
      ProxyEvaluate(TinyPool(), TestGraph(), pcfg, /*seed=*/4);
  std::vector<CandidateSpec> top = SelectTopCandidates(result, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].config.hidden_dim, 12);
}

TEST(ProxyEvalTest, FullRatioUsesWholeGraph) {
  ProxyConfig pcfg;
  pcfg.dataset_ratio = 1.0;
  pcfg.bagging = 1;
  pcfg.model_ratio = 1.0;
  pcfg.train = FastTrain();
  pcfg.train.max_epochs = 10;
  // Just exercises the ratio >= 1 path.
  ProxyEvalResult result =
      ProxyEvaluate(TinyPool(), TestGraph(), pcfg, /*seed=*/5);
  EXPECT_EQ(result.ranked.size(), 2u);
}

TEST(AdaptiveBetaTest, HigherAccuracyGetsHigherWeight) {
  std::vector<double> beta = AdaptiveBeta({0.9, 0.6, 0.3}, 3.0, 3, 8000, 5);
  EXPECT_GT(beta[0], beta[1]);
  EXPECT_GT(beta[1], beta[2]);
  EXPECT_NEAR(std::accumulate(beta.begin(), beta.end(), 0.0), 1.0, 1e-9);
}

TEST(AdaptiveBetaTest, SparserGraphSharpensDistribution) {
  // Smaller average degree -> smaller tau -> sharper softmax.
  std::vector<double> sparse = AdaptiveBeta({0.9, 0.3}, 1.0, 3, 100, 5);
  std::vector<double> dense = AdaptiveBeta({0.9, 0.3}, 50.0, 3, 100, 5);
  EXPECT_GT(sparse[0], dense[0]);
}

TEST(AdaptiveBetaTest, EqualAccuraciesGiveUniform) {
  std::vector<double> beta = AdaptiveBeta({0.7, 0.7, 0.7}, 3.0, 3, 8000, 5);
  for (double b : beta) EXPECT_NEAR(b, 1.0 / 3.0, 1e-9);
}

TEST(AdaptiveBetaTest, EmptyPoolReturnsEmptyWeights) {
  EXPECT_TRUE(AdaptiveBeta({}, 3.0, 3, 8000, 5).empty());
}

TEST(AdaptiveBetaTest, TiedAccuraciesSplitUniformlyAtAnyLevel) {
  // Min-max normalization degenerates when hi == lo; the tie must split the
  // weight evenly whether the shared accuracy is zero, middling, or perfect.
  for (double acc : {0.0, 0.5, 1.0}) {
    std::vector<double> beta =
        AdaptiveBeta({acc, acc, acc, acc}, 5.0, 3, 8000, 5);
    ASSERT_EQ(beta.size(), 4u);
    for (double b : beta) EXPECT_NEAR(b, 0.25, 1e-12);
  }
}

TEST(AdaptiveBetaTest, ZeroEdgeGraphIsFiniteAndSharpest) {
  // An edgeless graph has average degree 0: log(0 + 1) = 0 keeps the density
  // term finite, and the resulting tau is the smallest over all densities,
  // so the softmax is at its sharpest.
  std::vector<double> zero = AdaptiveBeta({0.9, 0.3}, 0.0, 3, 100, 5);
  std::vector<double> denser = AdaptiveBeta({0.9, 0.3}, 2.0, 3, 100, 5);
  ASSERT_EQ(zero.size(), 2u);
  for (double b : zero) {
    EXPECT_TRUE(std::isfinite(b));
    EXPECT_GE(b, 0.0);
  }
  EXPECT_NEAR(zero[0] + zero[1], 1.0, 1e-9);
  EXPECT_GE(zero[0], denser[0]);
}

TEST(AdaptiveBetaTest, ExtremeLambdaStaysNormalized) {
  // lambda = 1e6 overflows pow(density, lambda) to +inf; tau -> inf must
  // yield the uniform distribution, never NaN.
  std::vector<double> flat = AdaptiveBeta({0.9, 0.6, 0.3}, 5.0, 3, 8000, 1e6);
  for (double b : flat) {
    EXPECT_TRUE(std::isfinite(b));
    EXPECT_NEAR(b, 1.0 / 3.0, 1e-9);
  }
  // lambda = -1e6 underflows the pow to 0; tau -> 1 is the sharp extreme and
  // must still produce a valid distribution favouring the best model.
  std::vector<double> sharp =
      AdaptiveBeta({0.9, 0.6, 0.3}, 5.0, 3, 8000, -1e6);
  double total = 0.0;
  for (double b : sharp) {
    EXPECT_TRUE(std::isfinite(b));
    total += b;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(sharp[0], sharp[2]);
}

TEST(SearchAdaptiveTest, ProducesValidLayersAndBeta) {
  AdaptiveSearchConfig cfg;
  cfg.k = 2;
  cfg.train = FastTrain();
  cfg.train.max_epochs = 20;
  cfg.seed = 6;
  AdaptiveSearchResult result =
      SearchAdaptive(TinyPool(), TestGraph(), TestSplit(), cfg);
  ASSERT_EQ(result.layers.size(), 2u);
  for (const auto& member_layers : result.layers) {
    ASSERT_EQ(member_layers.size(), 2u);
    for (int layer : member_layers) {
      EXPECT_GE(layer, 1);
      EXPECT_LE(layer, 3);
    }
  }
  EXPECT_NEAR(std::accumulate(result.beta.begin(), result.beta.end(), 0.0),
              1.0, 1e-9);
  EXPECT_GT(result.search_seconds, 0.0);
}

TEST(SearchGradientTest, ProducesValidLayersAndBeta) {
  GradientSearchConfig cfg;
  cfg.k = 2;
  cfg.max_epochs = 15;
  cfg.patience = 5;
  cfg.train = FastTrain();
  cfg.seed = 7;
  GradientSearchResult result =
      SearchGradient(TinyPool(), TestGraph(), TestSplit(), cfg);
  ASSERT_EQ(result.layers.size(), 2u);
  for (const auto& member_layers : result.layers) {
    ASSERT_EQ(member_layers.size(), 2u);
    for (int layer : member_layers) {
      EXPECT_GE(layer, 1);
      EXPECT_LE(layer, 3);
    }
  }
  EXPECT_NEAR(std::accumulate(result.beta.begin(), result.beta.end(), 0.0),
              1.0, 1e-9);
  EXPECT_GT(result.val_accuracy, 0.4);  // co-trained ensemble learns
}

void AppendBits(const Matrix& m, std::string* out) {
  const int dims[2] = {m.rows(), m.cols()};
  out->append(reinterpret_cast<const char*>(dims), sizeof(dims));
  out->append(reinterpret_cast<const char*>(m.data()),
              m.size() * sizeof(double));
}

void AppendBits(const std::vector<Matrix>& ms, std::string* out) {
  for (const Matrix& m : ms) AppendBits(m, out);
}

template <typename T>
void AppendBits(const T& value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Every bit of a snapshot: the state a resume restores.
std::string StateBits(const GradientSearchState& st) {
  std::string out;
  AppendBits(st.epoch, &out);
  AppendBits(st.weight_values, &out);
  AppendBits(st.arch_values, &out);
  for (const AdamState* opt : {&st.weight_opt, &st.arch_opt}) {
    AppendBits(opt->m, &out);
    AppendBits(opt->v, &out);
    AppendBits(opt->step, &out);
    AppendBits(opt->learning_rate, &out);
  }
  AppendBits(st.dropout_rng.s, &out);
  AppendBits(st.dropout_rng.has_spare_normal, &out);
  AppendBits(st.dropout_rng.spare_normal, &out);
  AppendBits(st.best_val, &out);
  AppendBits(st.best_beta_raw, &out);
  AppendBits(st.best_alphas, &out);
  AppendBits(st.epochs_since_best, &out);
  return out;
}

// The eval forward runs each self-ensemble in its own task; the training
// forwards stay serial. Results and every snapshot match bit for bit.
TEST(SearchGradientTest, BitwiseAcrossEvalThreadCounts) {
  std::vector<CandidateSpec> pool = TinyPool();
  pool.push_back({"APPNP", TinyConfig(ModelFamily::kAppnp)});
  std::string bits[2];
  for (int t = 0; t < 2; ++t) {
    GradientSearchConfig cfg;
    cfg.k = 2;
    cfg.max_epochs = 8;
    cfg.patience = 8;
    cfg.train = FastTrain();
    cfg.seed = 11;
    cfg.num_threads = t + 1;
    cfg.checkpoint_every = 3;
    int snapshots = 0;
    cfg.on_checkpoint = [&](const GradientSearchState& st) {
      bits[t] += StateBits(st);
      ++snapshots;
    };
    const GradientSearchResult result =
        SearchGradient(pool, TestGraph(), TestSplit(), cfg);
    EXPECT_EQ(snapshots, 2);
    for (const std::vector<int>& layers : result.layers) {
      for (int layer : layers) AppendBits(layer, &bits[t]);
    }
    for (double b : result.beta) AppendBits(b, &bits[t]);
    AppendBits(result.val_accuracy, &bits[t]);
  }
  EXPECT_TRUE(bits[0] == bits[1]);
}

TEST(HierarchicalTest, CombinedProbsAreRowStochastic) {
  HierarchicalResult result = TrainHierarchicalEnsemble(
      TinyPool(), {{2, 3}, {1, 2}}, {0.6, 0.4}, TestGraph(), TestSplit(),
      FastTrain(), /*seed=*/8);
  EXPECT_EQ(result.per_model_probs.size(), 2u);
  for (int r = 0; r < result.probs.rows(); ++r) {
    double total = 0.0;
    for (int c = 0; c < result.probs.cols(); ++c) {
      total += result.probs(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  EXPECT_GT(result.val_accuracy, 0.6);
}

TEST(HierarchicalTest, GseReducesToSingleArchitecture) {
  CandidateSpec spec{"GCN", TinyConfig(ModelFamily::kGcn)};
  HierarchicalResult result = TrainGse(spec, {2, 2, 3}, TestGraph(),
                                       TestSplit(), FastTrain(), /*seed=*/9);
  EXPECT_EQ(result.per_model_probs.size(), 1u);
  EXPECT_GT(result.val_accuracy, 0.6);
}

class AutoHEnsAlgoTest : public ::testing::TestWithParam<SearchAlgo> {};

TEST_P(AutoHEnsAlgoTest, EndToEndRunsAndLearns) {
  AutoHEnsConfig cfg;
  cfg.pool_size = 2;
  cfg.k = 2;
  cfg.algo = GetParam();
  cfg.proxy.dataset_ratio = 0.6;
  cfg.proxy.bagging = 1;
  cfg.proxy.train = FastTrain();
  cfg.proxy.train.max_epochs = 15;
  cfg.gradient.max_epochs = 12;
  cfg.train = FastTrain();
  cfg.bagging_splits = 2;
  cfg.seed = 10;
  AutoHEnsResult result =
      RunAutoHEnsGnn(TestGraph(), TestSplit(), TinyPool(), cfg);
  EXPECT_EQ(result.pool_names.size(), 2u);
  EXPECT_EQ(result.layers.size(), 2u);
  EXPECT_EQ(result.beta.size(), 2u);
  EXPECT_GT(result.test_accuracy, 0.6);
  EXPECT_EQ(result.bagging_rounds_run, 2);
  EXPECT_GT(result.selection_seconds, 0.0);
  EXPECT_GT(result.search_seconds, 0.0);
  EXPECT_GT(result.retrain_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, AutoHEnsAlgoTest,
                         ::testing::Values(SearchAlgo::kGradient,
                                           SearchAlgo::kAdaptive),
                         [](const auto& info) {
                           return info.param == SearchAlgo::kGradient
                                      ? "Gradient"
                                      : "Adaptive";
                         });

TEST(AutoHEnsTest, TimeBudgetShedsBaggingRounds) {
  AutoHEnsConfig cfg;
  cfg.pool_size = 1;
  cfg.k = 1;
  cfg.algo = SearchAlgo::kAdaptive;
  cfg.fixed_pool = {TinyPool()[0]};  // skip proxy stage
  cfg.train = FastTrain();
  cfg.train.max_epochs = 10;
  cfg.adaptive.train = cfg.train;
  cfg.bagging_splits = 5;
  cfg.time_budget_seconds = 1e-9;  // already exceeded after round one
  cfg.seed = 11;
  AutoHEnsResult result =
      RunAutoHEnsGnn(TestGraph(), TestSplit(), {}, cfg);
  EXPECT_EQ(result.bagging_rounds_run, 1);
}

TEST(AutoHEnsTest, FixedPoolSkipsSelection) {
  AutoHEnsConfig cfg;
  cfg.pool_size = 2;
  cfg.k = 1;
  cfg.algo = SearchAlgo::kAdaptive;
  cfg.fixed_pool = TinyPool();
  cfg.train = FastTrain();
  cfg.train.max_epochs = 10;
  cfg.adaptive.train = cfg.train;
  cfg.bagging_splits = 1;
  cfg.seed = 12;
  AutoHEnsResult result =
      RunAutoHEnsGnn(TestGraph(), TestSplit(), {}, cfg);
  EXPECT_EQ(result.selection_seconds, 0.0);
  EXPECT_EQ(result.pool_names,
            (std::vector<std::string>{"GCN", "SGC"}));
}

// --- Cooperative cancellation -------------------------------------------
// Each pipeline stage polls its CancelToken at unit boundaries (candidate,
// probe, epoch) and unwinds with `interrupted` set instead of finishing.

TEST(CancelTest, PreCancelledProxyEvalScoresNothing) {
  CancelToken cancel;
  cancel.Cancel();
  ProxyConfig cfg;
  cfg.bagging = 1;
  cfg.train = FastTrain();
  cfg.train.max_epochs = 5;
  cfg.cancel = &cancel;
  ProxyEvalResult result = ProxyEvaluate(TinyPool(), TestGraph(), cfg, 3);
  EXPECT_TRUE(result.interrupted);
  EXPECT_TRUE(result.ranked.empty());
}

TEST(CancelTest, ProxyEvalStopsAfterFirstCandidate) {
  CancelToken cancel;
  ProxyConfig cfg;
  cfg.bagging = 1;
  cfg.num_threads = 1;  // sequential, so the count below is deterministic
  cfg.train = FastTrain();
  cfg.train.max_epochs = 5;
  cfg.cancel = &cancel;
  cfg.on_candidate_done = [&](int, const CandidateScore&) { cancel.Cancel(); };
  ProxyEvalResult result = ProxyEvaluate(TinyPool(), TestGraph(), cfg, 3);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.ranked.size(), 1u);
}

TEST(CancelTest, AdaptiveSearchStopsBetweenProbes) {
  CancelToken cancel;
  AdaptiveSearchConfig cfg;
  cfg.k = 2;
  cfg.train = FastTrain();
  cfg.train.max_epochs = 5;
  cfg.seed = 6;
  cfg.cancel = &cancel;
  int probes = 0;
  cfg.on_probe_done = [&](int, int, double) {
    ++probes;
    cancel.Cancel();
  };
  AdaptiveSearchResult result =
      SearchAdaptive(TinyPool(), TestGraph(), TestSplit(), cfg);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(probes, 1);
}

TEST(CancelTest, GradientSearchStopsAtEpochBoundary) {
  CancelToken cancel;
  GradientSearchConfig cfg;
  cfg.k = 2;
  cfg.max_epochs = 30;
  cfg.patience = 30;
  cfg.train = FastTrain();
  cfg.seed = 7;
  cfg.cancel = &cancel;
  cfg.checkpoint_every = 2;
  int checkpoints = 0;
  cfg.on_checkpoint = [&](const GradientSearchState& st) {
    ++checkpoints;
    if (st.epoch >= 4) cancel.Cancel();
  };
  GradientSearchResult result =
      SearchGradient(TinyPool(), TestGraph(), TestSplit(), cfg);
  EXPECT_TRUE(result.interrupted);
  // Epochs are 1-based, so checkpoints fire at epochs 2 and 4; the cancel
  // lands after the second and the loop exits before epoch 5 ever runs.
  EXPECT_EQ(checkpoints, 2);
}

// --- Validating pipeline entry point -------------------------------------

TEST(AutoHEnsCheckedTest, RejectsMalformedInputs) {
  AutoHEnsConfig cfg;
  cfg.train = FastTrain();
  // No candidates and no fixed pool.
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), TestSplit(), {}, cfg).ok());
  // Empty train / val splits.
  DataSplit no_train = TestSplit();
  no_train.train.clear();
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), no_train, TinyPool(), cfg).ok());
  DataSplit no_val = TestSplit();
  no_val.val.clear();
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), no_val, TinyPool(), cfg).ok());
  // Out-of-range node index.
  DataSplit oob = TestSplit();
  oob.val.push_back(TestGraph().num_nodes());
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), oob, TinyPool(), cfg).ok());
  // Nonsensical knobs.
  AutoHEnsConfig bad_pool = cfg;
  bad_pool.pool_size = 0;
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), TestSplit(), TinyPool(), bad_pool)
          .ok());
  AutoHEnsConfig bad_k = cfg;
  bad_k.k = -1;
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), TestSplit(), TinyPool(), bad_k)
          .ok());
  AutoHEnsConfig bad_frac = cfg;
  bad_frac.val_fraction = 1.5;
  EXPECT_FALSE(
      RunAutoHEnsGnnChecked(TestGraph(), TestSplit(), TinyPool(), bad_frac)
          .ok());
}

TEST(AutoHEnsCheckedTest, HappyPathIsBitwiseIdenticalToUnchecked) {
  AutoHEnsConfig cfg;
  cfg.pool_size = 1;
  cfg.k = 1;
  cfg.algo = SearchAlgo::kAdaptive;
  cfg.fixed_pool = {TinyPool()[0]};
  cfg.train = FastTrain();
  cfg.train.max_epochs = 8;
  cfg.adaptive.train = cfg.train;
  cfg.bagging_splits = 1;
  cfg.seed = 13;
  AutoHEnsResult plain = RunAutoHEnsGnn(TestGraph(), TestSplit(), {}, cfg);
  auto checked = RunAutoHEnsGnnChecked(TestGraph(), TestSplit(), {}, cfg);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(plain.val_accuracy, checked.value().val_accuracy);
  ASSERT_EQ(plain.probs.size(), checked.value().probs.size());
  EXPECT_EQ(std::memcmp(plain.probs.data(), checked.value().probs.data(),
                        sizeof(double) * plain.probs.size()),
            0);
}

}  // namespace
}  // namespace ahg
