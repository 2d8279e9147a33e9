#include <cmath>
#include <cstring>

#include "autodiff/ops.h"
#include "autodiff/variable.h"
#include "gtest/gtest.h"
#include "util/rng.h"

namespace ahg {
namespace {

TEST(VariableTest, ConstantsDoNotRequireGrad) {
  Var c = MakeConstant(Matrix::FromRows({{1, 2}}));
  EXPECT_FALSE(c->requires_grad);
  Var p = MakeParam(Matrix::FromRows({{1, 2}}));
  EXPECT_TRUE(p->requires_grad);
}

TEST(VariableTest, OpNodeInfersRequiresGrad) {
  Var c1 = MakeConstant(Matrix::FromRows({{1.0}}));
  Var c2 = MakeConstant(Matrix::FromRows({{2.0}}));
  EXPECT_FALSE(Add(c1, c2)->requires_grad);
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  EXPECT_TRUE(Add(c1, p)->requires_grad);
}

TEST(BackwardTest, SimpleChain) {
  // loss = sum(3 * p) -> dloss/dp = 3.
  Var p = MakeParam(Matrix::FromRows({{1, 2}, {3, 4}}));
  Var loss = SumAll(ScalarMul(p, 3.0));
  Backward(loss);
  for (int64_t i = 0; i < p->grad.size(); ++i) {
    EXPECT_NEAR(p->grad.data()[i], 3.0, 1e-12);
  }
}

TEST(BackwardTest, SharedSubexpressionAccumulates) {
  // loss = sum(p + p) -> dloss/dp = 2.
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  Var loss = SumAll(Add(p, p));
  Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 2.0, 1e-12);
}

TEST(BackwardTest, DiamondGraphAccumulates) {
  // a = 2p, b = 3p, loss = sum(a*b) = 6p^2 -> d/dp = 12p.
  Var p = MakeParam(Matrix::FromRows({{2.0}}));
  Var loss = SumAll(CWiseMul(ScalarMul(p, 2.0), ScalarMul(p, 3.0)));
  Backward(loss);
  EXPECT_NEAR(p->grad(0, 0), 24.0, 1e-9);
}

TEST(BackwardTest, GradsAccumulateAcrossCallsUntilZeroed) {
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  for (int i = 0; i < 2; ++i) {
    Var loss = SumAll(ScalarMul(p, 5.0));
    Backward(loss);
  }
  EXPECT_NEAR(p->grad(0, 0), 10.0, 1e-12);
  p->ZeroGrad();
  EXPECT_EQ(p->grad(0, 0), 0.0);
}

TEST(BackwardTest, ConstantBranchReceivesNoGrad) {
  Var p = MakeParam(Matrix::FromRows({{1.0}}));
  Var c = MakeConstant(Matrix::FromRows({{7.0}}));
  Var loss = SumAll(CWiseMul(p, c));
  Backward(loss);
  EXPECT_TRUE(c->grad.empty());
  EXPECT_NEAR(p->grad(0, 0), 7.0, 1e-12);
}

TEST(OpsForwardTest, MatMulValue) {
  Var a = MakeConstant(Matrix::FromRows({{1, 2}}));
  Var b = MakeConstant(Matrix::FromRows({{3}, {4}}));
  EXPECT_NEAR(MatMul(a, b)->value(0, 0), 11.0, 1e-12);
}

TEST(OpsForwardTest, ActivationValues) {
  Var x = MakeConstant(Matrix::FromRows({{-1.0, 0.0, 2.0}}));
  EXPECT_EQ(Relu(x)->value(0, 0), 0.0);
  EXPECT_EQ(Relu(x)->value(0, 2), 2.0);
  EXPECT_NEAR(LeakyRelu(x, 0.1)->value(0, 0), -0.1, 1e-12);
  EXPECT_NEAR(Elu(x)->value(0, 0), std::expm1(-1.0), 1e-12);
  EXPECT_NEAR(Sigmoid(x)->value(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(Tanh(x)->value(0, 2), std::tanh(2.0), 1e-12);
}

TEST(OpsForwardTest, DropoutEvalIsIdentity) {
  Rng rng(1);
  Var x = MakeParam(Matrix::FromRows({{1, 2, 3}}));
  Var y = Dropout(x, 0.5, /*training=*/false, &rng);
  EXPECT_EQ(y.get(), x.get());
}

TEST(OpsForwardTest, DropoutTrainPreservesMeanRoughly) {
  Rng rng(123);
  Var x = MakeConstant(Matrix::Constant(1, 20000, 1.0));
  Var y = Dropout(x, 0.3, /*training=*/true, &rng);
  EXPECT_NEAR(y->value.Sum() / 20000.0, 1.0, 0.03);
}

// Dropout draws one rng.Bernoulli(p) per element in element order, whether
// or not the input requires grad (only then is the mask kept), and leaves
// the generator exactly where that reference loop does.
TEST(OpsForwardTest, DropoutMatchesReferenceBernoulliLoop) {
  const double p = 0.4;
  const double keep_scale = 1.0 / (1.0 - p);
  Rng data_rng(5);
  Matrix xm(37, 11);
  for (int64_t i = 0; i < xm.size(); ++i) {
    xm.data()[i] = data_rng.Normal(0.0, 1.0);
  }
  xm.data()[3] = -0.0;
  for (const bool requires_grad : {false, true}) {
    Rng ref_rng(77);
    Matrix ref_out(xm.rows(), xm.cols());
    Matrix ref_mask(xm.rows(), xm.cols());
    for (int64_t i = 0; i < xm.size(); ++i) {
      ref_mask.data()[i] = ref_rng.Bernoulli(p) ? 0.0 : keep_scale;
      ref_out.data()[i] = xm.data()[i] * ref_mask.data()[i];
    }

    Rng rng(77);
    Var x = requires_grad ? MakeParam(xm) : MakeConstant(xm);
    Var y = Dropout(x, p, /*training=*/true, &rng);
    const size_t bytes = static_cast<size_t>(xm.size()) * sizeof(double);
    EXPECT_EQ(std::memcmp(y->value.data(), ref_out.data(), bytes), 0)
        << "requires_grad " << requires_grad;
    EXPECT_EQ(y->requires_grad, requires_grad);
    EXPECT_EQ(rng.Next(), ref_rng.Next()) << "requires_grad " << requires_grad;
    if (!requires_grad) continue;

    // d(sum(y * w))/dx = w * mask, element for element.
    Matrix wm(xm.rows(), xm.cols());
    for (int64_t i = 0; i < wm.size(); ++i) {
      wm.data()[i] = data_rng.Normal(0.0, 1.0);
    }
    Backward(SumAll(CWiseMul(y, MakeConstant(wm))));
    Matrix ref_grad(xm.rows(), xm.cols());
    for (int64_t i = 0; i < xm.size(); ++i) {
      ref_grad.data()[i] = 0.0 + wm.data()[i] * ref_mask.data()[i];
    }
    ASSERT_FALSE(x->grad.empty());
    for (int64_t i = 0; i < xm.size(); ++i) {
      EXPECT_EQ(x->grad.data()[i], ref_grad.data()[i]) << "index " << i;
    }
  }
}

TEST(OpsForwardTest, ConcatColsLaysOutParts) {
  Var a = MakeConstant(Matrix::FromRows({{1}, {2}}));
  Var b = MakeConstant(Matrix::FromRows({{3, 4}, {5, 6}}));
  Var c = ConcatCols({a, b});
  EXPECT_EQ(c->cols(), 3);
  EXPECT_EQ(c->value(1, 2), 6.0);
  EXPECT_EQ(c->value(0, 0), 1.0);
}

TEST(OpsForwardTest, GatherRowsPicksRows) {
  Var a = MakeConstant(Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}}));
  Var g = GatherRows(a, {2, 0});
  EXPECT_EQ(g->value(0, 0), 3.0);
  EXPECT_EQ(g->value(1, 0), 1.0);
}

TEST(OpsForwardTest, SoftmaxWeightedSumUniformAtZeroAlpha) {
  Var t1 = MakeConstant(Matrix::FromRows({{2.0}}));
  Var t2 = MakeConstant(Matrix::FromRows({{4.0}}));
  Var alpha = MakeParam(Matrix(1, 2));  // zeros -> uniform softmax
  Var out = SoftmaxWeightedSum({t1, t2}, alpha);
  EXPECT_NEAR(out->value(0, 0), 3.0, 1e-12);
}

TEST(OpsForwardTest, MaskedCrossEntropyMatchesManual) {
  // Single masked row with known softmax.
  Var logits = MakeParam(Matrix::FromRows({{0.0, 0.0}, {1.0, 3.0}}));
  Var loss = MaskedCrossEntropy(logits, {0, 1}, {1});
  const double p1 = std::exp(3.0) / (std::exp(1.0) + std::exp(3.0));
  EXPECT_NEAR(loss->value(0, 0), -std::log(p1), 1e-12);
}

TEST(OpsForwardTest, BceWithLogitsMatchesManual) {
  Var logits = MakeParam(Matrix::FromRows({{0.0}, {2.0}}));
  Var loss = BceWithLogits(logits, {1.0, 0.0});
  const double expected =
      (-std::log(0.5) - std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)))) / 2.0;
  EXPECT_NEAR(loss->value(0, 0), expected, 1e-12);
}

TEST(BackwardTest, RootMustBeScalar) {
  Var p = MakeParam(Matrix::FromRows({{1, 2}}));
  EXPECT_DEATH(Backward(Add(p, p)), "scalar");
}

}  // namespace
}  // namespace ahg
