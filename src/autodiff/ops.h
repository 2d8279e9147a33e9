// Differentiable dense operations. Each op returns a new Var whose backward
// closure propagates gradients to operands that require them. Every op here
// is covered by a finite-difference gradient test.
#ifndef AUTOHENS_AUTODIFF_OPS_H_
#define AUTOHENS_AUTODIFF_OPS_H_

#include <vector>

#include "autodiff/variable.h"

namespace ahg {

class Rng;

// Elementwise arithmetic (shapes must match).
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var CWiseMul(const Var& a, const Var& b);

// out = alpha * a.
Var ScalarMul(const Var& a, double alpha);

// Sum of >= 1 same-shape variables.
Var AddN(const std::vector<Var>& terms);

// Arithmetic mean of >= 1 same-shape variables (the 1/K aggregation of
// Eqn 3 in the paper).
Var MeanOfVars(const std::vector<Var>& terms);

// C = A * B.
Var MatMul(const Var& a, const Var& b);

// Adds a 1 x cols bias row to every row of m.
Var AddRowVector(const Var& m, const Var& bias);

// Fused relu(x * W + b); `b` may be a null Var for bias-free layers. One op
// node and one n x out buffer replace the MatMul -> AddRowVector -> Relu
// chain (three outputs plus a captured activation copy). Forward and
// backward replicate the unfused chain's per-element arithmetic and
// accumulation order exactly, so results are bitwise identical to the
// three-op form. nn/Linear::ApplyRelu always uses it.
Var LinearRelu(const Var& x, const Var& w, const Var& b);

// Activations. In inference mode (autodiff/variable.h) an operand whose
// handle is the sole owner of its node is consumed: its buffer is
// transformed in place and becomes the output's, so a caller must not read
// a solely-owned Var's value after passing it here.
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, double negative_slope);
Var Elu(const Var& a);
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);

// Row-wise (log-)softmax.
Var RowSoftmaxOp(const Var& a);
Var RowLogSoftmaxOp(const Var& a);

// Inverted dropout: at train time zeroes entries with probability p and
// scales survivors by 1/(1-p); identity at eval time.
Var Dropout(const Var& a, double p, bool training, Rng* rng);

// Horizontal concatenation (all operands share a row count).
Var ConcatCols(const std::vector<Var>& parts);

// out[i, :] = a[indices[i], :]. Backward scatter-adds.
Var GatherRows(const Var& a, const std::vector<int>& indices);

// out[i, 0] = dot(a[i, :], b[i, :]) — the dot-product link decoder.
Var RowDot(const Var& a, const Var& b);

// out = weights(0, idx) * m. Used to assemble softmax-weighted layer sums
// where `weights` itself is a differentiable 1 x L vector.
Var ScaleByEntry(const Var& m, const Var& weights, int idx);

// softmax(alpha_raw) over a 1 x L vector, then sum_l w_l * terms[l]
// (the continuous relaxation of Eqn 7).
Var SoftmaxWeightedSum(const std::vector<Var>& terms, const Var& alpha_raw);

// Elementwise maximum; gradient routes to whichever operand won (ties go to
// `a`). Used by the jumping-knowledge max aggregator.
Var CWiseMax(const Var& a, const Var& b);

// out[r, c] = m[r, c] * col[r, 0] — per-row scaling by an n x 1 gate
// (DAGNN's adaptive hop gating).
Var MulColBroadcast(const Var& m, const Var& col);

// Scalar sum of all entries (mostly for tests).
Var SumAll(const Var& a);

// Mean cross-entropy of `logits` rows listed in `mask` against integer
// `labels` (fused log-softmax + NLL over the masked rows only; numerically
// stable and bitwise equal to gathering RowLogSoftmax(logits) entries).
Var MaskedCrossEntropy(const Var& logits, const std::vector<int>& labels,
                       const std::vector<int>& mask);

// Mean negative log-likelihood where `probs` already holds probabilities
// (used for the ensemble loss of Eqn 5, whose input is a convex combination
// of per-model softmax outputs). Probabilities are clamped at 1e-12.
Var MaskedNllFromProbs(const Var& probs, const std::vector<int>& labels,
                       const std::vector<int>& mask);

// Mean binary cross-entropy with logits; `logits` is m x 1, labels in {0,1}.
Var BceWithLogits(const Var& logits, const std::vector<double>& labels);

}  // namespace ahg

#endif  // AUTOHENS_AUTODIFF_OPS_H_
