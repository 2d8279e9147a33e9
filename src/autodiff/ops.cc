#include "autodiff/ops.h"

#include <cmath>

#include "kernels/kernel_ops.h"
#include "util/rng.h"

namespace ahg {
namespace {

void AccumulateInto(const Var& target, const Matrix& delta) {
  if (!target->requires_grad) return;
  target->EnsureGrad();
  target->grad.AddInPlace(delta);
}

void AccumulateScaled(const Var& target, double alpha, const Matrix& delta) {
  if (!target->requires_grad) return;
  target->EnsureGrad();
  target->grad.AxpyInPlace(alpha, delta);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  Matrix out = ahg::Add(a->value, b->value);
  return MakeOpNode(std::move(out), {a, b}, [a, b](const Node& n) {
    AccumulateInto(a, n.grad);
    AccumulateInto(b, n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix out = ahg::Sub(a->value, b->value);
  return MakeOpNode(std::move(out), {a, b}, [a, b](const Node& n) {
    AccumulateInto(a, n.grad);
    AccumulateScaled(b, -1.0, n.grad);
  });
}

Var CWiseMul(const Var& a, const Var& b) {
  Matrix out = ahg::CWiseMul(a->value, b->value);
  return MakeOpNode(std::move(out), {a, b}, [a, b](const Node& n) {
    if (a->requires_grad) AccumulateInto(a, ahg::CWiseMul(n.grad, b->value));
    if (b->requires_grad) AccumulateInto(b, ahg::CWiseMul(n.grad, a->value));
  });
}

Var ScalarMul(const Var& a, double alpha) {
  Matrix out = Scale(a->value, alpha);
  return MakeOpNode(std::move(out), {a}, [a, alpha](const Node& n) {
    AccumulateScaled(a, alpha, n.grad);
  });
}

Var AddN(const std::vector<Var>& terms) {
  AHG_CHECK(!terms.empty());
  Matrix out = terms[0]->value;
  for (size_t i = 1; i < terms.size(); ++i) out.AddInPlace(terms[i]->value);
  return MakeOpNode(std::move(out), terms, [terms](const Node& n) {
    for (const auto& t : terms) AccumulateInto(t, n.grad);
  });
}

Var MeanOfVars(const std::vector<Var>& terms) {
  return ScalarMul(AddN(terms), 1.0 / static_cast<double>(terms.size()));
}

Var MatMul(const Var& a, const Var& b) {
  Matrix out = ahg::MatMul(a->value, b->value);
  return MakeOpNode(std::move(out), {a, b}, [a, b](const Node& n) {
    // dA = G * B^T ; dB = A^T * G.
    if (a->requires_grad) AccumulateInto(a, MatMulTransB(n.grad, b->value));
    if (b->requires_grad) AccumulateInto(b, MatMulTransA(a->value, n.grad));
  });
}

Var AddRowVector(const Var& m, const Var& bias) {
  AHG_CHECK_EQ(bias->rows(), 1);
  AHG_CHECK_EQ(bias->cols(), m->cols());
  Matrix out = m->value;
  for (int r = 0; r < out.rows(); ++r) {
    double* row = out.Row(r);
    const double* b = bias->value.Row(0);
    for (int c = 0; c < out.cols(); ++c) row[c] += b[c];
  }
  return MakeOpNode(std::move(out), {m, bias}, [m, bias](const Node& n) {
    AccumulateInto(m, n.grad);
    if (bias->requires_grad) {
      bias->EnsureGrad();
      double* bg = bias->grad.Row(0);
      for (int r = 0; r < n.grad.rows(); ++r) {
        const double* g = n.grad.Row(r);
        for (int c = 0; c < n.grad.cols(); ++c) bg[c] += g[c];
      }
    }
  });
}

Var LinearRelu(const Var& x, const Var& w, const Var& b) {
  AHG_CHECK_EQ(x->cols(), w->rows());
  if (b) {
    AHG_CHECK_EQ(b->rows(), 1);
    AHG_CHECK_EQ(b->cols(), w->cols());
  }
  Matrix out = ahg::MatMul(x->value, w->value);
  // Single in-place pass over the product: the additions and the max are
  // the exact per-element arithmetic AddRowVector and Relu would perform on
  // their own output buffers. The dispatched kernel's max(v, +0.0) matches
  // `v > 0 ? v : 0.0` bit-for-bit (including -0.0 and NaN inputs).
  const kernels::TierOps& ops = kernels::ActiveOps();
  const double* bias = b ? b->value.Row(0) : nullptr;
  for (int r = 0; r < out.rows(); ++r) {
    ops.bias_relu_row(out.Row(r), bias, out.cols());
  }
  std::vector<Var> parents =
      b ? std::vector<Var>{x, w, b} : std::vector<Var>{x, w};
  return MakeOpNode(
      std::move(out), std::move(parents), [x, w, b](const Node& n) {
        // gp reproduces the pre-activation node's grad from the unfused
        // chain: zero-initialized, then += g * 1[out > 0] — the same
        // products (including g * 0.0 sign behavior) and the same
        // accumulate-into-zero the Relu backward performs. out > 0 iff the
        // pre-activation was > 0, so masking from n.value is exact.
        Matrix gp(n.grad.rows(), n.grad.cols());
        for (int64_t i = 0; i < gp.size(); ++i) {
          gp.data()[i] +=
              n.grad.data()[i] * (n.value.data()[i] > 0.0 ? 1.0 : 0.0);
        }
        // Parent order matches the unfused reverse-topo sweep: bias (from
        // the AddRowVector node), then x, then w (from the MatMul node).
        if (b && b->requires_grad) {
          b->EnsureGrad();
          double* bg = b->grad.Row(0);
          for (int r = 0; r < gp.rows(); ++r) {
            const double* g = gp.Row(r);
            for (int c = 0; c < gp.cols(); ++c) bg[c] += g[c];
          }
        }
        if (x->requires_grad) AccumulateInto(x, MatMulTransB(gp, w->value));
        if (w->requires_grad) AccumulateInto(w, MatMulTransA(x->value, gp));
      });
}

namespace {

// Shared shape of unary elementwise ops: forward maps value, backward scales
// incoming grad by a derivative computed from (input, output).
template <typename FwdFn, typename BwdFn>
Var UnaryElementwise(const Var& a, FwdFn fwd, BwdFn deriv) {
  if (InInferenceMode()) {
    // The node comes out detached, so no backward capture is needed. When
    // this handle is the node's sole owner (a chained temporary like
    // act(lin.Apply(h))), the value is transformed in place instead of
    // allocating: the donor node is unobservable after this call. Callers
    // in inference mode must not keep reading a solely-owned Var's value
    // after passing it to an elementwise op.
    if (a.use_count() == 1 && !a->value.empty()) {
      Matrix out = std::move(a->value);
      for (int64_t i = 0; i < out.size(); ++i) {
        out.data()[i] = fwd(out.data()[i]);
      }
      return MakeOpNode(std::move(out), {}, nullptr);
    }
    Matrix out(a->rows(), a->cols());
    for (int64_t i = 0; i < out.size(); ++i) {
      out.data()[i] = fwd(a->value.data()[i]);
    }
    return MakeOpNode(std::move(out), {}, nullptr);
  }
  Matrix out(a->rows(), a->cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = fwd(a->value.data()[i]);
  }
  // Capture the output value for derivative forms expressed via f(x).
  Matrix out_copy = out;
  return MakeOpNode(
      std::move(out), {a},
      [a, deriv, out_copy = std::move(out_copy)](const Node& n) {
        if (!a->requires_grad) return;
        a->EnsureGrad();
        for (int64_t i = 0; i < n.grad.size(); ++i) {
          a->grad.data()[i] += n.grad.data()[i] *
                               deriv(a->value.data()[i], out_copy.data()[i]);
        }
      });
}

}  // namespace

Var Relu(const Var& a) {
  return UnaryElementwise(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var LeakyRelu(const Var& a, double negative_slope) {
  return UnaryElementwise(
      a,
      [negative_slope](double x) { return x > 0.0 ? x : negative_slope * x; },
      [negative_slope](double x, double) {
        return x > 0.0 ? 1.0 : negative_slope;
      });
}

Var Elu(const Var& a) {
  return UnaryElementwise(
      a, [](double x) { return x > 0.0 ? x : std::expm1(x); },
      [](double x, double y) { return x > 0.0 ? 1.0 : y + 1.0; });
}

Var Tanh(const Var& a) {
  return UnaryElementwise(a, [](double x) { return std::tanh(x); },
                          [](double, double y) { return 1.0 - y * y; });
}

Var Sigmoid(const Var& a) {
  return UnaryElementwise(
      a, [](double x) { return 1.0 / (1.0 + std::exp(-x)); },
      [](double, double y) { return y * (1.0 - y); });
}

Var RowSoftmaxOp(const Var& a) {
  Matrix out = RowSoftmax(a->value);
  Matrix out_copy = out;
  return MakeOpNode(
      std::move(out), {a}, [a, s = std::move(out_copy)](const Node& n) {
        if (!a->requires_grad) return;
        a->EnsureGrad();
        // dx_j = s_j * (g_j - sum_k g_k s_k) per row.
        for (int r = 0; r < n.grad.rows(); ++r) {
          const double* g = n.grad.Row(r);
          const double* srow = s.Row(r);
          double dot = 0.0;
          for (int c = 0; c < n.grad.cols(); ++c) dot += g[c] * srow[c];
          double* ag = a->grad.Row(r);
          for (int c = 0; c < n.grad.cols(); ++c) {
            ag[c] += srow[c] * (g[c] - dot);
          }
        }
      });
}

Var RowLogSoftmaxOp(const Var& a) {
  Matrix out = RowLogSoftmax(a->value);
  return MakeOpNode(std::move(out), {a}, [a](const Node& n) {
    if (!a->requires_grad) return;
    a->EnsureGrad();
    // dx = g - softmax(x) * rowsum(g).
    Matrix s = RowSoftmax(a->value);
    for (int r = 0; r < n.grad.rows(); ++r) {
      const double* g = n.grad.Row(r);
      const double* srow = s.Row(r);
      double gsum = 0.0;
      for (int c = 0; c < n.grad.cols(); ++c) gsum += g[c];
      double* ag = a->grad.Row(r);
      for (int c = 0; c < n.grad.cols(); ++c) ag[c] += g[c] - srow[c] * gsum;
    }
  });
}

Var Dropout(const Var& a, double p, bool training, Rng* rng) {
  if (!training || p <= 0.0) return a;
  AHG_CHECK_LT(p, 1.0);
  const double keep_scale = 1.0 / (1.0 - p);
  // The mask is kept only when a backward will read it; the constant
  // feature matrix every zoo model drops never needs one.
  Matrix mask;
  if (a->requires_grad) mask = Matrix(a->rows(), a->cols());
  Matrix out(a->rows(), a->cols());
  const int64_t size = out.size();
  const double* in = a->value.data();
  double* dst = out.data();
  double* mk = mask.data();
  // One pass over a local copy of the generator, written back afterwards:
  // its state stays in registers, and the draws (one per element, in
  // element order) are exactly those of rng->Bernoulli(p) per element.
  Rng local = *rng;
  for (int64_t i = 0; i < size; ++i) {
    const double m = local.Bernoulli(p) ? 0.0 : keep_scale;
    if (mk != nullptr) mk[i] = m;
    dst[i] = in[i] * m;
  }
  *rng = local;
  return MakeOpNode(std::move(out), {a},
                    [a, mask = std::move(mask)](const Node& n) {
                      if (!a->requires_grad) return;
                      a->EnsureGrad();
                      for (int64_t i = 0; i < n.grad.size(); ++i) {
                        a->grad.data()[i] += n.grad.data()[i] * mask.data()[i];
                      }
                    });
}

Var ConcatCols(const std::vector<Var>& parts) {
  AHG_CHECK(!parts.empty());
  const int rows = parts[0]->rows();
  int total_cols = 0;
  for (const auto& p : parts) {
    AHG_CHECK_EQ(p->rows(), rows);
    total_cols += p->cols();
  }
  Matrix out(rows, total_cols);
  int offset = 0;
  for (const auto& p : parts) {
    for (int r = 0; r < rows; ++r) {
      const double* src = p->value.Row(r);
      double* dst = out.Row(r) + offset;
      for (int c = 0; c < p->cols(); ++c) dst[c] = src[c];
    }
    offset += p->cols();
  }
  return MakeOpNode(std::move(out), parts, [parts](const Node& n) {
    int off = 0;
    for (const auto& p : parts) {
      if (p->requires_grad) {
        p->EnsureGrad();
        for (int r = 0; r < n.grad.rows(); ++r) {
          const double* g = n.grad.Row(r) + off;
          double* pg = p->grad.Row(r);
          for (int c = 0; c < p->cols(); ++c) pg[c] += g[c];
        }
      }
      off += p->cols();
    }
  });
}

Var GatherRows(const Var& a, const std::vector<int>& indices) {
  Matrix out(static_cast<int>(indices.size()), a->cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    AHG_CHECK(indices[i] >= 0 && indices[i] < a->rows());
    const double* src = a->value.Row(indices[i]);
    double* dst = out.Row(static_cast<int>(i));
    for (int c = 0; c < a->cols(); ++c) dst[c] = src[c];
  }
  return MakeOpNode(std::move(out), {a}, [a, indices](const Node& n) {
    if (!a->requires_grad) return;
    a->EnsureGrad();
    for (size_t i = 0; i < indices.size(); ++i) {
      const double* g = n.grad.Row(static_cast<int>(i));
      double* ag = a->grad.Row(indices[i]);
      for (int c = 0; c < n.grad.cols(); ++c) ag[c] += g[c];
    }
  });
}

Var RowDot(const Var& a, const Var& b) {
  AHG_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Matrix out(a->rows(), 1);
  for (int r = 0; r < a->rows(); ++r) {
    const double* arow = a->value.Row(r);
    const double* brow = b->value.Row(r);
    double dot = 0.0;
    for (int c = 0; c < a->cols(); ++c) dot += arow[c] * brow[c];
    out(r, 0) = dot;
  }
  return MakeOpNode(std::move(out), {a, b}, [a, b](const Node& n) {
    for (int r = 0; r < n.grad.rows(); ++r) {
      const double g = n.grad(r, 0);
      if (a->requires_grad) {
        a->EnsureGrad();
        double* ag = a->grad.Row(r);
        const double* brow = b->value.Row(r);
        for (int c = 0; c < a->cols(); ++c) ag[c] += g * brow[c];
      }
      if (b->requires_grad) {
        b->EnsureGrad();
        double* bg = b->grad.Row(r);
        const double* arow = a->value.Row(r);
        for (int c = 0; c < b->cols(); ++c) bg[c] += g * arow[c];
      }
    }
  });
}

Var ScaleByEntry(const Var& m, const Var& weights, int idx) {
  AHG_CHECK_EQ(weights->rows(), 1);
  AHG_CHECK(idx >= 0 && idx < weights->cols());
  const double w = weights->value(0, idx);
  Matrix out = Scale(m->value, w);
  return MakeOpNode(std::move(out), {m, weights},
                    [m, weights, idx, w](const Node& n) {
                      if (m->requires_grad) AccumulateScaled(m, w, n.grad);
                      if (weights->requires_grad) {
                        weights->EnsureGrad();
                        double dot = 0.0;
                        for (int64_t i = 0; i < n.grad.size(); ++i) {
                          dot += n.grad.data()[i] * m->value.data()[i];
                        }
                        weights->grad(0, idx) += dot;
                      }
                    });
}

Var SoftmaxWeightedSum(const std::vector<Var>& terms, const Var& alpha_raw) {
  AHG_CHECK_EQ(alpha_raw->rows(), 1);
  AHG_CHECK_EQ(alpha_raw->cols(), static_cast<int>(terms.size()));
  Var w = RowSoftmaxOp(alpha_raw);
  std::vector<Var> scaled;
  scaled.reserve(terms.size());
  for (size_t l = 0; l < terms.size(); ++l) {
    scaled.push_back(ScaleByEntry(terms[l], w, static_cast<int>(l)));
  }
  return AddN(scaled);
}

Var CWiseMax(const Var& a, const Var& b) {
  AHG_CHECK(a->rows() == b->rows() && a->cols() == b->cols());
  Matrix out(a->rows(), a->cols());
  // take_a[i] records the winner for gradient routing.
  std::vector<bool> take_a(static_cast<size_t>(a->value.size()));
  for (int64_t i = 0; i < out.size(); ++i) {
    const double av = a->value.data()[i];
    const double bv = b->value.data()[i];
    take_a[i] = av >= bv;
    out.data()[i] = take_a[i] ? av : bv;
  }
  return MakeOpNode(std::move(out), {a, b},
                    [a, b, take_a = std::move(take_a)](const Node& n) {
                      if (a->requires_grad) a->EnsureGrad();
                      if (b->requires_grad) b->EnsureGrad();
                      for (int64_t i = 0; i < n.grad.size(); ++i) {
                        if (take_a[i]) {
                          if (a->requires_grad)
                            a->grad.data()[i] += n.grad.data()[i];
                        } else if (b->requires_grad) {
                          b->grad.data()[i] += n.grad.data()[i];
                        }
                      }
                    });
}

Var MulColBroadcast(const Var& m, const Var& col) {
  AHG_CHECK_EQ(col->cols(), 1);
  AHG_CHECK_EQ(col->rows(), m->rows());
  Matrix out(m->rows(), m->cols());
  for (int r = 0; r < m->rows(); ++r) {
    const double s = col->value(r, 0);
    const double* src = m->value.Row(r);
    double* dst = out.Row(r);
    for (int c = 0; c < m->cols(); ++c) dst[c] = s * src[c];
  }
  return MakeOpNode(std::move(out), {m, col}, [m, col](const Node& n) {
    for (int r = 0; r < n.grad.rows(); ++r) {
      const double* g = n.grad.Row(r);
      if (m->requires_grad) {
        m->EnsureGrad();
        const double s = col->value(r, 0);
        double* mg = m->grad.Row(r);
        for (int c = 0; c < n.grad.cols(); ++c) mg[c] += s * g[c];
      }
      if (col->requires_grad) {
        col->EnsureGrad();
        const double* mrow = m->value.Row(r);
        double dot = 0.0;
        for (int c = 0; c < n.grad.cols(); ++c) dot += g[c] * mrow[c];
        col->grad(r, 0) += dot;
      }
    }
  });
}

Var SumAll(const Var& a) {
  Matrix out(1, 1);
  out(0, 0) = a->value.Sum();
  return MakeOpNode(std::move(out), {a}, [a](const Node& n) {
    if (!a->requires_grad) return;
    a->EnsureGrad();
    const double g = n.grad(0, 0);
    for (int64_t i = 0; i < a->grad.size(); ++i) a->grad.data()[i] += g;
  });
}

Var MaskedCrossEntropy(const Var& logits, const std::vector<int>& labels,
                       const std::vector<int>& mask) {
  AHG_CHECK(!mask.empty());
  AHG_CHECK_EQ(static_cast<int>(labels.size()), logits->rows());
  double loss = 0.0;
  // Masked rows only — never materializes the full n x C log-softmax. Per
  // row this is the exact arithmetic RowLogSoftmax performs (rows are
  // independent there), so the loss is bitwise identical to gathering the
  // masked entries of RowLogSoftmax(logits).
  for (int idx : mask) {
    AHG_CHECK(idx >= 0 && idx < logits->rows());
    const int y = labels[idx];
    AHG_CHECK(y >= 0 && y < logits->cols());
    const double* row = logits->value.Row(idx);
    double max_val = row[0];
    for (int c = 1; c < logits->cols(); ++c)
      max_val = std::max(max_val, row[c]);
    double total = 0.0;
    for (int c = 0; c < logits->cols(); ++c)
      total += std::exp(row[c] - max_val);
    const double log_total = std::log(total) + max_val;
    loss -= row[y] - log_total;
  }
  const double inv_m = 1.0 / static_cast<double>(mask.size());
  Matrix out(1, 1);
  out(0, 0) = loss * inv_m;
  return MakeOpNode(
      std::move(out), {logits}, [logits, labels, mask, inv_m](const Node& n) {
        if (!logits->requires_grad) return;
        logits->EnsureGrad();
        const double g = n.grad(0, 0) * inv_m;
        // d/dlogits = (softmax - onehot) / |mask| on masked rows.
        for (int idx : mask) {
          const double* row = logits->value.Row(idx);
          double max_val = row[0];
          for (int c = 1; c < logits->cols(); ++c)
            max_val = std::max(max_val, row[c]);
          double total = 0.0;
          for (int c = 0; c < logits->cols(); ++c)
            total += std::exp(row[c] - max_val);
          double* lg = logits->grad.Row(idx);
          for (int c = 0; c < logits->cols(); ++c) {
            const double p = std::exp(row[c] - max_val) / total;
            lg[c] += g * (p - (c == labels[idx] ? 1.0 : 0.0));
          }
        }
      });
}

namespace {
constexpr double kProbFloor = 1e-12;
}  // namespace

Var MaskedNllFromProbs(const Var& probs, const std::vector<int>& labels,
                       const std::vector<int>& mask) {
  AHG_CHECK(!mask.empty());
  double loss = 0.0;
  for (int idx : mask) {
    const int y = labels[idx];
    AHG_CHECK(y >= 0 && y < probs->cols());
    loss -= std::log(std::max(probs->value(idx, y), kProbFloor));
  }
  const double inv_m = 1.0 / static_cast<double>(mask.size());
  Matrix out(1, 1);
  out(0, 0) = loss * inv_m;
  return MakeOpNode(std::move(out), {probs},
                    [probs, labels, mask, inv_m](const Node& n) {
                      if (!probs->requires_grad) return;
                      probs->EnsureGrad();
                      const double g = n.grad(0, 0) * inv_m;
                      for (int idx : mask) {
                        const int y = labels[idx];
                        const double p =
                            std::max(probs->value(idx, y), kProbFloor);
                        probs->grad(idx, y) -= g / p;
                      }
                    });
}

Var BceWithLogits(const Var& logits, const std::vector<double>& labels) {
  AHG_CHECK_EQ(logits->cols(), 1);
  AHG_CHECK_EQ(static_cast<int>(labels.size()), logits->rows());
  const int m = logits->rows();
  double loss = 0.0;
  for (int r = 0; r < m; ++r) {
    const double x = logits->value(r, 0);
    const double y = labels[r];
    // Stable form: max(x,0) - x*y + log(1 + exp(-|x|)).
    loss += std::max(x, 0.0) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  const double inv_m = 1.0 / m;
  Matrix out(1, 1);
  out(0, 0) = loss * inv_m;
  return MakeOpNode(std::move(out), {logits},
                    [logits, labels, inv_m](const Node& n) {
                      if (!logits->requires_grad) return;
                      logits->EnsureGrad();
                      const double g = n.grad(0, 0) * inv_m;
                      for (int r = 0; r < logits->rows(); ++r) {
                        const double x = logits->value(r, 0);
                        const double p = 1.0 / (1.0 + std::exp(-x));
                        logits->grad(r, 0) += g * (p - labels[r]);
                      }
                    });
}

}  // namespace ahg
