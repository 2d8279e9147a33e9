// Affine layer y = x W + b with Glorot initialization.
#ifndef AUTOHENS_NN_LINEAR_H_
#define AUTOHENS_NN_LINEAR_H_

#include "autodiff/variable.h"
#include "nn/parameter_store.h"
#include "util/rng.h"

namespace ahg {

class Linear {
 public:
  // Registers W (and b when `bias`) in `store`. `store` and `rng` must
  // outlive the constructor call only; the layer keeps Vars by shared_ptr.
  Linear(ParameterStore* store, int in_dim, int out_dim, bool bias, Rng* rng);

  // x is n x in_dim; returns n x out_dim.
  Var Apply(const Var& x) const;

  // relu(Apply(x)) as one fused single-buffer op (LinearRelu in
  // autodiff/ops.h); bitwise identical to the unfused chain.
  Var ApplyRelu(const Var& x) const;

  // Apply(Dropout(x, p, training, rng)) and ApplyRelu of the same; at
  // train time one DropoutLinear op (autodiff/ops.h) that never forms the
  // dropped copy of x, bitwise identical to the two-op chain.
  Var ApplyDropout(const Var& x, double p, bool training, Rng* rng) const;
  Var ApplyReluDropout(const Var& x, double p, bool training, Rng* rng) const;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  const Var& weight() const { return weight_; }

 private:
  int in_dim_;
  int out_dim_;
  Var weight_;
  Var bias_;  // null when constructed without bias
};

}  // namespace ahg

#endif  // AUTOHENS_NN_LINEAR_H_
