#include "nn/linear.h"

#include "autodiff/ops.h"
#include "nn/init.h"

namespace ahg {

Linear::Linear(ParameterStore* store, int in_dim, int out_dim, bool bias,
               Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = store->Create(GlorotUniform(in_dim, out_dim, rng));
  if (bias) bias_ = store->Create(Matrix(1, out_dim));
}

Var Linear::Apply(const Var& x) const {
  Var out = MatMul(x, weight_);
  if (bias_) out = AddRowVector(out, bias_);
  return out;
}

Var Linear::ApplyRelu(const Var& x) const {
  return LinearRelu(x, weight_, bias_);
}

}  // namespace ahg
