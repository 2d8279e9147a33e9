// Tape-based reverse-mode automatic differentiation.
//
// A Var is a shared handle to a Node holding a dense value, an (optionally
// lazily allocated) gradient, its parents in the computation DAG and a
// backward closure. Ops (autodiff/ops.h, autodiff/graph_ops.h) build the DAG
// dynamically; Backward() runs a topological sweep from a scalar root.
//
// Gradients accumulate (+=) so a Var consumed by several ops receives the sum
// of its consumers' contributions, matching the chain rule for shared
// subexpressions.
#ifndef AUTOHENS_AUTODIFF_VARIABLE_H_
#define AUTOHENS_AUTODIFF_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace ahg {

struct Node;
using Var = std::shared_ptr<Node>;

struct Node {
  Matrix value;
  Matrix grad;  // Same shape as value once EnsureGrad() runs; else empty.
  bool requires_grad = false;
  std::vector<Var> parents;
  // Propagates this node's grad into its parents' grads. Null for leaves.
  std::function<void(const Node&)> backward_fn;

  int rows() const { return value.rows(); }
  int cols() const { return value.cols(); }

  // Allocates grad as zeros if not yet present.
  void EnsureGrad() {
    if (grad.rows() != value.rows() || grad.cols() != value.cols()) {
      grad = Matrix(value.rows(), value.cols());
    }
  }

  void ZeroGrad() {
    if (!grad.empty()) grad.SetZero();
  }
};

// Leaf with gradient tracking (a trainable parameter).
Var MakeParam(Matrix value);

// Leaf without gradient tracking (input features, cached predictions).
Var MakeConstant(Matrix value);

// Internal: creates an op output node. `requires_grad` is inferred from
// parents; callers provide the backward closure. Inside an inference-mode
// region the node is created detached: no parents, no backward closure,
// requires_grad = false.
Var MakeOpNode(Matrix value, std::vector<Var> parents,
               std::function<void(const Node&)> backward_fn);

// RAII tape switch for the frozen serving path. While a ScopedInferenceMode
// is live on this thread, every op output is detached from the DAG, so
// intermediate activations free as soon as their local handles die and a
// forward pass retains no backward closures. Forward values are unchanged —
// ops only differ in what bookkeeping they keep. Nestable; thread-local.
class ScopedInferenceMode {
 public:
  ScopedInferenceMode();
  ~ScopedInferenceMode();

  ScopedInferenceMode(const ScopedInferenceMode&) = delete;
  ScopedInferenceMode& operator=(const ScopedInferenceMode&) = delete;
};

// True while a ScopedInferenceMode is live on this thread.
bool InInferenceMode();

// Runs reverse-mode accumulation from `root`, which must be a 1x1 scalar.
// Seeds d(root)/d(root) = 1 and accumulates into `grad` on every reachable
// leaf with requires_grad, on top of existing values, so call ZeroGrad on
// parameters (see nn/parameter_store.h) between steps. Op-node grads are
// consumed: each is freed as soon as its backward closure has run, so after
// Backward every op node (the root included) has an empty grad and only
// leaves hold gradients.
void Backward(const Var& root);

}  // namespace ahg

#endif  // AUTOHENS_AUTODIFF_VARIABLE_H_
