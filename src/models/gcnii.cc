// GCNII (Chen et al., 2020): deep GCN with initial residual and identity
// mapping. P = (1 - a) Ahat H^(l-1) + a H^(0);
// H^(l) = ReLU((1 - b_l) P + b_l P W_l), b_l = log(lambda / l + 1).
#include <cmath>

#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class GcniiModel : public GnnModel {
 public:
  explicit GcniiModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    input_ = std::make_unique<Linear>(&store_, config.in_dim,
                                      config.hidden_dim, /*bias=*/true, &rng);
    for (int l = 0; l < config.num_layers; ++l) {
      layers_.emplace_back(&store_, config.hidden_dim, config.hidden_dim,
                           /*bias=*/false, &rng);
    }
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kSymNorm);
    const double a = config_.gcnii_alpha;
    Var h0 =
        input_->ApplyReluDropout(x, config_.dropout, ctx.training, ctx.rng);
    Var initial_term = ScalarMul(h0, a);
    Var h = h0;
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      const double beta = std::log(config_.gcnii_lambda / (l + 1) + 1.0);
      Var p = Add(ScalarMul(Spmm(adj, h), 1.0 - a), initial_term);
      h = Relu(Add(ScalarMul(p, 1.0 - beta),
                   ScalarMul(layers_[l].Apply(p), beta)));
      outputs.push_back(h);
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<Linear> layers_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeGcnii(const ModelConfig& config) {
  return std::make_unique<GcniiModel>(config);
}

}  // namespace ahg::zoo_internal
