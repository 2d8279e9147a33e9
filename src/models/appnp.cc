// APPNP (Klicpera et al., 2019): predict-then-propagate with personalized
// PageRank. Z = ReLU(Dropout(X) W); H^(l) = (1 - a) Ahat H^(l-1) + a Z.
// Every propagation step is exposed as a layer output.
#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class AppnpModel : public GnnModel {
 public:
  explicit AppnpModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    input_ = std::make_unique<Linear>(&store_, config.in_dim,
                                      config.hidden_dim, /*bias=*/true, &rng);
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kSymNorm);
    const double a = config_.teleport;
    Var z =
        input_->ApplyReluDropout(x, config_.dropout, ctx.training, ctx.rng);
    Var teleport_term = ScalarMul(z, a);
    Var h = z;
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      h = Add(ScalarMul(Spmm(adj, h), 1.0 - a), teleport_term);
      outputs.push_back(h);
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeAppnp(const ModelConfig& config) {
  return std::make_unique<AppnpModel>(config);
}

}  // namespace ahg::zoo_internal
