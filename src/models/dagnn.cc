// DAGNN (Liu et al., 2020): decoupled transformation and propagation with a
// learned per-node gate over propagation depth. Z = ReLU(Dropout(X) W);
// H^(l) = Ahat^l Z, exposed as s_l .* H^(l) with s_l = sigmoid(H^(l) w).
#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/init.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class DagnnModel : public GnnModel {
 public:
  explicit DagnnModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    input_ = std::make_unique<Linear>(&store_, config.in_dim,
                                      config.hidden_dim, /*bias=*/true, &rng);
    gate_ = store_.Create(GlorotUniform(config.hidden_dim, 1, &rng));
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kSymNorm);
    Var h =
        input_->ApplyReluDropout(x, config_.dropout, ctx.training, ctx.rng);
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      h = Spmm(adj, h);
      Var score = Sigmoid(MatMul(h, gate_));
      outputs.push_back(MulColBroadcast(h, score));
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_;
  Var gate_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeDagnn(const ModelConfig& config) {
  return std::make_unique<DagnnModel>(config);
}

}  // namespace ahg::zoo_internal
