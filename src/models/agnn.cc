// Attention-based Graph Neural Network (Thekumparampil et al., 2018): a
// single feature projection followed by propagation layers whose attention
// weights are trainable-temperature cosine similarities between endpoint
// representations.
#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class AgnnModel : public GnnModel {
 public:
  explicit AgnnModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    input_ = std::make_unique<Linear>(&store_, config.in_dim,
                                      config.hidden_dim, /*bias=*/true, &rng);
    for (int l = 0; l < config.num_layers; ++l) {
      // beta starts at 1 as in the original paper.
      betas_.push_back(store_.Create(Matrix::Constant(1, 1, 1.0)));
    }
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kRawSelfLoops);
    Var h =
        input_->ApplyReluDropout(x, config_.dropout, ctx.training, ctx.rng);
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      h = CosineAttentionAggregate(adj, h, betas_[l]);
      outputs.push_back(h);
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<Var> betas_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeAgnn(const ModelConfig& config) {
  return std::make_unique<AgnnModel>(config);
}

}  // namespace ahg::zoo_internal
