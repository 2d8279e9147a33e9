// Simplified Graph Convolution (Wu et al., 2019): a single linear feature
// map followed by repeated propagation, H^(l) = Ahat^l (X W). Exposing each
// power as a layer output lets alpha pick the effective propagation depth.
#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class SgcModel : public GnnModel {
 public:
  explicit SgcModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    input_ = std::make_unique<Linear>(&store_, config.in_dim,
                                      config.hidden_dim, /*bias=*/true, &rng);
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kSymNorm);
    Var h = input_->ApplyDropout(x, config_.dropout, ctx.training, ctx.rng);
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      h = Spmm(adj, h);
      outputs.push_back(h);
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeSgc(const ModelConfig& config) {
  return std::make_unique<SgcModel>(config);
}

}  // namespace ahg::zoo_internal
