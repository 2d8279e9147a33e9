// Gated Graph Neural Network (Li et al., 2016): message passing with a GRU
// state updater. m = Ahat H W_msg; H^(l) = GRU(m, H^(l-1)) with
// z = sigmoid(m W_z + H U_z), r = sigmoid(m W_r + H U_r),
// htilde = tanh(m W_h + (r .* H) U_h), H^(l) = (1 - z) .* H + z .* htilde.
#include "autodiff/graph_ops.h"
#include "autodiff/ops.h"
#include "models/zoo_internal.h"
#include "nn/linear.h"

namespace ahg::zoo_internal {
namespace {

class GatedGnnModel : public GnnModel {
 public:
  explicit GatedGnnModel(const ModelConfig& config) : GnnModel(config) {
    Rng rng(config.seed);
    const int d = config.hidden_dim;
    input_ = std::make_unique<Linear>(&store_, config.in_dim, d, true, &rng);
    msg_ = std::make_unique<Linear>(&store_, d, d, /*bias=*/false, &rng);
    wz_ = std::make_unique<Linear>(&store_, d, d, true, &rng);
    uz_ = std::make_unique<Linear>(&store_, d, d, false, &rng);
    wr_ = std::make_unique<Linear>(&store_, d, d, true, &rng);
    ur_ = std::make_unique<Linear>(&store_, d, d, false, &rng);
    wh_ = std::make_unique<Linear>(&store_, d, d, true, &rng);
    uh_ = std::make_unique<Linear>(&store_, d, d, false, &rng);
  }

  std::vector<Var> LayerOutputs(const GnnContext& ctx, const Var& x) override {
    const SparseMatrix& adj =
        ctx.graph->Adjacency(AdjacencyKind::kRowNorm);
    Var h =
        input_->ApplyReluDropout(x, config_.dropout, ctx.training, ctx.rng);
    Var ones = MakeConstant(Matrix::Constant(h->rows(), h->cols(), 1.0));
    std::vector<Var> outputs;
    for (int l = 0; l < config_.num_layers; ++l) {
      Var m = msg_->Apply(Spmm(adj, h));
      Var z = Sigmoid(Add(wz_->Apply(m), uz_->Apply(h)));
      Var r = Sigmoid(Add(wr_->Apply(m), ur_->Apply(h)));
      Var candidate = Tanh(Add(wh_->Apply(m), uh_->Apply(CWiseMul(r, h))));
      h = Add(CWiseMul(Sub(ones, z), h), CWiseMul(z, candidate));
      outputs.push_back(h);
    }
    return outputs;
  }

 private:
  std::unique_ptr<Linear> input_, msg_, wz_, uz_, wr_, ur_, wh_, uh_;
};

}  // namespace

std::unique_ptr<GnnModel> MakeGatedGnn(const ModelConfig& config) {
  return std::make_unique<GatedGnnModel>(config);
}

}  // namespace ahg::zoo_internal
