#include "models/model.h"

#include "util/string_util.h"

namespace ahg {

Matrix GnnModel::ForwardInference(const Graph& graph, const Matrix& features) {
  ScopedInferenceMode frozen;
  GnnContext ctx;
  ctx.graph = &graph;
  ctx.training = false;
  std::vector<Var> layers = LayerOutputs(ctx, MakeConstant(features));
  AHG_CHECK(!layers.empty());
  return std::move(layers.back()->value);
}

Status ValidateModelConfig(const ModelConfig& config) {
  if (config.in_dim <= 0) {
    return Status::InvalidArgument("model config lacks in_dim");
  }
  if (config.hidden_dim <= 0 || config.num_layers <= 0 || config.heads <= 0 ||
      config.poly_order <= 0) {
    return Status::InvalidArgument("model config has degenerate dimensions");
  }
  if (static_cast<uint32_t>(config.family) >= kNumModelFamilies) {
    return Status::InvalidArgument("unknown model family in config");
  }
  return Status::OK();
}

Status ValidateHeadedModel(const ModelConfig& config,
                           const std::vector<Matrix>& params,
                           int num_classes) {
  if (num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  Status s = ValidateModelConfig(config);
  if (!s.ok()) return s;
  if (params.size() < 3) {
    return Status::InvalidArgument(
        "model needs zoo weights plus a 2-tensor head");
  }
  // The head first: its shape bounds hidden_dim by the bytes actually
  // loaded before anything is allocated from the config.
  const Matrix& w = params[params.size() - 2];
  const Matrix& b = params[params.size() - 1];
  if (w.rows() != config.hidden_dim || w.cols() != num_classes) {
    return Status::InvalidArgument(
        StrFormat("head weight is %dx%d, expected %dx%d", w.rows(), w.cols(),
                  config.hidden_dim, num_classes));
  }
  if (b.rows() != 1 || b.cols() != num_classes) {
    return Status::InvalidArgument(StrFormat(
        "head bias is %dx%d, expected 1x%d", b.rows(), b.cols(), num_classes));
  }
  // The architecture's own parameter shapes, from a throwaway build.
  std::unique_ptr<GnnModel> reference = BuildModel(config);
  const std::vector<Var>& expected = reference->params()->params();
  if (params.size() != expected.size() + 2) {
    return Status::InvalidArgument(StrFormat(
        "parameter count mismatch: file has %d tensors, %s-%dL needs %d + 2",
        static_cast<int>(params.size()), ModelFamilyName(config.family),
        config.num_layers, static_cast<int>(expected.size())));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (params[i].rows() != expected[i]->value.rows() ||
        params[i].cols() != expected[i]->value.cols()) {
      return Status::InvalidArgument(
          StrFormat("tensor %d shape mismatch: %dx%d vs expected %dx%d",
                    static_cast<int>(i), params[i].rows(), params[i].cols(),
                    expected[i]->value.rows(), expected[i]->value.cols()));
    }
  }
  return Status::OK();
}

const char* ModelFamilyName(ModelFamily family) {
  switch (family) {
    case ModelFamily::kGcn:
      return "GCN";
    case ModelFamily::kSageMean:
      return "GraphSAGE-mean";
    case ModelFamily::kSagePool:
      return "GraphSAGE-pool";
    case ModelFamily::kGat:
      return "GAT";
    case ModelFamily::kSgc:
      return "SGC";
    case ModelFamily::kTagcn:
      return "TAGC";
    case ModelFamily::kAppnp:
      return "APPNP";
    case ModelFamily::kGin:
      return "GIN";
    case ModelFamily::kGcnii:
      return "GCNII";
    case ModelFamily::kJkMax:
      return "JKNet";
    case ModelFamily::kDnaHighway:
      return "DNA";
    case ModelFamily::kMixHop:
      return "MixHop";
    case ModelFamily::kDagnn:
      return "DAGNN";
    case ModelFamily::kCheb:
      return "ChebNet";
    case ModelFamily::kGatedGnn:
      return "GatedGNN";
    case ModelFamily::kMlp:
      return "MLP";
    case ModelFamily::kArma:
      return "ARMA";
    case ModelFamily::kGraphConv:
      return "GraphConv";
    case ModelFamily::kAgnn:
      return "AGNN";
  }
  return "unknown";
}

}  // namespace ahg
