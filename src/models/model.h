// Base interface of the GNN model zoo.
//
// Every architecture exposes its per-layer hidden states H^(1..L) with a
// uniform width (hidden_dim). This is what lets graph self-ensemble (Eqn 2
// of the paper) search the layer-aggregation vector alpha uniformly across
// architectures: the classifier head softmax((sum_l alpha_l H^(l)) W) is
// attached outside the model.
#ifndef AUTOHENS_MODELS_MODEL_H_
#define AUTOHENS_MODELS_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/variable.h"
#include "graph/graph.h"
#include "nn/parameter_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace ahg {

// Runtime inputs of a forward pass.
struct GnnContext {
  const Graph* graph = nullptr;
  bool training = false;
  Rng* rng = nullptr;  // dropout noise; required when training
};

enum class ModelFamily {
  kGcn = 0,
  kSageMean,
  kSagePool,
  kGat,
  kSgc,
  kTagcn,
  kAppnp,
  kGin,
  kGcnii,
  kJkMax,
  kDnaHighway,
  kMixHop,
  kDagnn,
  kCheb,
  kGatedGnn,
  kMlp,
  kArma,
  kGraphConv,
  kAgnn,
};

constexpr uint32_t kNumModelFamilies =
    static_cast<uint32_t>(ModelFamily::kAgnn) + 1;

const char* ModelFamilyName(ModelFamily family);

// Architecture hyper-parameters. A single struct keeps zoo factories
// uniform; families ignore the knobs they do not use.
struct ModelConfig {
  ModelFamily family = ModelFamily::kGcn;
  int in_dim = 0;       // feature width; filled in from the graph
  int hidden_dim = 32;  // width of every per-layer output
  int num_layers = 2;   // L: how many per-layer outputs to expose
  double dropout = 0.5;
  int heads = 4;                 // GAT attention heads
  double attention_slope = 0.2;  // GAT LeakyReLU slope
  double teleport = 0.1;         // APPNP restart probability
  double gcnii_alpha = 0.1;      // GCNII initial-residual strength
  double gcnii_lambda = 0.5;     // GCNII identity-map decay
  int poly_order = 3;            // TAGCN / ChebNet polynomial order
  uint64_t seed = 1;             // weight-init seed (GSE varies this)
};

// OK when BuildModel accepts `config`: a known family, in_dim set, and
// positive hidden_dim, num_layers, heads and poly_order. Configs read from
// disk pass through here before anything is built from them.
Status ValidateModelConfig(const ModelConfig& config);

// OK when `params` are the weights of BuildModel(config), in store order,
// followed by a classifier head: a hidden_dim x num_classes weight and a
// 1 x num_classes bias. This is the layout TrainedEnsemble members and
// registry models are saved in.
Status ValidateHeadedModel(const ModelConfig& config,
                           const std::vector<Matrix>& params, int num_classes);

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  // Returns H^(1..L), each num_nodes x hidden_dim. Must be re-invoked per
  // training step (dropout re-samples via ctx.rng).
  virtual std::vector<Var> LayerOutputs(const GnnContext& ctx,
                                        const Var& x) = 0;

  // Frozen serving forward: eval mode (no dropout) with the autodiff tape
  // disabled (ScopedInferenceMode), so no backward closures are retained and
  // intermediate activations free eagerly. Returns the last hidden layer
  // H^(L), num_nodes x hidden_dim, bitwise identical to the value the
  // training-path eval forward computes.
  Matrix ForwardInference(const Graph& graph, const Matrix& features);

  int num_layers() const { return config_.num_layers; }
  int hidden_dim() const { return config_.hidden_dim; }
  const ModelConfig& config() const { return config_; }
  ParameterStore* params() { return &store_; }

 protected:
  explicit GnnModel(const ModelConfig& config) : config_(config) {}

  ModelConfig config_;
  ParameterStore store_;
};

// Instantiates the architecture selected by `config.family`.
// config.in_dim must be set.
std::unique_ptr<GnnModel> BuildModel(const ModelConfig& config);

}  // namespace ahg

#endif  // AUTOHENS_MODELS_MODEL_H_
