// Versioned model registry backing the serving layer.
//
// On-disk layout (one directory per registry):
//   registry.tsv            manifest: "ahg-registry\t1" header line, then one
//                           "version\tfile\tnum_classes" row per version
//   model_v<N>.ahgm         AHGM SavedModel (io/model_store): zoo weights
//                           followed by the classifier head W (hidden x C)
//                           and bias b (1 x C), exactly the ParameterStore
//                           order TrainedEnsemble members are saved in.
//
// Any other file in the directory is ignored; in particular a stale
// tuning_v<N>.ahgt kernel-tuning profile left by older publishers is never
// opened.
//
// Publish() writes the model file, then rewrites the manifest, each through
// io/record.h's AtomicWriteFile (tmp + fsync + rename + directory fsync).
// The manifest row is the commit point, so a live registry never observes a
// half-written manifest or a row whose model file is missing. Refresh() re-reads the manifest, loads and validates versions
// it has not seen, and hot-swaps the active version (highest number) under
// a writer lock; Active()/Version() take reader locks and hand out
// shared_ptrs, so in-flight batches keep serving the version they started
// with while new requests pick up the swap.
#ifndef AUTOHENS_SERVE_MODEL_REGISTRY_H_
#define AUTOHENS_SERVE_MODEL_REGISTRY_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "io/model_store.h"
#include "models/model.h"
#include "util/status.h"

namespace ahg::serve {

// One immutable loaded model version: architecture config, the zoo weights
// and the classifier head (last two tensors).
struct ServableModel {
  int version = 0;
  int num_classes = 0;
  ModelConfig config;
  std::vector<Matrix> params;

  const Matrix& head_weight() const { return params[params.size() - 2]; }
  const Matrix& head_bias() const { return params[params.size() - 1]; }
};

// A positive version plus ValidateHeadedModel: the parameter list must
// materialize the configured architecture (shape-by-shape against a freshly
// built model) and end in a hidden_dim x num_classes head plus
// 1 x num_classes bias.
Status ValidateServableModel(const ServableModel& model);

class ModelRegistry {
 public:
  explicit ModelRegistry(std::string dir) : dir_(std::move(dir)) {}

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Re-reads the manifest, loads + validates unseen versions, and swaps the
  // active version. Already-loaded versions are never reloaded (published
  // versions are immutable). Safe to call while serving.
  Status Refresh();

  // Highest-numbered version, or nullptr before the first Refresh().
  std::shared_ptr<const ServableModel> Active() const;

  // Specific version, or nullptr if unknown.
  std::shared_ptr<const ServableModel> Version(int version) const;

  // Loaded version numbers, ascending.
  std::vector<int> Versions() const;

  // 0 when nothing is loaded.
  int active_version() const;

  // The active model must consume this graph's features and emit its label
  // space: in_dim == feature_dim and num_classes == graph.num_classes().
  Status ValidateCompatibility(const Graph& graph) const;

  const std::string& dir() const { return dir_; }

  // Writes model_v<version>.ahgm into `dir` (creating it) and upserts the
  // manifest row. `params` must pass ValidateServableModel.
  static Status Publish(const std::string& dir, int version,
                        const ModelConfig& config,
                        const std::vector<Matrix>& params, int num_classes);

 private:
  const std::string dir_;
  mutable std::shared_mutex mu_;
  std::map<int, std::shared_ptr<const ServableModel>> versions_;
  std::shared_ptr<const ServableModel> active_;
};

}  // namespace ahg::serve

#endif  // AUTOHENS_SERVE_MODEL_REGISTRY_H_
