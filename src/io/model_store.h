// Binary persistence for trained models: the architecture configuration
// plus a parameter snapshot (the Matrices from ParameterStore::Snapshot),
// so a search result or competition submission can be re-materialized
// without retraining.
//
// Format (io/record.h codec, little-endian): magic "AHGM", u32 version, the
// ModelConfig block, u32 tensor count, then the tensors.
#ifndef AUTOHENS_IO_MODEL_STORE_H_
#define AUTOHENS_IO_MODEL_STORE_H_

#include <string>
#include <vector>

#include "io/record.h"
#include "models/model.h"
#include "util/status.h"

namespace ahg {

struct SavedModel {
  ModelConfig config;
  std::vector<Matrix> params;
};

// Atomically replaces `path` with `config` + `params`.
Status SaveModel(const std::string& path, const ModelConfig& config,
                 const std::vector<Matrix>& params);

// Reads a model saved by SaveModel; validates magic/version, the config
// (ValidateModelConfig) and tensor framing. Untrusted input is safe:
// dimensions are hard-capped, rows*cols is computed overflow-free, and
// claimed payloads are checked against the bytes remaining in the file, so
// corruption yields InvalidArgument rather than an oversized allocation.
StatusOr<SavedModel> LoadModel(const std::string& path);

// The ModelConfig block, shared by AHGM and the AHGJ job records: family
// u32, in_dim/hidden_dim/num_layers i32, dropout f64, heads i32,
// attention_slope/teleport/gcnii_alpha/gcnii_lambda f64, poly_order i32,
// seed u64. The reader rejects an unknown family; it does not require
// in_dim, which job specs leave to be filled in from the graph.
constexpr size_t kModelConfigBytes = 72;
void WriteModelConfig(const ModelConfig& config, RecordWriter* w);
bool ReadModelConfig(RecordReader* r, ModelConfig* config);

}  // namespace ahg

#endif  // AUTOHENS_IO_MODEL_STORE_H_
