#include "io/model_store.h"

#include <cstdint>

namespace ahg {
namespace {

constexpr char kMagic[] = "AHGM";
constexpr uint32_t kVersion = 1;
constexpr uint32_t kMaxTensorCount = 100000;
// A tensor's rows and cols fields.
constexpr size_t kTensorHeaderBytes = 8;

}  // namespace

void WriteModelConfig(const ModelConfig& config, RecordWriter* w) {
  w->U32(static_cast<uint32_t>(config.family));
  w->I32(config.in_dim);
  w->I32(config.hidden_dim);
  w->I32(config.num_layers);
  w->F64(config.dropout);
  w->I32(config.heads);
  w->F64(config.attention_slope);
  w->F64(config.teleport);
  w->F64(config.gcnii_alpha);
  w->F64(config.gcnii_lambda);
  w->I32(config.poly_order);
  w->U64(config.seed);
}

bool ReadModelConfig(RecordReader* r, ModelConfig* config) {
  uint32_t family = 0;
  if (!r->U32(&family) || family >= kNumModelFamilies) return false;
  config->family = static_cast<ModelFamily>(family);
  return r->I32(&config->in_dim) && r->I32(&config->hidden_dim) &&
         r->I32(&config->num_layers) && r->F64(&config->dropout) &&
         r->I32(&config->heads) && r->F64(&config->attention_slope) &&
         r->F64(&config->teleport) && r->F64(&config->gcnii_alpha) &&
         r->F64(&config->gcnii_lambda) && r->I32(&config->poly_order) &&
         r->U64(&config->seed);
}

Status SaveModel(const std::string& path, const ModelConfig& config,
                 const std::vector<Matrix>& params) {
  RecordWriter w(kMagic, kVersion);
  WriteModelConfig(config, &w);
  w.U32(static_cast<uint32_t>(params.size()));
  for (const Matrix& m : params) w.Mat(m);
  return AtomicWriteFile(path, w.bytes());
}

StatusOr<SavedModel> LoadModel(const std::string& path) {
  StatusOr<RecordReader> opened = RecordReader::Open(path, kMagic, kVersion);
  if (!opened.ok()) return opened.status();
  RecordReader& r = opened.value();
  SavedModel model;
  uint32_t count = 0;
  if (!ReadModelConfig(&r, &model.config) || !r.U32(&count)) {
    return Status::InvalidArgument("truncated or corrupt model header in " +
                                   path);
  }
  Status valid = ValidateModelConfig(model.config);
  if (!valid.ok()) {
    return Status::InvalidArgument(valid.message() + " in " + path);
  }
  if (count > kMaxTensorCount ||
      uint64_t{count} * kTensorHeaderBytes > r.remaining()) {
    return Status::InvalidArgument("implausible tensor count in " + path);
  }
  model.params.resize(count);
  for (Matrix& m : model.params) {
    if (!r.Mat(&m)) {
      return Status::InvalidArgument("truncated or corrupt tensor in " + path);
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in " + path);
  }
  return model;
}

}  // namespace ahg
