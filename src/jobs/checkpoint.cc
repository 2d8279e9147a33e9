#include "jobs/checkpoint.h"

#include <cstdint>

#include "io/model_store.h"
#include "io/record.h"

namespace ahg::jobs {
namespace {

constexpr char kMagic[] = "AHGJ";
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kKindSpec = 1;
constexpr uint32_t kKindCheckpoint = 2;
constexpr uint32_t kKindTaskSpec = 3;
constexpr uint32_t kKindTaskCheckpoint = 4;

// Smallest encodings, so a corrupt count is rejected before anything is
// sized from it: a matrix is its rows/cols header, a candidate its empty
// name length plus the ModelConfig block.
constexpr size_t kMatBytes = 8;
constexpr size_t kCandidateBytes = 8 + kModelConfigBytes;
// Pool index, then the score's name length, two configs and three doubles.
constexpr size_t kScoreEntryBytes = 4 + 8 + 2 * kModelConfigBytes + 24;

RecordWriter StartRecord(uint32_t kind) {
  RecordWriter w(kMagic, kFormatVersion);
  w.U32(kind);
  return w;
}

StatusOr<RecordReader> OpenRecord(const std::string& path, uint32_t kind) {
  StatusOr<RecordReader> r = RecordReader::Open(path, kMagic, kFormatVersion);
  if (!r.ok()) return r;
  uint32_t got = 0;
  if (!r.value().U32(&got) || got != kind) {
    return Status::InvalidArgument("wrong AHGJ record kind in " + path);
  }
  return r;
}

void WriteMatVec(const std::vector<Matrix>& ms, RecordWriter* w) {
  w->U64(ms.size());
  for (const Matrix& m : ms) w->Mat(m);
}

bool ReadMatVec(RecordReader* r, std::vector<Matrix>* ms) {
  uint64_t n = 0;
  if (!r->Count(&n, kMatBytes)) return false;
  ms->resize(n);
  for (Matrix& m : *ms) {
    if (!r->Mat(&m)) return false;
  }
  return true;
}

void WriteTrainConfig(const TrainConfig& c, RecordWriter* w) {
  w->I32(c.max_epochs);
  w->I32(c.patience);
  w->F64(c.learning_rate);
  w->F64(c.weight_decay);
  w->F64(c.lr_decay);
  w->I32(c.lr_decay_every);
  w->U64(c.seed);
  w->I32(c.num_threads);
  // Two retired memory-plane flags (buffer pooling, fused kernels). Both
  // paths are gone, so the bytes are written as 0 and ignored on read;
  // keeping them leaves the format unchanged.
  w->Bool(false);
  w->Bool(false);
}

bool ReadTrainConfig(RecordReader* r, TrainConfig* c) {
  bool retired = false;  // each retired flag byte; read and dropped
  return r->I32(&c->max_epochs) && r->I32(&c->patience) &&
         r->F64(&c->learning_rate) && r->F64(&c->weight_decay) &&
         r->F64(&c->lr_decay) && r->I32(&c->lr_decay_every) &&
         r->U64(&c->seed) && r->I32(&c->num_threads) &&
         r->Bool(&retired) && r->Bool(&retired);
}

void WriteCandidates(const std::vector<CandidateSpec>& cs, RecordWriter* w) {
  w->U64(cs.size());
  for (const CandidateSpec& c : cs) {
    w->Str(c.name);
    WriteModelConfig(c.config, w);
  }
}

bool ReadCandidates(RecordReader* r, std::vector<CandidateSpec>* cs) {
  uint64_t n = 0;
  if (!r->Count(&n, kCandidateBytes)) return false;
  cs->resize(n);
  for (CandidateSpec& c : *cs) {
    if (!r->Str(&c.name) || !ReadModelConfig(r, &c.config)) return false;
  }
  return true;
}

void WriteScore(const CandidateScore& s, RecordWriter* w) {
  w->Str(s.name);
  WriteModelConfig(s.config, w);
  WriteModelConfig(s.original_config, w);
  w->F64(s.mean_val_accuracy);
  w->F64(s.stddev);
  w->F64(s.seconds);
}

bool ReadScore(RecordReader* r, CandidateScore* s) {
  return r->Str(&s->name) && ReadModelConfig(r, &s->config) &&
         ReadModelConfig(r, &s->original_config) &&
         r->F64(&s->mean_val_accuracy) && r->F64(&s->stddev) &&
         r->F64(&s->seconds);
}

void WriteAdam(const AdamState& s, RecordWriter* w) {
  WriteMatVec(s.m, w);
  WriteMatVec(s.v, w);
  w->I64(s.step);
  w->F64(s.learning_rate);
}

bool ReadAdam(RecordReader* r, AdamState* s) {
  return ReadMatVec(r, &s->m) && ReadMatVec(r, &s->v) && r->I64(&s->step) &&
         r->F64(&s->learning_rate);
}

void WriteGradientState(const GradientSearchState& s, RecordWriter* w) {
  w->I32(s.epoch);
  WriteMatVec(s.weight_values, w);
  WriteMatVec(s.arch_values, w);
  WriteAdam(s.weight_opt, w);
  WriteAdam(s.arch_opt, w);
  for (uint64_t word : s.dropout_rng.s) w->U64(word);
  w->Bool(s.dropout_rng.has_spare_normal);
  w->F64(s.dropout_rng.spare_normal);
  w->F64(s.best_val);
  w->Mat(s.best_beta_raw);
  WriteMatVec(s.best_alphas, w);
  w->I32(s.epochs_since_best);
}

bool ReadGradientState(RecordReader* r, GradientSearchState* s) {
  if (!r->I32(&s->epoch) || !ReadMatVec(r, &s->weight_values) ||
      !ReadMatVec(r, &s->arch_values) || !ReadAdam(r, &s->weight_opt) ||
      !ReadAdam(r, &s->arch_opt)) {
    return false;
  }
  for (uint64_t& word : s->dropout_rng.s) {
    if (!r->U64(&word)) return false;
  }
  return r->Bool(&s->dropout_rng.has_spare_normal) &&
         r->F64(&s->dropout_rng.spare_normal) && r->F64(&s->best_val) &&
         r->Mat(&s->best_beta_raw) && ReadMatVec(r, &s->best_alphas) &&
         r->I32(&s->epochs_since_best);
}

}  // namespace

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kLinkPrediction:
      return "link_prediction";
    case TaskKind::kGraphClassification:
      return "graph_classification";
  }
  return "unknown";
}

Status SaveTaskSpec(const std::string& path, const TaskJobSpec& spec) {
  RecordWriter w = StartRecord(kKindTaskSpec);
  w.Str(spec.job_id);
  w.Str(spec.dataset);
  w.U32(static_cast<uint32_t>(spec.kind));
  WriteCandidates(spec.candidates, &w);
  WriteTrainConfig(spec.train, &w);
  w.U64(spec.seed);
  return AtomicWriteFile(path, w.bytes());
}

StatusOr<TaskJobSpec> LoadTaskSpec(const std::string& path) {
  StatusOr<RecordReader> opened = OpenRecord(path, kKindTaskSpec);
  if (!opened.ok()) return opened.status();
  RecordReader& r = opened.value();
  TaskJobSpec spec;
  uint32_t kind = 0;
  const bool ok =
      r.Str(&spec.job_id) && r.Str(&spec.dataset) && r.U32(&kind) &&
      kind <= static_cast<uint32_t>(TaskKind::kGraphClassification) &&
      ReadCandidates(&r, &spec.candidates) && ReadTrainConfig(&r, &spec.train) &&
      r.U64(&spec.seed) && r.AtEnd();
  if (!ok) {
    return Status::InvalidArgument("truncated or corrupt task spec " + path);
  }
  spec.kind = static_cast<TaskKind>(kind);
  return spec;
}

Status SaveTaskCheckpoint(const std::string& path,
                          const TaskJobCheckpoint& checkpoint) {
  RecordWriter w = StartRecord(kKindTaskCheckpoint);
  w.U64(checkpoint.scores.size());
  for (const auto& [index, score] : checkpoint.scores) {
    w.I32(index);
    w.F64(score);
  }
  w.I32(checkpoint.best_index);
  WriteModelConfig(checkpoint.best_config, &w);
  WriteMatVec(checkpoint.best_params, &w);
  w.Bool(checkpoint.done);
  return AtomicWriteFile(path, w.bytes());
}

StatusOr<TaskJobCheckpoint> LoadTaskCheckpoint(const std::string& path) {
  StatusOr<RecordReader> opened = OpenRecord(path, kKindTaskCheckpoint);
  if (!opened.ok()) return opened.status();
  RecordReader& r = opened.value();
  TaskJobCheckpoint ckpt;
  const auto fail = [&path] {
    return Status::InvalidArgument("truncated or corrupt task checkpoint " +
                                   path);
  };
  uint64_t n = 0;
  if (!r.Count(&n, 4 + 8)) return fail();  // index, score
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    double score = 0.0;
    if (!r.I32(&index) || !r.F64(&score)) return fail();
    ckpt.scores[index] = score;
  }
  // The winner, if any, must be a scored candidate: TaskJob looks it up.
  if (!r.I32(&ckpt.best_index) ||
      (ckpt.best_index != -1 && ckpt.scores.count(ckpt.best_index) == 0) ||
      !ReadModelConfig(&r, &ckpt.best_config) ||
      !ReadMatVec(&r, &ckpt.best_params) || !r.Bool(&ckpt.done) ||
      !r.AtEnd()) {
    return fail();
  }
  return ckpt;
}

const char* JobAlgoName(JobAlgo algo) {
  switch (algo) {
    case JobAlgo::kHierarchical:
      return "hierarchical";
    case JobAlgo::kAdaptive:
      return "adaptive";
    case JobAlgo::kGradient:
      return "gradient";
  }
  return "unknown";
}

Status SaveSpec(const std::string& path, const SearchJobSpec& spec) {
  RecordWriter w = StartRecord(kKindSpec);
  w.Str(spec.job_id);
  w.Str(spec.dataset);
  w.U32(static_cast<uint32_t>(spec.algo));
  WriteCandidates(spec.candidates, &w);
  w.I32(spec.pool_size);
  w.I32(spec.k);
  w.F64(spec.proxy_dataset_ratio);
  w.I32(spec.proxy_bagging);
  w.F64(spec.proxy_model_ratio);
  w.F64(spec.proxy_train_fraction);
  w.F64(spec.proxy_val_fraction);
  w.I32(spec.proxy_num_threads);
  WriteTrainConfig(spec.train, &w);
  w.I32(spec.gradient_update_every);
  w.F64(spec.gradient_arch_learning_rate);
  w.I32(spec.gradient_max_epochs);
  w.I32(spec.gradient_patience);
  w.I32(spec.gradient_checkpoint_every);
  w.F64(spec.adaptive_epsilon);
  w.F64(spec.adaptive_gamma);
  w.F64(spec.adaptive_lambda);
  w.U64(spec.seed);
  w.F64(spec.time_budget_seconds);
  w.I32(spec.publish_version);
  return AtomicWriteFile(path, w.bytes());
}

StatusOr<SearchJobSpec> LoadSpec(const std::string& path) {
  StatusOr<RecordReader> opened = OpenRecord(path, kKindSpec);
  if (!opened.ok()) return opened.status();
  RecordReader& r = opened.value();
  SearchJobSpec spec;
  uint32_t algo = 0;
  const bool ok =
      r.Str(&spec.job_id) && r.Str(&spec.dataset) && r.U32(&algo) &&
      algo <= static_cast<uint32_t>(JobAlgo::kGradient) &&
      ReadCandidates(&r, &spec.candidates) && r.I32(&spec.pool_size) &&
      r.I32(&spec.k) && r.F64(&spec.proxy_dataset_ratio) &&
      r.I32(&spec.proxy_bagging) && r.F64(&spec.proxy_model_ratio) &&
      r.F64(&spec.proxy_train_fraction) && r.F64(&spec.proxy_val_fraction) &&
      r.I32(&spec.proxy_num_threads) && ReadTrainConfig(&r, &spec.train) &&
      r.I32(&spec.gradient_update_every) &&
      r.F64(&spec.gradient_arch_learning_rate) &&
      r.I32(&spec.gradient_max_epochs) && r.I32(&spec.gradient_patience) &&
      r.I32(&spec.gradient_checkpoint_every) &&
      r.F64(&spec.adaptive_epsilon) && r.F64(&spec.adaptive_gamma) &&
      r.F64(&spec.adaptive_lambda) && r.U64(&spec.seed) &&
      r.F64(&spec.time_budget_seconds) && r.I32(&spec.publish_version) &&
      r.AtEnd();
  if (!ok) return Status::InvalidArgument("truncated or corrupt spec " + path);
  spec.algo = static_cast<JobAlgo>(algo);
  return spec;
}

Status SaveCheckpoint(const std::string& path,
                      const SearchJobCheckpoint& checkpoint) {
  RecordWriter w = StartRecord(kKindCheckpoint);
  w.U64(checkpoint.proxy_scores.size());
  for (const auto& [index, score] : checkpoint.proxy_scores) {
    w.I32(index);
    WriteScore(score, &w);
  }
  w.Bool(checkpoint.pool_done);
  WriteCandidates(checkpoint.pool, &w);
  w.U64(checkpoint.adaptive_probes.size());
  for (const auto& [key, acc] : checkpoint.adaptive_probes) {
    w.I32(key.first);
    w.I32(key.second);
    w.F64(acc);
  }
  w.Bool(checkpoint.has_gradient_state);
  if (checkpoint.has_gradient_state) {
    WriteGradientState(checkpoint.gradient_state, &w);
  }
  w.Bool(checkpoint.search_done);
  w.U64(checkpoint.layers.size());
  for (const auto& row : checkpoint.layers) {
    w.U64(row.size());
    for (int depth : row) w.I32(depth);
  }
  w.U64(checkpoint.beta.size());
  for (double b : checkpoint.beta) w.F64(b);
  w.U64(checkpoint.member_params.size());
  for (const auto& [index, params] : checkpoint.member_params) {
    w.I32(index);
    WriteMatVec(params, &w);
  }
  w.Bool(checkpoint.train_done);
  return AtomicWriteFile(path, w.bytes());
}

StatusOr<SearchJobCheckpoint> LoadCheckpoint(const std::string& path) {
  StatusOr<RecordReader> opened = OpenRecord(path, kKindCheckpoint);
  if (!opened.ok()) return opened.status();
  RecordReader& r = opened.value();
  SearchJobCheckpoint ckpt;
  const auto fail = [&path] {
    return Status::InvalidArgument("truncated or corrupt checkpoint " + path);
  };
  uint64_t n = 0;
  if (!r.Count(&n, kScoreEntryBytes)) return fail();
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    CandidateScore score;
    if (!r.I32(&index) || !ReadScore(&r, &score)) return fail();
    ckpt.proxy_scores[index] = std::move(score);
  }
  if (!r.Bool(&ckpt.pool_done) || !ReadCandidates(&r, &ckpt.pool) ||
      !r.Count(&n, 4 + 4 + 8)) {  // pool index, depth, accuracy
    return fail();
  }
  for (uint64_t i = 0; i < n; ++i) {
    int pool_index = 0, depth = 0;
    double acc = 0.0;
    if (!r.I32(&pool_index) || !r.I32(&depth) || !r.F64(&acc)) return fail();
    ckpt.adaptive_probes[{pool_index, depth}] = acc;
  }
  if (!r.Bool(&ckpt.has_gradient_state)) return fail();
  if (ckpt.has_gradient_state &&
      !ReadGradientState(&r, &ckpt.gradient_state)) {
    return fail();
  }
  if (!r.Bool(&ckpt.search_done) || !r.Count(&n, 8)) return fail();
  ckpt.layers.resize(n);
  for (auto& row : ckpt.layers) {
    uint64_t len = 0;
    if (!r.Count(&len, 4)) return fail();
    row.resize(len);
    for (int& depth : row) {
      if (!r.I32(&depth)) return fail();
    }
  }
  if (!r.Count(&n, 8)) return fail();
  ckpt.beta.resize(n);
  for (double& b : ckpt.beta) {
    if (!r.F64(&b)) return fail();
  }
  if (!r.Count(&n, 4 + 8)) return fail();  // index, tensor count
  for (uint64_t i = 0; i < n; ++i) {
    int index = 0;
    std::vector<Matrix> params;
    if (!r.I32(&index) || !ReadMatVec(&r, &params)) return fail();
    ckpt.member_params[index] = std::move(params);
  }
  if (!r.Bool(&ckpt.train_done) || !r.AtEnd()) return fail();
  return ckpt;
}

}  // namespace ahg::jobs
