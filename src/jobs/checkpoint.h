// Binary persistence for the AutoML job service (src/jobs).
//
// Four record kinds share one framing (io/record.h: "AHGJ" magic, u32
// format version, then u32 record kind and the payload):
//   * SearchJobSpec / TaskJobSpec — the immutable definition of a job,
//     written once at submission.
//   * SearchJobCheckpoint / TaskJobCheckpoint — the cumulative progress of a
//     run, rewritten at every checkpoint boundary.
// Every save goes through AtomicWriteFile (tmp + fsync + rename + directory
// fsync), so a reader, or a run resumed after SIGKILL or power loss mid-write,
// never observes a half-written record.
//
// Everything determinism-critical is stored in raw little-endian binary:
// doubles round-trip bit-for-bit (no text formatting), so a resumed run
// continues from exactly the values the interrupted run computed. This is
// the foundation of the service's bitwise resume guarantee (DESIGN.md).
#ifndef AUTOHENS_JOBS_CHECKPOINT_H_
#define AUTOHENS_JOBS_CHECKPOINT_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/proxy_eval.h"
#include "core/search_gradient.h"
#include "models/model_zoo.h"
#include "tasks/train_node.h"
#include "util/status.h"

namespace ahg::jobs {

// How a search job fixes the ensemble configuration. kHierarchical skips
// the search stage entirely: members take cyclic depths 1..L and every
// architecture gets uniform beta (the paper's plain hierarchical baseline).
enum class JobAlgo { kHierarchical = 0, kAdaptive = 1, kGradient = 2 };

const char* JobAlgoName(JobAlgo algo);

// Immutable definition of a search job. The graph itself is NOT part of the
// spec — the driver owns dataset loading and hands the job a JobEnv; the
// free-form `dataset` tag lets a restarted driver re-associate jobs with
// their data.
struct SearchJobSpec {
  std::string job_id;
  std::string dataset;
  JobAlgo algo = JobAlgo::kGradient;
  std::vector<CandidateSpec> candidates;
  int pool_size = 3;  // N architectures kept after proxy ranking
  int k = 3;          // K members per architecture
  // Proxy-evaluation knobs (core/proxy_eval.h semantics).
  double proxy_dataset_ratio = 0.3;
  int proxy_bagging = 2;
  double proxy_model_ratio = 0.5;
  double proxy_train_fraction = 0.6;
  double proxy_val_fraction = 0.2;
  // The job's member-thread count, despite the name: proxy candidates, the
  // gradient search's eval forward, final members and their val forwards
  // all run on up to this many threads, with bitwise the same results at
  // every count. The rename to a member-thread name waits on perfbench,
  // which sets this field.
  int proxy_num_threads = 1;
  // Shared training protocol (proxy probes, search, final members). The
  // cancel pointer is runtime-only and never serialized.
  TrainConfig train;
  // Gradient-search knobs.
  int gradient_update_every = 1;
  double gradient_arch_learning_rate = 3e-4;
  int gradient_max_epochs = 20;
  int gradient_patience = 5;
  int gradient_checkpoint_every = 4;  // epochs between state snapshots
  // Adaptive-search knobs (Eqn 8).
  double adaptive_epsilon = 3.0;
  double adaptive_gamma = 8000.0;
  double adaptive_lambda = 5.0;
  uint64_t seed = 1;
  // 0 = unlimited. When exceeded at a stage boundary the job degrades
  // deterministically (see SearchJob) instead of failing.
  double time_budget_seconds = 0.0;
  // Registry version to publish the winning model under; 0 disables
  // publication (the ensemble artifact is still written to the store).
  int publish_version = 0;
};

// Cumulative progress of a search job. Fields fill in stage order; a stage
// consults only the fields before it, so a checkpoint taken at any boundary
// resumes cleanly. All units recorded here are independently seeded (proxy
// candidates, adaptive probes, final members) or full-state snapshots (the
// gradient search), which is what makes the resume bitwise faithful.
struct SearchJobCheckpoint {
  // Stage 1: proxy ranking. Scores of completed candidates by pool index.
  std::map<int, CandidateScore> proxy_scores;
  bool pool_done = false;
  std::vector<CandidateSpec> pool;  // the selected N architectures
  // Stage 2a: adaptive probes, keyed (pool index, depth) -> val accuracy.
  std::map<std::pair<int, int>, double> adaptive_probes;
  // Stage 2b: gradient search full-state snapshot.
  bool has_gradient_state = false;
  GradientSearchState gradient_state;
  bool search_done = false;
  std::vector<std::vector<int>> layers;
  std::vector<double> beta;
  // Stage 3: final training. Best-validation weight snapshots of completed
  // members, keyed by plan index (TrainedEnsemble::PlanMembers order).
  std::map<int, std::vector<Matrix>> member_params;
  bool train_done = false;
};

// --- Served-task jobs (Tables VIII/IX through the same machinery) ---

enum class TaskKind { kLinkPrediction = 0, kGraphClassification = 1 };

const char* TaskKindName(TaskKind kind);

// Grid search over candidate encoders for a served downstream task. The
// winning model (best validation AUC / accuracy, first index on ties) is
// persisted as winner.ahgm and served by the scorers in served_tasks.h.
struct TaskJobSpec {
  std::string job_id;
  std::string dataset;
  TaskKind kind = TaskKind::kLinkPrediction;
  std::vector<CandidateSpec> candidates;
  TrainConfig train;
  uint64_t seed = 1;
};

// Per-candidate progress: candidates are independently seeded, so each
// checkpointed unit is skipped verbatim on resume and the winner file is
// bitwise identical to an uninterrupted run's.
struct TaskJobCheckpoint {
  std::map<int, double> scores;  // candidate index -> validation metric
  int best_index = -1;
  ModelConfig best_config;
  std::vector<Matrix> best_params;
  bool done = false;
};

Status SaveTaskSpec(const std::string& path, const TaskJobSpec& spec);
StatusOr<TaskJobSpec> LoadTaskSpec(const std::string& path);
Status SaveTaskCheckpoint(const std::string& path,
                          const TaskJobCheckpoint& checkpoint);
StatusOr<TaskJobCheckpoint> LoadTaskCheckpoint(const std::string& path);

// Spec I/O. Loaders validate magic/version/kind, enum ranges, counts and
// tensor framing, failing with InvalidArgument on corruption.
Status SaveSpec(const std::string& path, const SearchJobSpec& spec);
StatusOr<SearchJobSpec> LoadSpec(const std::string& path);

// Checkpoint I/O.
Status SaveCheckpoint(const std::string& path,
                      const SearchJobCheckpoint& checkpoint);
StatusOr<SearchJobCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace ahg::jobs

#endif  // AUTOHENS_JOBS_CHECKPOINT_H_
