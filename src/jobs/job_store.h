// Durable on-disk home of the AutoML job service. One directory per job,
// every file in it written through io/record.h's AtomicWriteFile:
//
//   <root>/<job_id>/
//     spec.bin        immutable SearchJobSpec (jobs/checkpoint.h framing)
//     state.tsv       lifecycle: status, attempts, checkpoints, message
//     checkpoint.bin  cumulative run progress, atomically rewritten
//     ensemble/       the published TrainedEnsemble artifact (manifest.tsv
//                     + member_<i>.ahgm) — the byte-for-byte identity target
//                     of the resume-determinism tests
//
// state.tsv is deliberately text (human-greppable) because it carries no
// determinism-critical doubles; everything the resumed computation feeds on
// lives in the binary spec/checkpoint records.
#ifndef AUTOHENS_JOBS_JOB_STORE_H_
#define AUTOHENS_JOBS_JOB_STORE_H_

#include <string>
#include <vector>

#include "jobs/checkpoint.h"
#include "util/status.h"

namespace ahg::jobs {

enum class JobStatus {
  kQueued = 0,
  kRunning = 1,
  kCheckpointed = 2,  // interrupted (cancel, budget pause, dead worker)
  kPublished = 3,     // terminal success
  kFailed = 4,        // terminal failure
  kCancelled = 5,     // terminal: cancelled before any checkpoint existed
};

const char* JobStatusName(JobStatus status);

struct JobState {
  JobStatus status = JobStatus::kQueued;
  int attempts = 0;               // Run() invocations so far
  int64_t checkpoints_written = 0;  // lifetime checkpoint count
  int published_version = 0;      // registry version on success
  std::string message;            // last status detail (single line)
};

class JobStore {
 public:
  explicit JobStore(std::string root) : root_(std::move(root)) {}

  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  // Creates the root directory (idempotent).
  Status Init() const;

  // Writes spec.bin + a kQueued state. Fails if the job already exists.
  Status CreateJob(const SearchJobSpec& spec) const;

  StatusOr<SearchJobSpec> LoadJobSpec(const std::string& job_id) const;
  StatusOr<JobState> LoadState(const std::string& job_id) const;
  // Atomic (io/record.h AtomicWriteFile), so a concurrent reader never
  // sees a torn state. LoadState rejects unknown statuses and malformed
  // numbers with InvalidArgument.
  Status SaveState(const std::string& job_id, const JobState& state) const;

  Status SaveJobCheckpoint(const std::string& job_id,
                           const SearchJobCheckpoint& checkpoint) const;
  StatusOr<SearchJobCheckpoint> LoadJobCheckpoint(
      const std::string& job_id) const;
  bool HasCheckpoint(const std::string& job_id) const;

  // Served-task jobs (Tables VIII/IX) share the directory layout and
  // lifecycle but keep their own spec/checkpoint records (task_spec.bin,
  // task_checkpoint.bin, winner.ahgm).
  Status CreateTaskJob(const TaskJobSpec& spec) const;
  StatusOr<TaskJobSpec> LoadTaskJobSpec(const std::string& job_id) const;
  Status SaveTaskJobCheckpoint(const std::string& job_id,
                               const TaskJobCheckpoint& checkpoint) const;
  StatusOr<TaskJobCheckpoint> LoadTaskJobCheckpoint(
      const std::string& job_id) const;
  bool HasTaskCheckpoint(const std::string& job_id) const;
  std::string WinnerPath(const std::string& job_id) const;

  std::string JobDir(const std::string& job_id) const;
  std::string EnsembleDir(const std::string& job_id) const;

  // Job ids with a spec.bin under the root, sorted.
  std::vector<std::string> ListJobs() const;

  // Dead-worker recovery: a job whose state is still kRunning was owned by
  // a worker that died without a terminal transition (e.g. SIGKILL). Flips
  // such jobs to kCheckpointed (resumable) and returns their ids.
  StatusOr<std::vector<std::string>> RecoverInterrupted() const;

  const std::string& root() const { return root_; }

 private:
  std::string StatePath(const std::string& job_id) const;
  // Validates a new job's id and creates its directory. Fails if a search or
  // task job of that id already exists.
  Status MakeJobDir(const std::string& job_id) const;

  const std::string root_;
};

}  // namespace ahg::jobs

#endif  // AUTOHENS_JOBS_JOB_STORE_H_
