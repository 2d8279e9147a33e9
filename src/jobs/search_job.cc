#include "jobs/search_job.h"

#include <csignal>
#include <mutex>

#include "core/proxy_eval.h"
#include "core/search_adaptive.h"
#include "core/search_gradient.h"
#include "core/trained_ensemble.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ahg::jobs {
namespace {

obs::Counter* JobCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

// Seed domain of the final-train members, distinct from the search stages'
// derivations so no training anywhere shares a dropout/init stream.
constexpr uint64_t kFinalTrainSeedSalt = 0x5eedULL;

}  // namespace

StatusOr<SearchJobOutcome> SearchJob::Run(const JobEnv& env) {
  AHG_TRACE_SPAN("jobs/run");
  Stopwatch watch;
  if (env.graph == nullptr || env.split == nullptr) {
    return Status::InvalidArgument("JobEnv needs a graph and a split");
  }
  auto spec_or = store_->LoadJobSpec(job_id_);
  if (!spec_or.ok()) return spec_or.status();
  const SearchJobSpec spec = std::move(spec_or.value());
  auto state_or = store_->LoadState(job_id_);
  if (!state_or.ok()) return state_or.status();
  JobState state = std::move(state_or.value());
  if (state.status == JobStatus::kPublished ||
      state.status == JobStatus::kFailed ||
      state.status == JobStatus::kCancelled) {
    return Status::InvalidArgument("job " + job_id_ + " is terminal (" +
                                   JobStatusName(state.status) + ")");
  }

  SearchJobOutcome outcome;
  SearchJobCheckpoint ckpt;
  if (store_->HasCheckpoint(job_id_)) {
    auto ckpt_or = store_->LoadJobCheckpoint(job_id_);
    if (!ckpt_or.ok()) return ckpt_or.status();
    ckpt = std::move(ckpt_or.value());
    outcome.resumed = true;
    JobCounter("jobs.resumed")->Increment();
  }
  JobCounter("jobs.started")->Increment();
  state.status = JobStatus::kRunning;
  ++state.attempts;
  Status s = store_->SaveState(job_id_, state);
  if (!s.ok()) return s;

  // Checkpoint writer shared by concurrent unit callbacks (proxy candidates
  // and final members run in parallel). The mutex also serializes the ckpt
  // mutations the callbacks make just before calling this.
  std::mutex ckpt_mu;
  Status ckpt_error = Status::OK();
  int written = 0;
  auto write_ckpt_locked = [&] {
    if (!ckpt_error.ok()) return;
    Status ws = store_->SaveJobCheckpoint(job_id_, ckpt);
    if (!ws.ok()) {
      ckpt_error = ws;
      return;
    }
    ++written;
    ++state.checkpoints_written;
    JobCounter("jobs.checkpoints")->Increment();
    if (env.kill_after_checkpoints > 0 &&
        written >= env.kill_after_checkpoints) {
      // Fault injection: die exactly as a power-cut worker would, with the
      // just-renamed checkpoint as the only trace of this attempt.
      raise(SIGKILL);
    }
  };
  auto write_ckpt = [&] {
    std::lock_guard<std::mutex> lock(ckpt_mu);
    write_ckpt_locked();
  };

  auto fail_job = [&](Status why) -> StatusOr<SearchJobOutcome> {
    state.status = JobStatus::kFailed;
    state.message = why.ToString();
    // Best-effort: the propagated status is `why` even if this write fails.
    (void)store_->SaveState(job_id_, state);
    JobCounter("jobs.failed")->Increment();
    return why;
  };
  auto pause_job = [&](const std::string& where) {
    state.status = JobStatus::kCheckpointed;
    state.message = where;
    Status ps = store_->SaveState(job_id_, state);
    JobCounter("jobs.paused")->Increment();
    outcome.status = JobStatus::kCheckpointed;
    outcome.checkpoints_written = written;
    outcome.run_seconds = watch.ElapsedSeconds();
    StatusOr<SearchJobOutcome> out(std::move(outcome));
    if (!ps.ok()) out = ps;
    return out;
  };
  auto cancelled = [&] { return IsCancelled(env.cancel); };
  auto over_budget = [&] {
    return spec.time_budget_seconds > 0.0 &&
           watch.ElapsedSeconds() > spec.time_budget_seconds;
  };

  // --- Stage 1: proxy ranking -> pool of N architectures ---
  if (!ckpt.pool_done) {
    AHG_TRACE_SPAN("jobs/stage_proxy");
    if (cancelled()) return pause_job("cancelled before proxy stage");
    if (spec.candidates.empty()) {
      return fail_job(Status::InvalidArgument("spec has no candidates"));
    }
    if (static_cast<int>(spec.candidates.size()) <= spec.pool_size) {
      ckpt.pool = spec.candidates;
    } else if (over_budget()) {
      // Deterministic degradation: keep the first N candidates as listed.
      ckpt.pool.assign(spec.candidates.begin(),
                       spec.candidates.begin() + spec.pool_size);
      state.message = "budget: proxy ranking shed";
    } else {
      ProxyConfig pcfg;
      pcfg.dataset_ratio = spec.proxy_dataset_ratio;
      pcfg.bagging = spec.proxy_bagging;
      pcfg.model_ratio = spec.proxy_model_ratio;
      pcfg.train_fraction = spec.proxy_train_fraction;
      pcfg.val_fraction = spec.proxy_val_fraction;
      pcfg.num_threads = spec.proxy_num_threads;
      pcfg.train = spec.train;
      pcfg.cancel = env.cancel;
      pcfg.precomputed = ckpt.proxy_scores;
      pcfg.on_candidate_done = [&](int index, const CandidateScore& score) {
        std::lock_guard<std::mutex> lock(ckpt_mu);
        ckpt.proxy_scores[index] = score;
        write_ckpt_locked();
      };
      ProxyEvalResult ranking =
          ProxyEvaluate(spec.candidates, *env.graph, pcfg, spec.seed);
      if (!ckpt_error.ok()) return fail_job(ckpt_error);
      if (ranking.interrupted) return pause_job("cancelled during proxy");
      ckpt.pool = SelectTopCandidates(ranking, spec.pool_size);
    }
    ckpt.pool_done = true;
    write_ckpt();
    if (!ckpt_error.ok()) return fail_job(ckpt_error);
  }
  for (const CandidateSpec& c : ckpt.pool) outcome.pool_names.push_back(c.name);

  // --- Stage 2: architecture / ensemble-weight search ---
  if (!ckpt.search_done) {
    AHG_TRACE_SPAN("jobs/stage_search");
    if (cancelled()) return pause_job("cancelled before search stage");
    const int n = static_cast<int>(ckpt.pool.size());
    if (spec.algo == JobAlgo::kHierarchical || over_budget()) {
      // Plain hierarchical baseline (also the budget fallback): cyclic
      // member depths 1..L per architecture, uniform beta.
      ckpt.layers.clear();
      for (const CandidateSpec& c : ckpt.pool) {
        std::vector<int> row;
        for (int i = 0; i < spec.k; ++i) {
          row.push_back(i % c.config.num_layers + 1);
        }
        ckpt.layers.push_back(std::move(row));
      }
      ckpt.beta.assign(n, 1.0 / n);
      if (spec.algo != JobAlgo::kHierarchical) {
        state.message = "budget: search stage shed to hierarchical";
      }
    } else if (spec.algo == JobAlgo::kAdaptive) {
      AdaptiveSearchConfig acfg;
      acfg.k = spec.k;
      acfg.epsilon = spec.adaptive_epsilon;
      acfg.gamma = spec.adaptive_gamma;
      acfg.lambda = spec.adaptive_lambda;
      acfg.train = spec.train;
      acfg.seed = spec.seed ^ 0xada9dULL;
      acfg.cancel = env.cancel;
      acfg.precomputed_probes = ckpt.adaptive_probes;
      acfg.on_probe_done = [&](int pool_index, int depth, double acc) {
        std::lock_guard<std::mutex> lock(ckpt_mu);
        ckpt.adaptive_probes[{pool_index, depth}] = acc;
        write_ckpt_locked();
      };
      AdaptiveSearchResult search =
          SearchAdaptive(ckpt.pool, *env.graph, *env.split, acfg);
      if (!ckpt_error.ok()) return fail_job(ckpt_error);
      if (search.interrupted) {
        return pause_job("cancelled during adaptive search");
      }
      ckpt.layers = search.layers;
      ckpt.beta = search.beta;
    } else {
      GradientSearchConfig gcfg;
      gcfg.k = spec.k;
      gcfg.update_every = spec.gradient_update_every;
      gcfg.arch_learning_rate = spec.gradient_arch_learning_rate;
      gcfg.max_epochs = spec.gradient_max_epochs;
      gcfg.patience = spec.gradient_patience;
      gcfg.train = spec.train;
      gcfg.seed = spec.seed ^ 0xa11ce5ULL;
      gcfg.num_threads = spec.proxy_num_threads;
      gcfg.cancel = env.cancel;
      gcfg.checkpoint_every = spec.gradient_checkpoint_every;
      gcfg.on_checkpoint = [&](const GradientSearchState& st) {
        std::lock_guard<std::mutex> lock(ckpt_mu);
        ckpt.gradient_state = st;
        ckpt.has_gradient_state = true;
        write_ckpt_locked();
      };
      // Resume from a copy: on_checkpoint overwrites ckpt.gradient_state
      // while the search still holds the resume pointer.
      GradientSearchState resume_state;
      if (ckpt.has_gradient_state) {
        resume_state = ckpt.gradient_state;
        gcfg.resume = &resume_state;
      }
      GradientSearchResult search =
          SearchGradient(ckpt.pool, *env.graph, *env.split, gcfg);
      if (!ckpt_error.ok()) return fail_job(ckpt_error);
      if (search.interrupted) {
        return pause_job("cancelled during gradient search");
      }
      ckpt.layers = search.layers;
      ckpt.beta = search.beta;
    }
    ckpt.search_done = true;
    write_ckpt();
    if (!ckpt_error.ok()) return fail_job(ckpt_error);
  }
  outcome.layers = ckpt.layers;
  outcome.beta = ckpt.beta;

  // --- Stage 3: final ensemble training, one checkpoint per member ---
  TrainedEnsemble ensemble;
  const std::string ensemble_dir = store_->EnsembleDir(job_id_);
  if (!ckpt.train_done) {
    AHG_TRACE_SPAN("jobs/stage_train");
    const std::vector<MemberSpec> members = TrainedEnsemble::PlanMembers(
        ckpt.pool, ckpt.layers, *env.graph, spec.train,
        spec.seed ^ kFinalTrainSeedSalt);
    // Members are seeded independently, so they train concurrently and
    // checkpoint in whatever order they finish; a resume retrains exactly
    // the members missing from member_params.
    std::vector<int> missing;
    for (int i = 0; i < static_cast<int>(members.size()); ++i) {
      if (ckpt.member_params.count(i) == 0) missing.push_back(i);
    }
    ParallelFor(
        static_cast<int>(missing.size()), spec.proxy_num_threads, [&](int t) {
          if (cancelled()) return;
          const int i = missing[t];
          MemberSpec member = members[i];
          member.train.cancel = env.cancel;
          std::vector<Matrix> params =
              TrainedEnsemble::TrainMember(member, *env.graph, *env.split);
          // A cancel mid-member produced a partial snapshot; discard it so
          // the resumed run retrains this member from scratch
          // (deterministically).
          if (cancelled()) return;
          std::lock_guard<std::mutex> lock(ckpt_mu);
          ckpt.member_params[i] = std::move(params);
          write_ckpt_locked();
        });
    if (!ckpt_error.ok()) return fail_job(ckpt_error);
    for (int i : missing) {
      // Only a cancel leaves a member untrained.
      if (ckpt.member_params.count(i) == 0) {
        return pause_job("cancelled during final train");
      }
    }
    std::vector<std::vector<Matrix>> ordered;
    ordered.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      ordered.push_back(ckpt.member_params.at(static_cast<int>(i)));
    }
    ensemble =
        TrainedEnsemble::FromParts(members, std::move(ordered), ckpt.beta);
    s = ensemble.Save(ensemble_dir);
    if (!s.ok()) return fail_job(s);
    ckpt.train_done = true;
    write_ckpt();
    if (!ckpt_error.ok()) return fail_job(ckpt_error);
  } else {
    auto loaded = TrainedEnsemble::Load(ensemble_dir);
    if (!loaded.ok()) return fail_job(loaded.status());
    ensemble = std::move(loaded.value());
  }
  outcome.ensemble_dir = ensemble_dir;
  if (!env.split->val.empty()) {
    const Matrix probs =
        ensemble.PredictProba(*env.graph, spec.proxy_num_threads);
    outcome.ensemble_val_accuracy =
        Accuracy(probs, env.graph->labels(), env.split->val);
  }

  // --- Stage 4: publish the winner into the serving plane ---
  if (spec.publish_version > 0 && !env.registry_dir.empty()) {
    AHG_TRACE_SPAN("jobs/stage_publish");
    if (cancelled()) return pause_job("cancelled before publish");
    const int lead = ensemble.LeadMemberIndex();
    s = serve::ModelRegistry::Publish(
        env.registry_dir, spec.publish_version, ensemble.member_config(lead),
        ensemble.member_params(lead), ensemble.member_num_classes(lead));
    if (!s.ok()) return fail_job(s);
    if (env.registry != nullptr) {
      s = env.registry->Refresh();
      if (!s.ok()) return fail_job(s);
    }
    if (env.fabric != nullptr) {
      s = env.fabric->Rollout(spec.publish_version);
      if (!s.ok()) return fail_job(s);
    }
    outcome.published_version = spec.publish_version;
    state.published_version = spec.publish_version;
  }

  state.status = JobStatus::kPublished;
  state.message = "ok";
  s = store_->SaveState(job_id_, state);
  if (!s.ok()) return fail_job(s);
  JobCounter("jobs.published")->Increment();
  outcome.status = JobStatus::kPublished;
  outcome.checkpoints_written = written;
  outcome.run_seconds = watch.ElapsedSeconds();
  return outcome;
}

}  // namespace ahg::jobs
