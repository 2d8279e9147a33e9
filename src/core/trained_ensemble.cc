#include "core/trained_ensemble.h"

#include "autodiff/ops.h"
#include "ensemble/baselines.h"
#include "io/model_store.h"
#include "io/record.h"
#include "nn/linear.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace ahg {

Matrix CombineMemberProbs(std::vector<Matrix> member_probs,
                          const std::vector<int>& pool_index,
                          const std::vector<double>& beta,
                          std::vector<Matrix>* per_model_probs) {
  AHG_CHECK_EQ(member_probs.size(), pool_index.size());
  // Grouped in member order, so each average adds in the same order however
  // the members were computed.
  std::vector<std::vector<Matrix>> per_arch(beta.size());
  for (size_t i = 0; i < member_probs.size(); ++i) {
    per_arch[pool_index[i]].push_back(std::move(member_probs[i]));
  }
  std::vector<Matrix> arch_probs;
  std::vector<double> weights;
  for (size_t j = 0; j < beta.size(); ++j) {
    if (per_arch[j].empty()) continue;
    arch_probs.push_back(AverageProbs(per_arch[j]));
    weights.push_back(beta[j]);
  }
  Matrix probs = WeightedProbs(arch_probs, weights);
  if (per_model_probs != nullptr) *per_model_probs = std::move(arch_probs);
  return probs;
}

std::vector<MemberSpec> TrainedEnsemble::PlanMembers(
    const std::vector<CandidateSpec>& pool,
    const std::vector<std::vector<int>>& layers, const Graph& graph,
    const TrainConfig& train_config, uint64_t seed) {
  AHG_CHECK_EQ(pool.size(), layers.size());
  std::vector<MemberSpec> specs;
  for (size_t j = 0; j < pool.size(); ++j) {
    for (size_t k = 0; k < layers[j].size(); ++k) {
      MemberSpec spec;
      spec.config = pool[j].config;
      spec.config.in_dim = graph.feature_dim();
      spec.config.num_layers = layers[j][k];
      spec.config.seed = seed + static_cast<uint64_t>(j) * 131 + k;
      spec.train = train_config;
      spec.train.seed = spec.config.seed ^ 0x2badULL;
      spec.pool_index = static_cast<int>(j);
      spec.num_classes = graph.num_classes();
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::vector<Matrix> TrainedEnsemble::TrainMember(const MemberSpec& spec,
                                                 const Graph& graph,
                                                 const DataSplit& split) {
  std::vector<Matrix> params;
  RunNodeTraining(spec.config, spec.num_classes,
                  spec.config.seed ^ 0x5ca1ab1eULL, graph, split, spec.train,
                  /*best_logits=*/nullptr, &params);
  return params;
}

TrainedEnsemble TrainedEnsemble::FromParts(
    const std::vector<MemberSpec>& specs,
    std::vector<std::vector<Matrix>> params, const std::vector<double>& beta) {
  AHG_CHECK_EQ(specs.size(), params.size());
  TrainedEnsemble ensemble;
  ensemble.beta_ = beta;
  for (size_t i = 0; i < specs.size(); ++i) {
    AHG_CHECK_GE(specs[i].pool_index, 0);
    AHG_CHECK_LT(specs[i].pool_index, static_cast<int>(beta.size()));
    Member member;
    member.config = specs[i].config;
    member.params = std::move(params[i]);
    member.pool_index = specs[i].pool_index;
    member.num_classes = specs[i].num_classes;
    ensemble.members_.push_back(std::move(member));
  }
  return ensemble;
}

TrainedEnsemble TrainedEnsemble::Train(
    const std::vector<CandidateSpec>& pool,
    const std::vector<std::vector<int>>& layers,
    const std::vector<double>& beta, const Graph& graph,
    const DataSplit& split, const TrainConfig& train_config, uint64_t seed) {
  AHG_CHECK_EQ(pool.size(), beta.size());
  const std::vector<MemberSpec> specs =
      PlanMembers(pool, layers, graph, train_config, seed);
  std::vector<std::vector<Matrix>> params;
  params.reserve(specs.size());
  for (const MemberSpec& spec : specs) {
    params.push_back(TrainMember(spec, graph, split));
  }
  return FromParts(specs, std::move(params), beta);
}

int TrainedEnsemble::LeadMemberIndex() const {
  AHG_CHECK(!members_.empty());
  int best_pool = 0;
  for (size_t j = 1; j < beta_.size(); ++j) {
    if (beta_[j] > beta_[best_pool]) best_pool = static_cast<int>(j);
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].pool_index == best_pool) return static_cast<int>(i);
  }
  return 0;
}

Matrix TrainedEnsemble::PredictProba(const Graph& graph,
                                     int num_threads) const {
  AHG_CHECK(!members_.empty());
  std::vector<Matrix> member_probs(members_.size());
  ParallelFor(static_cast<int>(members_.size()), num_threads, [&](int i) {
    const Member& member = members_[i];
    AHG_CHECK_EQ(member.config.in_dim, graph.feature_dim());
    std::unique_ptr<GnnModel> model = BuildModel(member.config);
    Rng head_rng(member.config.seed ^ 0x5ca1ab1eULL);
    Linear head(model->params(), member.config.hidden_dim,
                member.num_classes, /*bias=*/true, &head_rng);
    model->params()->Restore(member.params);
    GnnContext ctx{&graph, /*training=*/false, nullptr};
    Var x = MakeConstant(graph.features());
    ScopedInferenceMode inference;
    Var logits = head.Apply(model->LayerOutputs(ctx, x).back());
    member_probs[i] = RowSoftmax(logits->value);
  });
  std::vector<int> pool_index;
  for (const Member& member : members_) pool_index.push_back(member.pool_index);
  return CombineMemberProbs(std::move(member_probs), pool_index, beta_,
                            /*per_model_probs=*/nullptr);
}

Status TrainedEnsemble::Save(const std::string& dir) const {
  Status s = EnsureDir(dir);
  if (!s.ok()) return s;
  // Members first, manifest last: the manifest is the commit point, so a
  // crash mid-save never leaves a manifest naming a missing member.
  std::string manifest = "beta";
  for (double b : beta_) manifest += StrFormat("\t%.17g", b);
  manifest += "\n";
  for (size_t i = 0; i < members_.size(); ++i) {
    const std::string file = StrFormat("member_%zu.ahgm", i);
    s = SaveModel(dir + "/" + file, members_[i].config, members_[i].params);
    if (!s.ok()) return s;
    manifest += StrFormat("%s\t%d\t%d\n", file.c_str(),
                          members_[i].pool_index, members_[i].num_classes);
  }
  return AtomicWriteFile(dir + "/manifest.tsv", manifest);
}

StatusOr<TrainedEnsemble> TrainedEnsemble::Load(const std::string& dir) {
  StatusOr<std::string> text = ReadFile(dir + "/manifest.tsv");
  if (!text.ok()) return text.status();
  const std::vector<std::string> lines = StrSplit(text.value(), '\n');
  TrainedEnsemble ensemble;
  {
    const auto parts = StrSplit(lines[0], '\t');
    if (parts[0] != "beta") {
      return Status::InvalidArgument("manifest must start with beta row");
    }
    ensemble.beta_.resize(parts.size() - 1);
    for (size_t i = 1; i < parts.size(); ++i) {
      if (!ParseNumber(parts[i], &ensemble.beta_[i - 1])) {
        return Status::InvalidArgument("bad beta '" + parts[i] +
                                       "' in manifest");
      }
    }
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (StrTrim(line).empty()) continue;
    const auto parts = StrSplit(line, '\t');
    Member member;
    if (parts.size() != 3 || !ParseNumber(parts[1], &member.pool_index) ||
        !ParseNumber(parts[2], &member.num_classes)) {
      return Status::InvalidArgument("malformed manifest row: " + line);
    }
    if (member.pool_index < 0 ||
        member.pool_index >= static_cast<int>(ensemble.beta_.size())) {
      return Status::InvalidArgument("pool index out of range in manifest");
    }
    auto loaded = LoadModel(dir + "/" + parts[0]);
    if (!loaded.ok()) return loaded.status();
    member.config = loaded.value().config;
    member.params = std::move(loaded.value().params);
    Status valid = ValidateHeadedModel(member.config, member.params,
                                       member.num_classes);
    if (!valid.ok()) {
      return Status::InvalidArgument(parts[0] + ": " + valid.message());
    }
    ensemble.members_.push_back(std::move(member));
  }
  if (ensemble.members_.empty()) {
    return Status::InvalidArgument("manifest lists no members");
  }
  return ensemble;
}

}  // namespace ahg
