#include "serve/model_registry.h"

#include <mutex>
#include <sstream>
#include <utility>

#include "io/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace ahg::serve {
namespace {

constexpr char kManifestName[] = "registry.tsv";
constexpr char kManifestMagic[] = "ahg-registry";
constexpr int kManifestVersion = 1;

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

std::string ModelFileName(int version) {
  return StrFormat("model_v%d.ahgm", version);
}

struct ManifestRow {
  int version = 0;
  std::string file;
  int num_classes = 0;
};

// Parses `dir`/registry.tsv. NotFound when the manifest does not exist.
StatusOr<std::vector<ManifestRow>> ReadManifest(const std::string& dir) {
  StatusOr<std::string> text = ReadFile(ManifestPath(dir));
  if (!text.ok()) return text.status();
  const std::vector<std::string> lines = StrSplit(text.value(), '\n');
  {
    const auto header = StrSplit(StrTrim(lines[0]), '\t');
    int version = 0;
    if (header.size() != 2 || header[0] != kManifestMagic ||
        !ParseNumber(header[1], &version) || version != kManifestVersion) {
      return Status::InvalidArgument("bad registry manifest header in " + dir);
    }
  }
  std::vector<ManifestRow> rows;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string line = StrTrim(lines[i]);
    if (line.empty()) continue;
    const auto parts = StrSplit(line, '\t');
    if (parts.size() != 3) {
      return Status::InvalidArgument("malformed registry row: " + line);
    }
    ManifestRow row;
    row.file = parts[1];
    if (!ParseNumber(parts[0], &row.version) ||
        !ParseNumber(parts[2], &row.num_classes) || row.version <= 0 ||
        row.file.empty() || row.num_classes <= 0) {
      return Status::InvalidArgument("invalid registry row: " + line);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Status WriteManifest(const std::string& dir,
                     const std::vector<ManifestRow>& rows) {
  std::ostringstream out;
  out << kManifestMagic << "\t" << kManifestVersion << "\n";
  for (const ManifestRow& row : rows) {
    out << row.version << "\t" << row.file << "\t" << row.num_classes << "\n";
  }
  return AtomicWriteFile(ManifestPath(dir), out.str());
}

}  // namespace

Status ValidateServableModel(const ServableModel& model) {
  if (model.version <= 0) {
    return Status::InvalidArgument("model version must be positive");
  }
  return ValidateHeadedModel(model.config, model.params, model.num_classes);
}

Status ModelRegistry::Refresh() {
  AHG_TRACE_SPAN("serve/registry_swap");
  obs::MetricsRegistry::Global()
      .GetCounter("serve.registry_refreshes")
      ->Increment();
  auto manifest = ReadManifest(dir_);
  if (!manifest.ok()) return manifest.status();
  // Load unseen versions outside the lock; swap in one writer section.
  std::map<int, std::shared_ptr<const ServableModel>> incoming;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const ManifestRow& row : manifest.value()) {
      if (versions_.count(row.version) > 0) continue;
      incoming.emplace(row.version, nullptr);
    }
  }
  for (auto& [version, slot] : incoming) {
    const ManifestRow* row = nullptr;
    for (const ManifestRow& r : manifest.value()) {
      if (r.version == version) row = &r;
    }
    auto loaded = LoadModel(dir_ + "/" + row->file);
    if (!loaded.ok()) return loaded.status();
    auto model = std::make_shared<ServableModel>();
    model->version = version;
    model->num_classes = row->num_classes;
    model->config = loaded.value().config;
    model->params = std::move(loaded.value().params);
    Status valid = ValidateServableModel(*model);
    if (!valid.ok()) {
      return Status::InvalidArgument(StrFormat(
          "registry version %d rejected: %s", version,
          valid.message().c_str()));
    }
    slot = std::move(model);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& [version, model] : incoming) {
    versions_.emplace(version, std::move(model));
  }
  if (!versions_.empty()) active_ = versions_.rbegin()->second;
  return Status::OK();
}

std::shared_ptr<const ServableModel> ModelRegistry::Active() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return active_;
}

std::shared_ptr<const ServableModel> ModelRegistry::Version(
    int version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = versions_.find(version);
  return it == versions_.end() ? nullptr : it->second;
}

std::vector<int> ModelRegistry::Versions() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<int> out;
  out.reserve(versions_.size());
  for (const auto& [version, model] : versions_) out.push_back(version);
  return out;
}

int ModelRegistry::active_version() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return active_ ? active_->version : 0;
}

Status ModelRegistry::ValidateCompatibility(const Graph& graph) const {
  std::shared_ptr<const ServableModel> model = Active();
  if (model == nullptr) {
    return Status::NotFound("registry has no active model");
  }
  if (model->config.in_dim != graph.feature_dim()) {
    return Status::InvalidArgument(
        StrFormat("model consumes %d-dim features, graph has %d-dim",
                  model->config.in_dim, graph.feature_dim()));
  }
  if (model->num_classes != graph.num_classes()) {
    return Status::InvalidArgument(
        StrFormat("model emits %d classes, graph has %d", model->num_classes,
                  graph.num_classes()));
  }
  return Status::OK();
}

Status ModelRegistry::Publish(const std::string& dir, int version,
                              const ModelConfig& config,
                              const std::vector<Matrix>& params,
                              int num_classes) {
  {
    ServableModel candidate;
    candidate.version = version;
    candidate.num_classes = num_classes;
    candidate.config = config;
    candidate.params = params;
    Status valid = ValidateServableModel(candidate);
    if (!valid.ok()) return valid;
  }
  Status s = EnsureDir(dir);
  if (!s.ok()) return s;
  const std::string file = ModelFileName(version);
  s = SaveModel(dir + "/" + file, config, params);
  if (!s.ok()) return s;
  std::vector<ManifestRow> rows;
  auto existing = ReadManifest(dir);
  if (existing.ok()) {
    rows = std::move(existing.value());
  } else if (existing.status().code() != Status::Code::kNotFound) {
    return existing.status();
  }
  bool replaced = false;
  for (ManifestRow& row : rows) {
    if (row.version == version) {
      row.file = file;
      row.num_classes = num_classes;
      replaced = true;
    }
  }
  if (!replaced) rows.push_back({version, file, num_classes});
  return WriteManifest(dir, rows);
}

}  // namespace ahg::serve
