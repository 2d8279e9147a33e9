#include "fabric/shard.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::fabric {

EngineShard::EngineShard(int shard_id, int64_t cache_byte_budget)
    : shard_id_(shard_id), cache_(cache_byte_budget) {}

Status EngineShard::AddTenant(const std::string& tenant, const Graph* graph,
                              const serve::ModelRegistry* registry,
                              serve::BatcherOptions batcher_options) {
  if (graph == nullptr || registry == nullptr) {
    return Status::InvalidArgument("AddTenant: null graph or registry");
  }
  if (tenant.empty() || tenant.find('/') != std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("AddTenant: bad tenant name '%s'", tenant.c_str()));
  }
  if (tenants_.count(tenant) != 0) {
    return Status::InvalidArgument(
        StrFormat("AddTenant: tenant '%s' already on shard %d",
                  tenant.c_str(), shard_id_));
  }
  // Every tenant engine shares the shard cache; the tenant name is the
  // stable scope that keeps same-(generation, version) products apart.
  serve::EngineOptions engine_options;
  engine_options.shared_cache = &cache_;
  engine_options.cache_scope = tenant;
  Tenant entry;
  entry.graph = graph;
  entry.registry = registry;
  entry.engine = std::make_unique<serve::InferenceEngine>(
      graph, engine_options, &stats_);
  entry.batcher = std::make_unique<serve::RequestBatcher>(
      entry.engine.get(), registry, batcher_options, &stats_);
  tenants_.emplace(tenant, std::move(entry));
  return Status::OK();
}

const EngineShard::Tenant* EngineShard::FindTenant(
    const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

bool EngineShard::HasTenant(const std::string& tenant) const {
  return FindTenant(tenant) != nullptr;
}

std::future<serve::QueryResult> EngineShard::Enqueue(const std::string& tenant,
                                                     int node,
                                                     double deadline_ms) {
  const Tenant* entry = FindTenant(tenant);
  AHG_CHECK(entry != nullptr);
  return entry->batcher->Enqueue(node, deadline_ms);
}

int EngineShard::queue_depth() const {
  int depth = 0;
  for (const auto& [name, entry] : tenants_) {
    depth += entry.batcher->queue_depth();
  }
  return depth;
}

Status EngineShard::WarmVersion(int version) {
  for (auto& [name, entry] : tenants_) {
    std::shared_ptr<const serve::ServableModel> model =
        entry.registry->Version(version);
    if (model == nullptr) {
      return Status::NotFound(
          StrFormat("shard %d tenant '%s': registry has no version %d",
                    shard_id_, name.c_str(), version));
    }
    Status warmed = entry.engine->Warm(*model);
    if (!warmed.ok()) return warmed;
  }
  return Status::OK();
}

Status EngineShard::AttachStream(const std::string& tenant,
                                 dyn::StreamingServer* stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("AttachStream: null stream");
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StrFormat("AttachStream: no tenant '%s' on shard %d", tenant.c_str(),
                  shard_id_));
  }
  it->second.stream = stream;
  return Status::OK();
}

dyn::StreamingServer* EngineShard::stream(const std::string& tenant) const {
  const Tenant* entry = FindTenant(tenant);
  return entry == nullptr ? nullptr : entry->stream;
}

Status EngineShard::PublishStream(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.stream == nullptr) {
    return Status::NotFound(
        StrFormat("PublishStream: no stream for tenant '%s' on shard %d",
                  tenant.c_str(), shard_id_));
  }
  return it->second.stream->PublishTo(it->second.engine.get());
}

serve::InferenceEngine* EngineShard::engine(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second.engine.get();
}

void EngineShard::Flush() {
  for (auto& [name, entry] : tenants_) entry.batcher->Flush();
}

void EngineShard::Drain() {
  for (auto& [name, entry] : tenants_) entry.batcher->Drain();
}

}  // namespace ahg::fabric
