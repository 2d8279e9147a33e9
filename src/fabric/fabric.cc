#include "fabric/fabric.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace ahg::fabric {

ServingFabric::ServingFabric(const FabricOptions& options)
    : options_(options),
      ring_(options.virtual_nodes),
      m_routed_(obs::MetricsRegistry::Global().GetCounter("fabric.routed")),
      m_shed_(obs::MetricsRegistry::Global().GetCounter("fabric.shed")),
      m_rollouts_(
          obs::MetricsRegistry::Global().GetCounter("fabric.rollouts")) {
  AHG_CHECK_GT(options.num_shards, 0);
  shards_.reserve(static_cast<size_t>(options.num_shards));
  for (int s = 0; s < options.num_shards; ++s) {
    ring_.AddShard(s);
    shards_.push_back(
        std::make_unique<EngineShard>(s, options.shard_cache_byte_budget));
  }
  obs::MetricsRegistry::Global()
      .GetGauge("fabric.shards")
      ->Set(static_cast<double>(options.num_shards));
}

ServingFabric::~ServingFabric() { Drain(); }

namespace {

// Batcher options whose per-batch model resolution honors the fleet pin.
serve::BatcherOptions ResolverPinnedBatcherOptions(
    const serve::BatcherOptions& base, const serve::ModelRegistry* registry,
    const std::atomic<int>* pin) {
  serve::BatcherOptions options = base;
  options.model_resolver =
      [registry, pin]() -> std::shared_ptr<const serve::ServableModel> {
    const int version = pin->load(std::memory_order_acquire);
    if (version > 0) {
      // A pinned version that disappeared from the registry is an
      // operator error; fail the batch (nullptr -> NotFound) rather than
      // silently serving whatever Active() resolves to.
      return registry->Version(version);
    }
    return registry->Active();
  };
  return options;
}

}  // namespace

Status ServingFabric::ServeGraph(const Graph* graph,
                                 const serve::ModelRegistry* registry) {
  if (multi_tenant_) {
    return Status::InvalidArgument(
        "ServeGraph: fabric already hosts tenant graphs");
  }
  if (partitioned_) {
    return Status::InvalidArgument(
        "ServeGraph: fabric already serves a partitioned graph");
  }
  if (single_graph_) {
    return Status::InvalidArgument("ServeGraph: already serving a graph");
  }
  for (auto& shard : shards_) {
    Status added = shard->AddTenant(
        kDefaultTenant, graph, registry,
        ResolverPinnedBatcherOptions(options_.batcher, registry,
                                     &pinned_version_));
    if (!added.ok()) return added;
  }
  single_graph_ = true;
  return Status::OK();
}

Status ServingFabric::AddTenant(const std::string& tenant, const Graph* graph,
                                const serve::ModelRegistry* registry) {
  if (single_graph_) {
    return Status::InvalidArgument(
        "AddTenant: fabric already serves a single replicated graph");
  }
  if (partitioned_) {
    return Status::InvalidArgument(
        "AddTenant: fabric already serves a partitioned graph");
  }
  if (tenant == kDefaultTenant) {
    return Status::InvalidArgument(
        StrFormat("AddTenant: '%s' is reserved", kDefaultTenant));
  }
  const int shard_id = ring_.ShardForKey(tenant);
  Status added = shards_[shard_id]->AddTenant(
      tenant, graph, registry,
      ResolverPinnedBatcherOptions(options_.batcher, registry,
                                   &pinned_version_));
  if (!added.ok()) return added;
  multi_tenant_ = true;
  return Status::OK();
}

Status ServingFabric::ServePartitioned(const Graph* graph,
                                       const serve::ModelRegistry* registry) {
  if (single_graph_ || multi_tenant_) {
    return Status::InvalidArgument(
        "ServePartitioned: fabric already serves replicated or tenant graphs");
  }
  if (partitioned_) {
    return Status::InvalidArgument(
        "ServePartitioned: already serving a partitioned graph");
  }
  partition::PartitionedEngine::Options engine_options;
  engine_options.partitioner = options_.partitioner;
  StatusOr<std::unique_ptr<partition::PartitionedEngine>> engine =
      partition::PartitionedEngine::Create(
          *graph, static_cast<int>(shards_.size()), engine_options);
  if (!engine.ok()) return engine.status();
  partitioned_engine_ = std::move(engine).value();
  partitioned_registry_ = registry;
  // One batcher per part: the part's query stream micro-batches
  // independently (its own worker pool and admission queue), but every
  // batcher answers through the single partitioned engine.
  for (size_t p = 0; p < shards_.size(); ++p) {
    part_stats_.push_back(std::make_unique<serve::ServeStats>());
    part_batchers_.push_back(std::make_unique<serve::RequestBatcher>(
        partitioned_engine_.get(), registry,
        ResolverPinnedBatcherOptions(options_.batcher, registry,
                                     &pinned_version_),
        part_stats_.back().get()));
  }
  // Snapshot chain for streamed mutations. Incompatible graphs (directed,
  // self loops) still serve; SubmitMutation reports the stored status.
  StatusOr<dyn::GraphSnapshot> snap = dyn::GraphSnapshot::FromGraph(*graph);
  if (snap.ok()) {
    partitioned_snapshot_ = std::move(snap).value();
  } else {
    partitioned_stream_status_ = snap.status();
  }
  partitioned_ = true;
  return Status::OK();
}

Status ServingFabric::AttachStream(const std::string& tenant,
                                   dyn::StreamingServer* stream) {
  return shards_[ring_.ShardForKey(tenant)]->AttachStream(tenant, stream);
}

std::future<serve::QueryResult> ServingFabric::FailedFuture(Status status) {
  std::promise<serve::QueryResult> promise;
  serve::QueryResult result;
  result.status = std::move(status);
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::future<serve::QueryResult> ServingFabric::Route(
    int shard_id, const std::string& tenant, int node, double deadline_ms) {
  EngineShard& shard = *shards_[shard_id];
  if (!shard.HasTenant(tenant)) {
    return FailedFuture(Status::NotFound(
        StrFormat("no tenant '%s' on shard %d", tenant.c_str(), shard_id)));
  }
  if (options_.router_queue_limit > 0 &&
      shard.queue_depth() >= options_.router_queue_limit) {
    m_shed_->Increment();
    shard.stats().RecordRejected();
    return FailedFuture(Status::ResourceExhausted(
        StrFormat("shard %d at router queue limit %d", shard_id,
                  options_.router_queue_limit)));
  }
  m_routed_->Increment();
  return shard.Enqueue(tenant, node, deadline_ms);
}

std::future<serve::QueryResult> ServingFabric::Query(int node,
                                                     double deadline_ms) {
  if (partitioned_) {
    // Route by the plan's ownership map, not the hash ring: the owning
    // part is the only one holding the node's final hidden row.
    StatusOr<int> owner = partitioned_engine_->OwnerOf(node);
    if (!owner.ok()) return FailedFuture(owner.status());
    const int part = owner.value();
    serve::RequestBatcher& batcher = *part_batchers_[part];
    if (options_.router_queue_limit > 0 &&
        batcher.queue_depth() >= options_.router_queue_limit) {
      m_shed_->Increment();
      part_stats_[part]->RecordRejected();
      return FailedFuture(Status::ResourceExhausted(
          StrFormat("part %d at router queue limit %d", part,
                    options_.router_queue_limit)));
    }
    m_routed_->Increment();
    return batcher.Enqueue(node, deadline_ms);
  }
  if (!single_graph_) {
    return FailedFuture(Status::InvalidArgument(
        "Query: fabric is not in single-graph mode (use QueryTenant)"));
  }
  return Route(ring_.ShardForNode(node), kDefaultTenant, node, deadline_ms);
}

std::future<serve::QueryResult> ServingFabric::QueryTenant(
    const std::string& tenant, int node, double deadline_ms) {
  return Route(ring_.ShardForKey(tenant), tenant, node, deadline_ms);
}

Status ServingFabric::Rollout(int version) {
  if (version <= 0) {
    return Status::InvalidArgument(
        StrFormat("Rollout: version %d must be positive", version));
  }
  // Prepare: every shard must be able to serve `version` before any shard
  // flips. Warm failures abort with no observable change anywhere.
  if (partitioned_) {
    // One engine to prepare: warm all per-part layer states for `version`
    // (and reject unsupported families) before the pin flips.
    std::shared_ptr<const serve::ServableModel> model =
        partitioned_registry_->Version(version);
    if (model == nullptr) {
      return Status::NotFound(
          StrFormat("Rollout: version %d is not loaded", version));
    }
    Status warmed = partitioned_engine_->Warm(*model);
    if (!warmed.ok()) return warmed;
    pinned_version_.store(version, std::memory_order_release);
    m_rollouts_->Increment();
    return Status::OK();
  }
  for (auto& shard : shards_) {
    Status warmed = shard->WarmVersion(version);
    if (!warmed.ok()) return warmed;
  }
  // Commit: one atomic store. Every batch resolves the pin exactly once,
  // so no batch mixes versions and no shard can lag once this returns.
  pinned_version_.store(version, std::memory_order_release);
  m_rollouts_->Increment();
  return Status::OK();
}

StatusOr<uint64_t> ServingFabric::SubmitMutation(const std::string& tenant,
                                                 dyn::Mutation mutation) {
  if (partitioned_) {
    if (tenant != kDefaultTenant) {
      return Status::NotFound(StrFormat(
          "SubmitMutation: partitioned fabric serves only tenant '%s'",
          kDefaultTenant));
    }
    std::lock_guard<std::mutex> lock(partitioned_stream_mu_);
    if (!partitioned_stream_status_.ok()) return partitioned_stream_status_;
    partitioned_pending_.push_back(std::move(mutation));
    return ++partitioned_seq_;
  }
  dyn::StreamingServer* stream =
      shards_[ring_.ShardForKey(tenant)]->stream(tenant);
  if (stream == nullptr) {
    return Status::NotFound(
        StrFormat("SubmitMutation: no stream attached for tenant '%s'",
                  tenant.c_str()));
  }
  return stream->Submit(std::move(mutation));
}

Status ServingFabric::PublishStream(const std::string& tenant) {
  if (partitioned_) {
    if (tenant != kDefaultTenant) {
      return Status::NotFound(StrFormat(
          "PublishStream: partitioned fabric serves only tenant '%s'",
          kDefaultTenant));
    }
    std::lock_guard<std::mutex> lock(partitioned_stream_mu_);
    if (!partitioned_stream_status_.ok()) return partitioned_stream_status_;
    if (partitioned_pending_.empty()) return Status::OK();
    StatusOr<std::pair<dyn::GraphSnapshot, dyn::BatchDelta>> next =
        partitioned_snapshot_.Apply(partitioned_pending_);
    if (!next.ok()) {
      // The whole batch was rejected; drop it so the chain stays clean.
      partitioned_pending_.clear();
      return next.status();
    }
    partitioned_pending_.clear();
    auto [snap, delta] = std::move(next).value();
    Status applied = partitioned_engine_->ApplyDelta(snap, delta);
    if (!applied.ok()) return applied;
    partitioned_snapshot_ = std::move(snap);
    return Status::OK();
  }
  EngineShard& shard = *shards_[ring_.ShardForKey(tenant)];
  dyn::StreamingServer* stream = shard.stream(tenant);
  if (stream == nullptr) {
    return Status::NotFound(
        StrFormat("PublishStream: no stream attached for tenant '%s'",
                  tenant.c_str()));
  }
  StatusOr<dyn::RefreshStats> applied = stream->ApplyPending();
  if (!applied.ok()) return applied.status();
  return shard.PublishStream(tenant);
}

void ServingFabric::Flush() {
  for (auto& shard : shards_) shard->Flush();
  for (auto& batcher : part_batchers_) batcher->Flush();
}

void ServingFabric::Drain() {
  for (auto& shard : shards_) shard->Drain();
  for (auto& batcher : part_batchers_) batcher->Drain();
}

}  // namespace ahg::fabric
