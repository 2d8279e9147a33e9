// One engine shard of the serving fabric.
//
// A shard owns the serving machinery for every tenant pinned to it: per
// tenant an InferenceEngine and a RequestBatcher, all sharing one
// shard-level PropagationCache (a single LRU byte budget per shard, with
// tenant-scoped keys so products never collide — see EngineOptions) and
// one shard-level ServeStats (per-shard p50/p99, cache hit rate, and
// admission counters, the numbers bench/fabric_load reports per shard).
// In single-graph mode a shard hosts exactly one tenant whose graph is the
// shared serving graph; in multi-tenant mode it hosts whichever tenants
// the router's hash ring pinned to it.
#ifndef AUTOHENS_FABRIC_SHARD_H_
#define AUTOHENS_FABRIC_SHARD_H_

#include <future>
#include <map>
#include <memory>
#include <string>

#include "dyn/stream_server.h"
#include "graph/graph.h"
#include "serve/inference_engine.h"
#include "serve/model_registry.h"
#include "serve/propagation_cache.h"
#include "serve/request_batcher.h"
#include "serve/serve_stats.h"
#include "util/status.h"

namespace ahg::fabric {

class EngineShard {
 public:
  // `cache_byte_budget` is the shard-wide LRU budget shared by every
  // tenant engine on this shard (<= 0 unbounded).
  EngineShard(int shard_id, int64_t cache_byte_budget);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  // Installs `tenant` on this shard: an engine over `graph` (caching in the
  // shard cache, keys scoped by the tenant name) and a batcher resolving
  // models through `batcher_options.model_resolver` (set by the fabric to
  // the fleet version pin). `graph` and `registry` must outlive the shard.
  // Fails on a duplicate tenant name.
  Status AddTenant(const std::string& tenant, const Graph* graph,
                   const serve::ModelRegistry* registry,
                   serve::BatcherOptions batcher_options);

  bool HasTenant(const std::string& tenant) const;

  // Enqueues a query on the tenant's batcher. The tenant must exist.
  std::future<serve::QueryResult> Enqueue(const std::string& tenant, int node,
                                          double deadline_ms);

  // Admitted-but-unanswered requests across all tenant batchers — the
  // router's queue-depth gate reads this before enqueueing.
  int queue_depth() const;

  // Rollout prepare phase: verifies every tenant's registry has `version`
  // and warms each engine's propagation product for it, so the fleet flip
  // lands on shards that can all serve the new version from cache.
  Status WarmVersion(int version);

  // Dynamic-graph bridge. AttachStream binds a tenant to its streaming
  // server; PublishStream swaps the tenant's engine onto the stream's
  // latest snapshot with its hidden states seeded (StreamingServer::
  // PublishTo; no graph is built).
  Status AttachStream(const std::string& tenant, dyn::StreamingServer* stream);
  dyn::StreamingServer* stream(const std::string& tenant) const;
  Status PublishStream(const std::string& tenant);

  serve::InferenceEngine* engine(const std::string& tenant);
  serve::ServeStats& stats() { return stats_; }
  const serve::PropagationCache& cache() const { return cache_; }
  int id() const { return shard_id_; }
  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  void Flush();
  void Drain();

 private:
  struct Tenant {
    const Graph* graph = nullptr;
    const serve::ModelRegistry* registry = nullptr;
    std::unique_ptr<serve::InferenceEngine> engine;
    std::unique_ptr<serve::RequestBatcher> batcher;
    dyn::StreamingServer* stream = nullptr;  // not owned
  };

  const Tenant* FindTenant(const std::string& tenant) const;

  const int shard_id_;
  serve::PropagationCache cache_;
  serve::ServeStats stats_;
  // Tenant set is fixed before traffic starts (fabric setup phase), so the
  // query path reads the map without a lock.
  std::map<std::string, Tenant> tenants_;
};

}  // namespace ahg::fabric

#endif  // AUTOHENS_FABRIC_SHARD_H_
