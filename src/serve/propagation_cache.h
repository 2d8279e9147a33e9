// Keyed cache of precomputed graph-propagation products.
//
// The expensive part of answering a node-classification query is the
// full-graph SpMM stack (normalized-adjacency powers / APPNP-style
// propagation). Those products depend only on the (graph, model-version)
// pair, never on the queried node, so the serving layer computes them once
// through the frozen forward path and every subsequent query is a dense row
// lookup plus the classifier head (iSpLib, Anik et al. 2024, makes the same
// observation for GNN inference).
//
// Concurrency: the first request for a key computes the entry while later
// requests for the same key block on a shared_future, so a propagation
// product is computed exactly once no matter how many batcher workers race
// on a cold cache. Entries are immutable once published; eviction is LRU
// under a byte budget, and evicted matrices stay alive for any in-flight
// batch still holding the shared_ptr.
//
// Memory accounting: entry sizes use the same bytes the Matrix allocator
// reports to AllocTracker (rows * cols * sizeof(double)), so cache totals
// are directly comparable to AllocTracker::CurrentBytes() in ServeStats.
#ifndef AUTOHENS_SERVE_PROPAGATION_CACHE_H_
#define AUTOHENS_SERVE_PROPAGATION_CACHE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"
#include "tensor/matrix.h"

namespace ahg::serve {

// Cache key for a propagation product: "<graph_id>/v<model_version>".
// graph_id identifies a graph *version* (a snapshot generation for dynamic
// graphs, "g0" for a static serving graph), so a snapshot swap can
// invalidate every model's product for a retired topology in one call.
std::string PropagationKey(const std::string& graph_id, int model_version);

// graph_id for generation `gen` of the serving graph ("g<gen>").
std::string GraphId(uint64_t generation);

// Tenant-scoped graph_id: "<scope>:g<gen>", or plain "g<gen>" when `scope`
// is empty. Generations are per-engine counters, so when several tenant
// graphs share one PropagationCache (the fabric's per-shard cache) the
// scope is what keeps their products from colliding: two tenants at the
// same (generation, model-version) pair must resolve different keys.
// `scope` must not contain '/' (the key separator).
std::string GraphId(const std::string& scope, uint64_t generation);

class PropagationCache {
 public:
  // byte_budget <= 0 means unbounded.
  explicit PropagationCache(int64_t byte_budget);

  PropagationCache(const PropagationCache&) = delete;
  PropagationCache& operator=(const PropagationCache&) = delete;

  // Returns the entry for `key`, invoking `compute` on the first request.
  // Concurrent callers with the same key block until that single computation
  // publishes; `compute` runs outside the cache lock. If `compute` throws,
  // the in-flight entry is erased, the exception propagates to the owner
  // and every concurrent waiter, and the next request for the key
  // recomputes from scratch — a failed computation never leaves a broken
  // future resident.
  std::shared_ptr<const Matrix> GetOrCompute(
      const std::string& key, const std::function<Matrix()>& compute);

  // The entry for `key` if it is computed, else null (and nothing counted
  // or inserted): the non-blocking hit path a caller can take under its own
  // lock before falling back to GetOrCompute.
  std::shared_ptr<const Matrix> Lookup(const std::string& key);

  // Inserts (or replaces) `key` with an already-computed value — the
  // patch-in-place path: the dynamic-graph refresh computes the new H^(L)
  // incrementally and publishes it here without a compute callback.
  // Replacing a key never disturbs in-flight readers of the old value; they
  // hold shared_ptrs.
  void Put(const std::string& key, std::shared_ptr<const Matrix> value);

  // Drops `key` if present (e.g. a retired model version). In-flight
  // shared_ptr holders keep the matrix alive.
  void Invalidate(const std::string& key);

  // Drops every entry whose key starts with "<graph_id>/" — all model
  // versions computed against a retired graph snapshot. Called by the
  // snapshot swap so a topology change cannot serve stale products.
  void InvalidateGraph(const std::string& graph_id);

  void Clear();

  int64_t byte_budget() const { return byte_budget_; }
  int64_t current_bytes() const;
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  int64_t num_entries() const;

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const Matrix>> future;
    int64_t bytes = 0;      // 0 until the computation publishes
    uint64_t last_used = 0;  // LRU tick
    bool ready = false;
    // Identifies the GetOrCompute call computing this entry, so a slow
    // owner cannot erase or account an entry that was Invalidate()d and
    // re-inserted by a later call in the meantime.
    const void* owner = nullptr;
  };

  // Evicts ready LRU entries (never `keep`) until the budget holds.
  void EvictLocked(const std::string& keep);

  const int64_t byte_budget_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
  uint64_t tick_ = 0;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  // Mirrors into the process-wide MetricsRegistry so evictions and the
  // resident entry count are visible in the generic metrics export
  // (cumulative across caches; the gauge reports the last cache mutated).
  obs::Counter* const m_evictions_;
  obs::Gauge* const m_entries_;
};

}  // namespace ahg::serve

#endif  // AUTOHENS_SERVE_PROPAGATION_CACHE_H_
