// Stats-only stub of the retired Matrix buffer pool. Every Matrix buffer
// now comes from the aligned heap (tensor/aligned.h) and is counted by
// AllocTracker; nothing is recycled, so the counters are always zero.
// The stub exists only for the benchmark harness, which still reads
// MatrixPool::Global().Stats() to report tensor.pool_hit_rate.
#ifndef AUTOHENS_TENSOR_POOL_H_
#define AUTOHENS_TENSOR_POOL_H_

#include <cstdint>

namespace ahg {

struct MatrixPoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
};

class MatrixPool {
 public:
  static MatrixPool& Global() {
    static MatrixPool pool;
    return pool;
  }

  MatrixPoolStats Stats() const { return {}; }
};

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_POOL_H_
