// Process-wide accounting of tensor memory.
//
// Every Matrix heap allocation/release reports here; the runtime-statistics
// bench (Table VI of the paper) reads the peak to reproduce the paper's
// "Peak GPU" column on our CPU substrate. Buffers are never recycled, so
// the peak is the high-water mark of live tensors: the autodiff backward
// frees each op node's gradient as soon as its closure has consumed it
// (autodiff/variable.h), which keeps that mark low. The perf-smoke CI job
// asserts that a training step's AllocationCount() delta stays at or below
// its committed baseline.
#ifndef AUTOHENS_TENSOR_ALLOC_TRACKER_H_
#define AUTOHENS_TENSOR_ALLOC_TRACKER_H_

#include <cstddef>
#include <cstdint>

namespace ahg {

class AllocTracker {
 public:
  // Records `bytes` newly allocated (one heap allocation).
  static void Add(size_t bytes);

  // Records `bytes` released.
  static void Remove(size_t bytes);

  // Bytes currently live.
  static int64_t CurrentBytes();

  // High-water mark since the last ResetPeak().
  static int64_t PeakBytes();

  // Lowers the peak to the current live size. Never lowers it below a
  // high-water mark a concurrent Add() is recording: the adjustment is a
  // CAS that re-reads the live size, not a blind store, so the invariant
  // peak >= current holds through concurrent Add/ResetPeak interleavings.
  static void ResetPeak();

  // Cumulative count of heap allocations since process start. Monotonic;
  // diff across a region to count its allocations.
  static int64_t AllocationCount();

  // Cumulative bytes ever heap-allocated (monotonic; diff across a region
  // for bytes-per-step style reporting).
  static int64_t TotalAllocatedBytes();
};

// RAII byte accounting for containers the tracker cannot see through —
// CSR index/value arrays, id maps. Holders report a size once at
// construction and release it at destruction; copies re-report, moves
// transfer. Used so the partition-scale bench compares *resident graph
// structure* on both sides, not just dense Matrix buffers.
class TrackedBytes {
 public:
  TrackedBytes() = default;
  explicit TrackedBytes(size_t bytes) : bytes_(bytes) {
    if (bytes_ > 0) AllocTracker::Add(bytes_);
  }
  TrackedBytes(const TrackedBytes& other) : bytes_(other.bytes_) {
    if (bytes_ > 0) AllocTracker::Add(bytes_);
  }
  TrackedBytes& operator=(const TrackedBytes& other) {
    if (this == &other) return *this;
    Reset(other.bytes_);
    return *this;
  }
  TrackedBytes(TrackedBytes&& other) noexcept : bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  TrackedBytes& operator=(TrackedBytes&& other) noexcept {
    if (this == &other) return *this;
    if (bytes_ > 0) AllocTracker::Remove(bytes_);
    bytes_ = other.bytes_;
    other.bytes_ = 0;
    return *this;
  }
  ~TrackedBytes() {
    if (bytes_ > 0) AllocTracker::Remove(bytes_);
  }

  // Re-reports this holder at a new size.
  void Reset(size_t bytes) {
    if (bytes_ > 0) AllocTracker::Remove(bytes_);
    bytes_ = bytes;
    if (bytes_ > 0) AllocTracker::Add(bytes_);
  }

  size_t bytes() const { return bytes_; }

 private:
  size_t bytes_ = 0;
};

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_ALLOC_TRACKER_H_
