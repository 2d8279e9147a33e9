// 64-byte-aligned allocation for tensor buffers.
//
// Every Matrix buffer — fresh, copied, or grown — comes from
// AlignedAllocDoubles and is released with AlignedFreeDoubles, so every
// buffer has the same alignment and the SIMD kernel backend
// (src/kernels) may legally issue aligned vector loads against any row base
// whose column offset lands on a 64-byte boundary. 64 bytes covers a full
// AVX-512 register and one cache line.
#ifndef AUTOHENS_TENSOR_ALIGNED_H_
#define AUTOHENS_TENSOR_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace ahg {

inline constexpr std::size_t kTensorAlignment = 64;

// A buffer of `n` doubles aligned to kTensorAlignment; zero-filled when
// `zero`. n must be > 0.
inline double* AlignedAllocDoubles(int64_t n, bool zero) {
  void* p = ::operator new(static_cast<std::size_t>(n) * sizeof(double),
                           std::align_val_t{kTensorAlignment});
  if (zero) std::memset(p, 0, static_cast<std::size_t>(n) * sizeof(double));
  return static_cast<double*>(p);
}

// Releases a buffer from AlignedAllocDoubles. Must pair with it on every
// free path (plain delete[] on an aligned-new buffer is undefined).
inline void AlignedFreeDoubles(double* ptr) {
  ::operator delete(static_cast<void*>(ptr),
                    std::align_val_t{kTensorAlignment});
}

inline bool IsTensorAligned(const void* ptr) {
  return reinterpret_cast<std::uintptr_t>(ptr) % kTensorAlignment == 0;
}

}  // namespace ahg

#endif  // AUTOHENS_TENSOR_ALIGNED_H_
