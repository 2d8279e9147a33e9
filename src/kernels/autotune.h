// Kernel block widths are fixed per SIMD tier (see kernels/kernel_ops.h);
// there is no shape autotuner. This stub exists only so the perfbench env
// line can keep reporting `"autotune": "off"`, and goes away with the next
// change to perfbench.
#ifndef AUTOHENS_KERNELS_AUTOTUNE_H_
#define AUTOHENS_KERNELS_AUTOTUNE_H_

namespace ahg::kernels {

inline bool AutotuneEnabled() { return false; }

}  // namespace ahg::kernels

#endif  // AUTOHENS_KERNELS_AUTOTUNE_H_
