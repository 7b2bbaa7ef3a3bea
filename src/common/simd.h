// Four-float lane type for data-parallel kernels that must stay
// bit-identical to their scalar form.
//
// F32x4 is the GCC/Clang vector extension: element-wise +, - and *
// lower to SSE2 on x86-64, NEON on AArch64, and to scalar code on a
// target with neither, so there is one source path everywhere. Each
// lane performs exactly the IEEE operation the scalar statement would,
// in the same order, so a kernel that computes four independent outputs
// in four lanes produces the same bits as computing them one at a time.
// Lanes are never combined with each other (no horizontal sums): that
// would reassociate and change results.
#pragma once

#include <cstring>

namespace mar::simd {

using F32x4 = float __attribute__((vector_size(16)));

inline constexpr int kLanes = 4;

// Unaligned load/store through memcpy: defined for any float pointer,
// and compiled to a single vector move.
[[nodiscard]] inline F32x4 load(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, F32x4 v) { std::memcpy(p, &v, sizeof v); }

[[nodiscard]] inline F32x4 splat(float s) { return F32x4{s, s, s, s}; }

}  // namespace mar::simd
