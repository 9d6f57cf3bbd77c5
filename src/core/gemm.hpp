/// \file gemm.hpp
/// \brief Packed, register-blocked, OpenMP-parallel row-major GEMM.
///
/// Every convolution in this library (forward, backward-data — which is also
/// transposed-convolution forward — and backward-weight) lowers to one of
/// these two routines, mirroring the im2col+GEMM strategy of cuDNN-class
/// GPU libraries.  `sgemm` is the float32 workhorse; `hgemm` is the
/// half-precision-storage inference kernel (binary16 operands, float32
/// accumulation — the same numerics contract as GPU tensor cores, which is
/// why Table 2's accuracy parity reproduces on CPU).
///
/// Both run one BLIS-style design (core/gemm.cpp):
///
///   * op(B) is packed a panel at a time: at most kGemmKC rows by the
///     micro-kernel's `nr` columns, zero-padded, into a per-thread 64-byte
///     aligned buffer.  NN copies row segments, NT (backward-weight)
///     transposes, and `hgemm` widens binary16 with `util::half_to_float_n`.
///     B is never packed whole; op(A) is used in place (trans_a packs it
///     row-major, `hgemm` widens it to fp32 — both exact, and A is the small
///     weight side).
///   * One dispatched micro-kernel, `simd::Kernels::gemm_tile`, computes an
///     `mr` x `nr` register tile of C from A rows and the panel: 8 x 32 on
///     AVX-512, 6 x 16 on AVX2 + FMA, 4 x 16 in the scalar reference.
///   * Parallelism: one OpenMP loop over (row block of 96, column panel of
///     `nr`) work items.  Conv GEMMs are "short and fat" (M = out-channels
///     is small, N = output pixels is large), so most calls split over
///     column panels alone; backward-data (M = 288) also splits rows.  The
///     loop stays serial inside an enclosing OpenMP region (eval-mode
///     sample loops), and each C element is summed in the same order
///     whatever the thread count, so results do not depend on it.
#pragma once

#include <cstdint>

#include "util/half.hpp"

namespace nc::core {

/// Depth of one packed B panel.  A longer k is split into balanced blocks of
/// at most this many rows, accumulated into C in order.
inline constexpr std::int64_t kGemmKC = 512;

namespace simd {
struct GemmTile;
}  // namespace simd

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is M x K, op(B) is K x N, C is M x N.
/// lda/ldb/ldc are leading dimensions of the *stored* matrices.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// `sgemm` on an explicit micro-kernel, for comparing ISA tiers
/// (bench_kernels, tests/test_simd_kernels.cpp).  `sgemm` itself runs
/// `simd::kernels().gemm_tile`.
void sgemm_with(const simd::GemmTile& tile, bool trans_a, bool trans_b,
                std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, std::int64_t lda, const float* b,
                std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// C = A * B with binary16 operands and float32 accumulation (no transposes —
/// the inference path pre-packs weights in the orientation it needs).
/// C is overwritten.
void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           std::int64_t ldb, float* c, std::int64_t ldc);

}  // namespace nc::core
